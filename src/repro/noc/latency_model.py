"""Analytical zero-load latency model — validated against the simulator.

Under zero load a packet's head flit advances exactly one clocked element
per half-cycle (kernel tick): through every stage of every router on the
path, every intermediate link pipeline stage, and the final NI sink latch.
Body/tail flits stream behind at one flit per cycle. Hence::

    head_ticks  = sum(router forward latencies) + link stages on path + 1
    total_ticks = head_ticks + 2 * (flits - 1)

The model is exact, not approximate: ``tests/noc/test_latency_model.py``
asserts tick-for-tick agreement with the behavioural simulation for every
source/destination pair. This is both a regression net for the simulator
and the fast path for large design-space sweeps (no simulation needed).
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.noc.floorplan import segment_count
from repro.noc.topology import TreeTopology


def path_link_stage_count(network, src: int, dest: int) -> int:
    """Intermediate pipeline stages a flit crosses between two leaves."""
    topo: TreeTopology = network.topology
    if src == dest:
        raise TopologyError("src == dest has no path")
    stages = 0

    def link_stages(router_index: int, port: int) -> int:
        length = network.floorplan.link_length(router_index, port)
        return segment_count(length, network.config.max_segment_mm) - 1

    # Source leaf link (upward).
    src_router = topo.leaf_router(src)
    stages += link_stages(src_router.index,
                          topo.child_port_for_leaf(src_router, src))
    # Inter-router links.
    path = topo.route_path(src, dest)
    for a, b in zip(path, path[1:]):
        upper, lower = (a, b) if topo.router(b).parent == a else (b, a)
        node = topo.router(upper)
        port = node.children.index(lower) + 1
        stages += link_stages(upper, port)
    # Destination leaf link (downward).
    dest_router = topo.leaf_router(dest)
    stages += link_stages(dest_router.index,
                          topo.child_port_for_leaf(dest_router, dest))
    return stages


def zero_load_latency_ticks(network, src: int, dest: int,
                            flits: int = 1) -> int:
    """Exact inject-to-eject latency in half-cycles, empty network."""
    if flits < 1:
        raise TopologyError("packets have at least one flit")
    path = network.topology.route_path(src, dest)
    router_ticks = sum(network.routers[r].forward_latency_ticks
                       for r in path)
    head = router_ticks + path_link_stage_count(network, src, dest) + 1
    return head + 2 * (flits - 1)


def zero_load_latency_cycles(network, src: int, dest: int,
                             flits: int = 1) -> float:
    return zero_load_latency_ticks(network, src, dest, flits) / 2.0


def worst_case_latency_cycles(network, flits: int = 1) -> float:
    """Max zero-load latency over all leaf pairs (closed form per pair)."""
    worst = 0.0
    leaves = network.topology.leaves
    for src in range(leaves):
        for dest in range(leaves):
            if src != dest:
                worst = max(worst, zero_load_latency_cycles(
                    network, src, dest, flits
                ))
    return worst


def mean_latency_cycles_uniform(network, flits: int = 1) -> float:
    """Mean zero-load latency under uniform traffic (all ordered pairs)."""
    total = 0.0
    pairs = 0
    leaves = network.topology.leaves
    for src in range(leaves):
        for dest in range(leaves):
            if src != dest:
                total += zero_load_latency_cycles(network, src, dest, flits)
                pairs += 1
    return total / pairs
