"""Analytical zero-load latency model — validated against the simulator.

Under zero load a packet's head flit advances exactly one clocked element
per half-cycle (kernel tick): through every stage of every router on the
path, every intermediate link pipeline stage, and the final NI sink latch.
Body/tail flits stream behind at one flit per cycle. Hence::

    head_ticks  = sum(router forward latencies) + link stages on path + 1
    total_ticks = head_ticks + 2 * (flits - 1)

The path is the network's one route walk (:meth:`repro.noc.base.Network
.walk`): its routers, and its wires as the physical descriptor lists
them (:meth:`repro.physical.descriptor.PhysicalModel.path`, both leaf
links included). The model is exact, not approximate:
``tests/noc/test_latency_model.py`` asserts tick-for-tick agreement with
the behavioural simulation for every source/destination pair.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.noc.floorplan import segment_count
from repro.physical.descriptor import physical_model


def path_link_stage_count(network, src: int, dest: int) -> int:
    """Intermediate pipeline stages a flit crosses between two leaves."""
    if src == dest:
        raise TopologyError("src == dest has no path")
    return sum(segment_count(length, network.config.max_segment_mm) - 1
               for length in physical_model(network).path(
                   src, dest).link_lengths_mm)


def zero_load_latency_ticks(network, src: int, dest: int,
                            flits: int = 1) -> int:
    """Exact inject-to-eject latency in half-cycles, empty network."""
    if flits < 1:
        raise TopologyError("packets have at least one flit")
    routers = [network.topology.attach(src)[0]]
    routers += [int(ahead[0]) for _idx, _node, _port, ahead
                in network.walk(np.array([src]), np.array([dest]))]
    router_ticks = sum(network.routers[router].forward_latency_ticks
                       for router in routers)
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
