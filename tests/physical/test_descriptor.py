"""``PhysicalModel.pair_costs``: the batched path walk against a scalar
reference, bit for bit.

The reference steps one pair at a time with the routing strategy's
scalar form (``routing.for_node``) over the topology's link table and
adds lengths and switch prices left to right. Every registered credit
build — mesh, torus and ring, wormhole and VC, a staged router and
segmented links — must agree with ``==`` on every (src, dest) pair, and
so must the tree family: the binary and quad trees and the concentrated
tree, whose paths start and end on leaf links, and whose cross-leaf
paths add an endpoint stub and a concentrator mux at each end.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.fabric.registry import FabricConfig, get_topology, topology_names
from repro.fabric.routing import EAST, LOCAL, RoutingStrategy
from repro.noc.flit import Flit, FlitKind
from repro.noc.floorplan import segment_count
from repro.physical.descriptor import left_to_right, physical_model
from repro.physical.power import router_energy_pj_per_flit

PORTS = {"mesh": 16, "torus": 16, "ring": 10}
#: A die whose tile pitches are not exact binary fractions, so a sum
#: taken in another order rounds differently on some pairs.
DIE = {"chip_width_mm": 7.3, "chip_height_mm": 5.9}


def credit_builds():
    """(topology, FabricConfig kwargs) over every registered credit
    fabric and flow control, plus the staged and segmented variants."""
    builds = []
    for name in topology_names():
        entry = get_topology(name)
        if not entry.supports_pipeline:
            continue
        for flow in entry.flow_control:
            kwargs = {"flow_control": "vc", "n_vcs": 2} if flow == "vc" else {}
            builds.append((name, kwargs))
            builds.append((name, {**kwargs, "pipeline_depth": 2}))
            builds.append((name, {**kwargs, "segment_links": True}))
    return builds


def _tree_end(topo, plan, endpoint):
    """(router, leaf-link length) where an endpoint enters a tree."""
    leaf = topo.leaf_of(endpoint)
    router = topo.leaf_router(leaf)
    return router.index, plan.link_length(
        router.index, topo.child_port_for_leaf(router, leaf))


def reference_costs(model, src, dest):
    """(hops, length_mm, switch_pj, buffered_hops, stage_registers) of
    one pair, walked hop by hop with the scalar route functions."""
    net = model.network
    plan = net.floorplan
    topo = net.topology
    table = {}
    for a, a_port, b, b_port in topo.links():
        length = plan.link_length(a, a_port)
        table[a, a_port] = (b, length)
        table[b, b_port] = (a, length)
    tree = not get_topology(net.config.topology).supports_pipeline
    if tree:
        (first, first_mm), (stop, last_mm) = (_tree_end(topo, plan, src),
                                              _tree_end(topo, plan, dest))
    else:
        first, first_mm = src, plan.link_length(src, LOCAL)
        stop, last_mm = dest, plan.link_length(dest, LOCAL)
    head = Flit(FlitKind.HEAD, src, dest, packet_id=0, seq=0)
    nodes = [first]
    lengths = [first_mm]
    while nodes[-1] != stop:
        port = net.routing.for_node(nodes[-1])(head)
        node, length = table[nodes[-1], port]
        nodes.append(node)
        lengths.append(length)
    lengths.append(last_mm)
    ports = model.router_port_counts()
    prices = [router_energy_pj_per_flit(ports[node], model.tech)
              for node in nodes]
    if tree and topo.concentration > 1:
        # Endpoints tile the die: a stub of half a tile pitch each way,
        # and a (concentration + 1)-port mux at each end of the tree.
        side = max(1, round(model.endpoints ** 0.5))
        stub = (plan.chip_width_mm / side + plan.chip_height_mm / side) / 4
        mux = router_energy_pj_per_flit(topo.concentration + 1, model.tech)
        if topo.leaf_of(src) == topo.leaf_of(dest):
            # The mux turns the packet around: it never enters the tree.
            lengths, prices = [stub, stub], [mux]
        else:
            lengths, prices = [stub] + lengths + [stub], [mux] + prices + [mux]
    length_mm = 0.0
    for length in lengths:
        length_mm += length
    switch_pj = 0.0
    for price in prices:
        switch_pj += price
    if tree:
        return len(nodes), length_mm, switch_pj, 0, 0
    stages = (net.config.pipeline_depth - 1) * len(nodes)
    if net.config.segment_links:
        stages += sum(segment_count(length, net.config.max_segment_mm) - 1
                      for length in lengths)
    return len(nodes), length_mm, switch_pj, len(nodes), stages


def all_pairs(model):
    n = model.endpoints
    srcs, dests = np.divmod(np.arange(n * n), n)
    return srcs, dests


def assert_walks_agree(model):
    """``pair_costs`` and the one-pair ``path`` equal the scalar
    reference on every ordered pair, ``src == dest`` included."""
    srcs, dests = all_pairs(model)
    costs = model.pair_costs(srcs, dests)
    got = list(zip(costs.hops.tolist(), costs.length_mm.tolist(),
                   costs.switch_pj.tolist(), costs.buffered_hops.tolist(),
                   costs.stage_registers.tolist()))
    expected = [reference_costs(model, src, dest)
                for src, dest in zip(srcs.tolist(), dests.tolist())]
    assert got == expected
    # The one-pair path is the same walk.
    for src, dest, pair in zip(srcs.tolist(), dests.tolist(), expected):
        profile = model.path(src, dest)
        price = left_to_right(router_energy_pj_per_flit(ports, model.tech)
                              for ports in profile.switch_ports)
        assert (profile.hops, profile.length_mm, price,
                profile.buffered_hops, profile.stage_registers) == pair


@pytest.mark.parametrize("name,kwargs", credit_builds())
def test_pair_costs_equal_the_scalar_walk(name, kwargs):
    model = physical_model(FabricConfig(topology=name, ports=PORTS[name],
                                        **DIE, **kwargs).build())
    assert_walks_agree(model)
    if kwargs.get("segment_links") or kwargs.get("pipeline_depth"):
        assert model.pair_costs(*all_pairs(model)).stage_registers.any()


#: The tree family: binary and quad trees, concentration 2 and 4.
TREE_BUILDS = [
    ("tree", {"ports": 16}),
    ("tree", {"ports": 64}),
    ("tree", {"ports": 16, "arity": 4}),
    ("tree", {"ports": 64, "arity": 4}),
    ("ctree", {"ports": 16, "concentration": 2}),
    ("ctree", {"ports": 16, "concentration": 4}),
    ("ctree", {"ports": 64, "concentration": 4}),
]


@pytest.mark.parametrize("name,kwargs", TREE_BUILDS)
def test_tree_pair_costs_equal_the_scalar_walk(name, kwargs):
    assert_walks_agree(physical_model(FabricConfig(topology=name, **DIE,
                                                   **kwargs).build()))


class _AlwaysEast(RoutingStrategy):
    """Never turns: on a torus a row-crossing flit circles its row."""

    def for_node(self, node):
        return lambda flit: LOCAL if flit.dest == node else EAST


class TestBrokenStrategies:
    """A walk that cannot reach its destination fails loudly, naming
    the pair."""

    def _model(self, name):
        model = physical_model(FabricConfig(topology=name,
                                            ports=16).build())
        model.network.routing = _AlwaysEast()
        return model

    def test_a_route_that_never_arrives_raises(self):
        model = self._model("torus")
        with pytest.raises(ConfigurationError, match="never reaches 4 from 0"):
            model.pair_costs([0, 0], [1, 4])
        with pytest.raises(ConfigurationError, match="never reaches"):
            model.path(0, 4)

    def test_a_route_off_the_fabric_raises(self):
        model = self._model("mesh")
        with pytest.raises(ConfigurationError, match="no link"):
            model.pair_costs([0, 2], [1, 4])


@pytest.mark.parametrize("name", ["ctree", "mesh"])
@pytest.mark.parametrize("endpoint", [-1, 16, 1.5])
def test_unknown_endpoints_are_named(name, endpoint):
    """An endpoint outside ``range(ports)`` is refused by name, never
    wrapped round (-1 would price endpoint 15) or left to numpy."""
    model = physical_model(FabricConfig(topology=name, ports=16).build())
    with pytest.raises(TopologyError, match=f"unknown source {endpoint}"):
        model.pair_costs([endpoint], [3])
    with pytest.raises(TopologyError,
                       match=f"unknown destination {endpoint}"):
        model.pair_costs([3], [endpoint])
    with pytest.raises(TopologyError, match=f"unknown source {endpoint}"):
        model.path(endpoint, 3)
    with pytest.raises(TopologyError,
                       match=f"unknown destination {endpoint}"):
        model.path(3, endpoint)


def closed_form_worst_hops(topo):
    """The structures' worst-case hop counts, in closed form:
    ``2·log_k(N) - 1`` on a k-ary tree of N leaves, ``cols + rows - 1``
    corner to corner on a mesh, ``cols//2 + rows//2 + 1`` on a torus and
    ``N//2 + 1`` on a ring."""
    kind = getattr(topo, "kind", None)
    if kind == "mesh":
        return topo.cols + topo.rows - 1
    if kind == "torus":
        return topo.cols // 2 + topo.rows // 2 + 1
    if hasattr(topo, "arity"):
        return 2 * round(math.log(topo.leaves, topo.arity)) - 1
    return topo.nodes // 2 + 1


def closed_form_mean_hops(topo, endpoints):
    """Mean of the structure's closed-form ``hop_count`` over every
    ordered pair of distinct endpoints: the same integer total and the
    same division as the walk's, so the float is identical."""
    total = sum(topo.hop_count(src, dest) for src in range(endpoints)
                for dest in range(endpoints) if src != dest)
    return total / (endpoints * (endpoints - 1))


@pytest.mark.parametrize("kwargs", [
    *(dict(topology=name, ports=ports)
      for name in ("tree", "ctree", "mesh", "torus", "ring")
      for ports in (16, 64)),
    *(dict(topology="tree", ports=ports, arity=4) for ports in (16, 64)),
    dict(topology="tree", ports=2),
    dict(topology="ring", ports=2),
    dict(topology="ring", ports=3),
    dict(topology="mesh", ports=4),
    dict(topology="torus", ports=4),
    dict(topology="torus", ports=9),
    dict(topology="torus", ports=6, rows=2),
    dict(topology="ctree", ports=8, concentration=4),
    dict(topology="ctree", ports=16, concentration=2),
], ids=lambda kwargs: "-".join(str(value) for value in kwargs.values()))
def test_walked_hops_equal_the_closed_forms(kwargs):
    """The walk's worst case and mean over all ordered pairs equal the
    structures' closed forms exactly, on every family and on the
    smallest and lopsided shapes."""
    net = FabricConfig(**kwargs).build()
    model = physical_model(net)
    assert model.worst_case_hops() == closed_form_worst_hops(net.topology)
    assert model.mean_hops() == \
        closed_form_mean_hops(net.topology, net.endpoints)


def test_tree_mean_hops_at_64_ports():
    """Section 3's uniform-traffic mean on the 64-port binary tree."""
    net = FabricConfig(topology="tree", ports=64).build()
    assert physical_model(net).mean_hops() == 9.19047619047619
