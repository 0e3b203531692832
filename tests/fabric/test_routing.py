"""Routing strategies: XY, torus wrap, ring direction, bubble rule, and
the array forms of strategies and VC policies against their scalar forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, RoutingError
from repro.fabric.link import CreditLink
from repro.fabric.registry import FabricConfig, get_topology
from repro.fabric.router import FabricRouter
from repro.fabric.routing import (
    EAST,
    LOCAL,
    NORTH,
    RING_CCW,
    RING_CW,
    SOUTH,
    WEST,
    RingRouting,
    RouteMemo,
    RoutingStrategy,
    TorusXYRouting,
    VcCandidateMemo,
    VcPolicy,
    XYRouting,
)
from repro.fabric.topologies import RingTopology, TorusTopology
from repro.noc.flit import Flit, FlitKind
from repro.physical.descriptor import physical_model
from repro.sim.kernel import SimKernel


def flit_to(dest, kind=FlitKind.SINGLE, seq=0, packet_id=0, src=0):
    return Flit(kind=kind, src=src, dest=dest, packet_id=packet_id, seq=seq)


def worst_case_hops(topology, ports):
    """Most routers on any pair's walked route."""
    net = FabricConfig(topology=topology, ports=ports).build()
    return physical_model(net).worst_case_hops()


class TestTorusRouting:
    def test_wraps_when_shorter(self):
        # 4x4 torus, node 0 at (0,0): dest (3,0) is one hop west via wrap.
        route = TorusXYRouting(4, 4).for_node(0)
        assert route(flit_to(3)) == WEST

    def test_goes_direct_when_shorter(self):
        route = TorusXYRouting(4, 4).for_node(0)
        assert route(flit_to(1)) == EAST

    def test_tie_breaks_positive(self):
        # dest (2,0) from (0,0): distance 2 both ways; EAST by convention.
        route = TorusXYRouting(4, 4).for_node(0)
        assert route(flit_to(2)) == EAST

    def test_x_resolves_before_y(self):
        route = TorusXYRouting(4, 4).for_node(0)
        assert route(flit_to(15)) == WEST  # (3,3): wrap west first

    def test_wraps_vertically(self):
        route = TorusXYRouting(4, 4).for_node(0)
        assert route(flit_to(12)) == NORTH  # (0,3) is one wrap hop north

    def test_local_at_home(self):
        route = TorusXYRouting(4, 4).for_node(5)
        assert route(flit_to(5)) == LOCAL

    def test_direction_monotone_no_uturn(self):
        # Following the route from any src to any dest never reverses.
        strategy = TorusXYRouting(4, 4)
        topo = TorusTopology(4, 4)
        for src in range(16):
            for dest in range(16):
                node, hops = src, 0
                while node != dest:
                    port = strategy.for_node(node)(flit_to(dest))
                    assert port != LOCAL
                    x, y = topo.coordinates(node)
                    step = {EAST: (1, 0), WEST: (-1, 0),
                            SOUTH: (0, 1), NORTH: (0, -1)}[port]
                    node = topo.node_at(x + step[0], y + step[1])
                    hops += 1
                    assert hops <= 8, (src, dest)
                assert hops + 1 == topo.hop_count(src, dest) or src == dest


class TestRingRouting:
    def test_shortest_direction(self):
        route = RingRouting(8).for_node(0)
        assert route(flit_to(1)) == RING_CW
        assert route(flit_to(7)) == RING_CCW
        assert route(flit_to(4)) == RING_CW  # tie breaks clockwise
        assert route(flit_to(0)) == LOCAL

    def test_hop_count_wraps(self):
        topo = RingTopology(8)
        assert topo.hop_count(0, 7) == 2
        assert topo.hop_count(0, 4) == 5
        assert worst_case_hops("ring", 8) == 5


class TestTorusTopology:
    def test_hop_count_wraps(self):
        topo = TorusTopology(4, 4)
        assert topo.hop_count(0, 3) == 2       # wrap west
        assert topo.hop_count(0, 15) == 3      # wrap both dimensions
        assert worst_case_hops("torus", 16) == 5
        # A same-size mesh pays 2*sqrt(N); the torus halves it.
        assert worst_case_hops("torus", 16) < worst_case_hops("mesh", 16)

    def test_every_port_specified_once(self):
        topo = TorusTopology(4, 4)
        seen = set()
        for a, a_port, b, b_port in topo.links():
            for end in ((a, a_port), (b, b_port)):
                assert end not in seen, end
                seen.add(end)
        # Every non-local port of every router is connected.
        assert len(seen) == topo.nodes * 4

    def test_rejects_tiny(self):
        from repro.errors import TopologyError
        with pytest.raises(TopologyError):
            TorusTopology(1, 4)


class TestBubbleRule:
    """Ring entry needs >= 2 credits; same-ring transit needs only 1."""

    @staticmethod
    def _ring_router(credits_cw):
        kernel = SimKernel()
        router = FabricRouter(kernel, "r", n_ports=3,
                              route=RingRouting(8).for_node(0),
                              ring_transit=RingRouting(8))
        links = {}
        for port in (LOCAL, RING_CW, RING_CCW):
            in_link = CreditLink(kernel, f"in{port}")
            out_link = CreditLink(kernel, f"out{port}")
            router.connect(port, in_link, out_link)
            links[port] = (in_link, out_link)
        router.credits[RING_CW] = credits_cw
        return kernel, router, links

    def test_injection_blocked_at_one_credit(self):
        kernel, router, links = self._ring_router(credits_cw=1)
        links[LOCAL][0].send_flit(flit_to(2), 0, 0)  # head entering the ring
        kernel.run_ticks(10)
        assert router.flits_forwarded == 0
        assert router.buffered_flits == 1  # parked, ring keeps its bubble

    def test_injection_allowed_at_two_credits(self):
        kernel, router, links = self._ring_router(credits_cw=2)
        links[LOCAL][0].send_flit(flit_to(2), 0, 0)
        kernel.run_ticks(10)
        assert router.flits_forwarded == 1

    def test_transit_allowed_at_one_credit(self):
        kernel, router, links = self._ring_router(credits_cw=1)
        # Clockwise transit arrives on the CCW port: exempt from the rule.
        links[RING_CCW][0].send_flit(flit_to(2), 0, 0)
        kernel.run_ticks(10)
        assert router.flits_forwarded == 1

    def test_locked_body_flits_exempt(self):
        kernel, router, links = self._ring_router(credits_cw=3)
        head = flit_to(2, FlitKind.HEAD, seq=0, packet_id=1)
        links[LOCAL][0].send_flit(head, 0, 0)
        kernel.run_ticks(6)
        assert router.locks[RING_CW] == LOCAL
        router.credits[RING_CW] = 1  # below the bubble threshold...
        tail = flit_to(2, FlitKind.TAIL, seq=1, packet_id=1)
        links[LOCAL][0].send_flit(tail, 0, kernel.tick)
        kernel.run_ticks(6)
        # ...but the locked wormhole must keep draining.
        assert router.flits_forwarded == 2


class TestMeshStrategyUnchanged:
    def test_xy_matches_mesh_router(self):
        router = FabricConfig(topology="mesh", ports=9).build().routers[4]
        route = XYRouting(3, 3).for_node(4)
        for dest in range(9):
            assert router._route(flit_to(dest)) == route(flit_to(dest))

    def test_mesh_has_no_bubble(self):
        router = FabricConfig(topology="mesh", ports=4).build().routers[0]
        assert router._ring_transit is None


class TestFabricRouterConfig:
    def test_too_few_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricRouter(SimKernel(), "r", n_ports=1, route=lambda f: 0)

    def test_shallow_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricRouter(SimKernel(), "r", n_ports=3, route=lambda f: 0,
                         buffer_depth=1)


# -- array forms == scalar forms -------------------------------------------

#: (topology, ports, rows): two shapes per grid family, one ring.
ARRAY_SHAPES = (("mesh", 16, 4), ("mesh", 15, 5), ("torus", 16, 4),
                ("torus", 15, 3), ("ring", 10, None))


def array_form_cases():
    """Every legal (shape, policy, n_vcs, reentry, priority_flows) combo
    the registry builds, wormhole included (routing only)."""
    cases = []
    for topology, ports, rows in ARRAY_SHAPES:
        shape = {"topology": topology, "ports": ports, "rows": rows}
        cases.append(shape)
        # Enough priority flows that random (src, dest) draws hit them.
        flows = (tuple((0, dest) for dest in range(1, ports))
                 + tuple((src, ports - 1) for src in range(1, ports - 1)))
        for policy in get_topology(topology).vc_policies:
            for n_vcs in (2, 3, 4, 6):
                for allocator in ("rr", "escape-reentry"):
                    for priority_flows in ((), flows):
                        kwargs = dict(shape, flow_control="vc", n_vcs=n_vcs,
                                      vc_policy=policy, allocator=allocator,
                                      priority_flows=priority_flows)
                        try:
                            FabricConfig(**kwargs)
                        except ConfigurationError:
                            continue   # not a legal combination
                        cases.append(kwargs)
    return cases


def _case_id(kwargs):
    named = dict(kwargs, priority_flows=("priority" if kwargs.get(
        "priority_flows") else None))
    return "-".join(str(value) for value in named.values()
                    if value is not None)


def pair_sets(mask):
    """One set of (port, vc) pairs per head."""
    return [set(zip(*np.nonzero(row))) for row in mask]


@pytest.mark.parametrize("kwargs", array_form_cases(), ids=_case_id)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.data())
def test_array_forms_equal_the_mapped_scalar_forms(kwargs, data):
    net = FabricConfig(**kwargs).build()
    nodes_n = net.topology.nodes
    count = data.draw(st.integers(1, 48))

    def batch(below):
        return np.array(data.draw(st.lists(
            st.integers(0, below - 1), min_size=count, max_size=count)))

    nodes, dests, srcs = batch(nodes_n), batch(nodes_n), batch(nodes_n)
    routing = net.routing
    assert (routing.route_array(nodes, dests).tolist()
            == RoutingStrategy.route_array(routing, nodes, dests).tolist())
    grid = routing.route_array(nodes[:, None], dests[None, :])
    assert grid.shape == (count, count)
    assert (grid == RoutingStrategy.route_array(
        routing, nodes[:, None], dests[None, :])).all()
    policy = net.vc_policy
    if policy is None:
        return
    in_ports, in_vcs = batch(policy.n_ports), batch(policy.n_vcs)
    heads = (nodes, in_ports, in_vcs, dests, srcs)
    fast = policy.candidate_masks(*heads)
    mapped = VcPolicy.candidate_masks(policy, *heads)
    for fast_mask, mapped_mask in zip(fast, mapped):   # preferred, fallback
        assert fast_mask.shape == (count, policy.n_ports, policy.n_vcs)
        assert fast_mask.dtype == bool
        assert pair_sets(fast_mask) == pair_sets(mapped_mask)


def test_scalar_only_subclasses_lower_through_the_default():
    """A strategy / policy that overrides only ``for_node`` still has an
    array form: the base class maps the scalar function."""

    class Clockwise(RoutingStrategy):
        def for_node(self, node):
            return lambda flit: LOCAL if flit.dest == node else RING_CW

    class SourceParity(VcPolicy):
        n_ports = 3

        def for_node(self, node):
            def candidates(in_port, in_vc, flit):
                if flit.dest == node:
                    return self._ejection(self.n_vcs)
                return ([(RING_CW, flit.src % 2), (RING_CW, flit.src % 2)],
                        [(RING_CCW, in_vc)])
            return candidates

    nodes = np.array([0, 1, 2, 2])
    dests = np.array([0, 3, 2, 0])
    assert Clockwise().route_array(nodes, dests).tolist() == [0, 1, 0, 1]
    assert Clockwise().route_array(nodes[:2, None], dests[None, :]).tolist() \
        == [[0, 1, 1, 0], [1, 1, 1, 1]]
    preferred, fallback = SourceParity(2).candidate_masks(
        nodes, np.array([0, 1, 2, 1]), np.array([0, 1, 0, 1]), dests,
        np.array([5, 4, 3, 7]))
    assert pair_sets(preferred) == [{(LOCAL, 0), (LOCAL, 1)}, {(RING_CW, 0)},
                                    {(LOCAL, 0), (LOCAL, 1)}, {(RING_CW, 1)}]
    assert pair_sets(fallback) == [set(), {(RING_CCW, 1)}, set(),
                                   {(RING_CCW, 1)}]


# -- the per-router route memo ---------------------------------------------

#: Every registered single-VC build: the credit fabrics' routers and the
#: tree family's routers both route through a RouteMemo.
MEMO_BUILDS = (("mesh", {}), ("torus", {}), ("ring", {}), ("tree", {}),
               ("ctree", {"concentration": 2}))


@pytest.mark.parametrize("topology, extra", MEMO_BUILDS,
                         ids=[name for name, _ in MEMO_BUILDS])
def test_route_memo_equals_the_scalar_route_and_route_array(topology, extra):
    net = FabricConfig(topology=topology, ports=16, **extra).build()
    dests = range(net.endpoints)
    routing = getattr(net, "routing", None)
    for node, router in enumerate(net.routers):
        memo = router._route
        assert isinstance(memo, RouteMemo)
        scalar = [memo.route(flit_to(dest)) for dest in dests]
        # A miss fills the memo, a hit answers from it: both agree.
        assert [memo(flit_to(dest)) for dest in dests] == scalar
        assert [memo[dest] for dest in dests] == scalar
        assert sorted(memo) == list(dests)
        if routing:
            assert routing.route_array(
                np.full(len(dests), node), np.array(dests)).tolist() \
                == scalar
            assert scalar == [routing.for_node(node)(flit_to(dest))
                              for dest in dests]


#: Every registered VC build: both policies on every topology that has
#: them, escape re-entry, and a weighted reservation on the priority lane
#: (whose candidates depend on the source as well as the destination).
VC_MEMO_BUILDS = (
    ("mesh", 9, {}),
    ("mesh", 9, {"allocator": "escape-reentry"}),
    ("mesh", 9, {"n_vcs": 3, "allocator": "weighted",
                 "reservations": ((2, 0.5),),
                 "priority_flows": ((0, 8), (4, 8), (8, 0))}),
    ("torus", 16, {}),
    ("torus", 16, {"vc_policy": "escape", "n_vcs": 3}),
    ("ring", 8, {}),
)


@pytest.mark.parametrize("topology, ports, extra", VC_MEMO_BUILDS,
                         ids=("mesh", "mesh-reentry", "mesh-priority",
                              "torus", "torus-escape", "ring"))
def test_vc_candidate_memo_equals_the_scalar_candidates_and_masks(
        topology, ports, extra):
    net = FabricConfig(topology=topology, ports=ports, flow_control="vc",
                       **extra).build()
    policy = net.vc_policy
    ends = range(net.endpoints)
    keys = [(in_port, in_vc, dest, src)
            for in_port in range(policy.n_ports)
            for in_vc in range(policy.n_vcs) for dest in ends for src in ends]
    in_ports, in_vcs, dests, srcs = (np.array(column)
                                     for column in zip(*keys))
    for node, router in enumerate(net.routers):
        memo = router._candidates
        assert isinstance(memo, VcCandidateMemo)
        masks = policy.candidate_masks(np.full(len(keys), node), in_ports,
                                       in_vcs, dests, srcs)
        rows = zip(keys, *(pair_sets(mask) for mask in masks))
        for key, preferred, fallback in rows:
            in_port, in_vc, dest, src = key
            miss = memo[key]
            assert memo[key] is miss   # a hit answers from the dict
            scalar = memo.candidates(in_port, in_vc, flit_to(dest, src=src))
            assert miss == tuple(map(tuple, scalar)), key
            assert (set(miss[0]), set(miss[1])) == (preferred, fallback), key
        assert len(memo) == len(keys)
        # One stored copy per distinct answer.
        assert len({id(answer) for answer in memo.values()}) \
            == len(set(memo.values()))


def test_a_raising_candidate_call_is_never_memoised():
    calls = []

    def candidates(in_port, in_vc, head):
        calls.append(head.dest)
        if head.dest == 7:
            raise RoutingError("no route to 7")
        return [(1, 0)], []

    memo = VcCandidateMemo(candidates)
    for _ in range(2):
        with pytest.raises(RoutingError):
            memo[0, 0, 7, 3]
    assert (0, 0, 7, 3) not in memo
    assert memo[0, 0, 5, 3] == (((1, 0),), ())
    assert memo[0, 0, 5, 3] == (((1, 0),), ())
    assert calls == [7, 7, 5]


@pytest.mark.parametrize("topology", ("tree", "ctree"))
def test_a_rejected_destination_is_never_memoised(topology):
    net = FabricConfig(topology=topology, ports=16).build()
    memo = net.routers[0]._route   # the root: nowhere to send it
    outside = net.endpoints
    for _ in range(3):
        with pytest.raises(RoutingError, match="not under the root"):
            memo[outside]
        assert outside not in memo
    with pytest.raises(RoutingError):
        net.routers[0]._route(flit_to(outside))
    assert memo[0] == 1 and 0 in memo


def test_a_credit_router_raises_for_every_unroutable_head():
    """A FabricRouter on a route that rejects a destination raises at
    every edge that routes it, never forwarding it on a stale answer."""
    from repro.fabric.routing import TreeUpDownRouting
    from repro.noc.topology import TreeTopology
    topology = TreeTopology(4, arity=2)
    kernel = SimKernel()
    router = FabricRouter(kernel, "r", n_ports=3,
                          route=TreeUpDownRouting(topology).for_node(0))
    for port in range(3):
        router.connect(port, CreditLink(kernel, f"in{port}"),
                       CreditLink(kernel, f"out{port}"))
    router.fifos[1].append(flit_to(9))
    for _ in range(2):
        with pytest.raises(RoutingError, match="not under the root"):
            router.on_edge(0)
    assert 9 not in router._route
    assert router.flits_forwarded == 0
