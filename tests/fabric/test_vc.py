"""The virtual-channel subsystem: links, router, policies, registry.

Covers the headline claims:

* dateline VCs lift the bubble rule's packet-length bound — a torus/ring
  packet with ``flits > buffer_depth - 1`` is rejected under wormhole
  (bubble) flow control but delivered deadlock-free under VCs;
* the dateline class function is local and monotone along a path;
* escape-VC adaptive routing delivers everything (minimal hops kept) and
  falls back to the deterministic XY escape when adaptive VCs are busy;
* the two-stage allocator emits ``vc_allocated``/``lock_acquire``/
  ``lock_release`` identically in both kernel modes;
* registry capability checks: tree + VC never constructs, policy shape
  constraints are config-time errors.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.parallel import LoadPoint, parallel_saturation_throughput
from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.fabric.routing import (
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    EscapeVcAdaptive,
    RingDatelineVc,
    TorusDatelineVc,
    dateline_class,
)
from repro.fabric.endpoint import FabricSink, FabricSource
from repro.fabric.link import CreditLink
from repro.fabric.router import FabricRouter
from repro.noc.flit import Flit, FlitKind
from repro.noc.packet import Packet
from repro.sim.kernel import SimKernel
from repro.sim.signal import Signal
from repro.traffic.patterns import UniformRandom


def head_to(dest, src=0, packet_id=0):
    return Flit(kind=FlitKind.HEAD, src=src, dest=dest,
                packet_id=packet_id, seq=0)


class TestDatelineClass:
    def test_wrapping_path_switches_exactly_once(self):
        # 8-ring, increasing direction, 6 -> 2 (wraps at 7 -> 0).
        classes = [dateline_class(x, 2, increasing=True) for x in (6, 7, 0, 1)]
        assert classes == [0, 0, 1, 1]

    def test_non_wrapping_path_stays_in_class_1(self):
        classes = [dateline_class(x, 5, increasing=True) for x in (1, 2, 3, 4)]
        assert classes == [1, 1, 1, 1]

    def test_decreasing_direction_mirrors(self):
        # 2 -> 6 moving down (wrap link 0 -> 7 is the last class-0 link,
        # exactly mirroring the increasing direction).
        classes = [dateline_class(x, 6, increasing=False) for x in (2, 1, 0, 7)]
        assert classes == [0, 0, 0, 1]

    def test_class_1_never_includes_the_wrap_link(self):
        # Moving up at the top node: class 1 would need dest >= position,
        # which means the packet already arrived — the wrap link is
        # always class 0, so the class-1 subgraph is an acyclic chain.
        for dest in range(7):
            assert dateline_class(7, dest, increasing=True) == 0


class TestTorusDatelinePolicy:
    def test_candidates_follow_the_deterministic_route(self):
        policy = TorusDatelineVc(4, 4, 2)
        candidates = policy.for_node(0)
        preferred, fallback = candidates(LOCAL, 0, head_to(2, src=0))
        # 0 -> 2 goes EAST twice, never wraps: class 1.
        assert preferred == [(EAST, 1)]
        assert fallback == []

    def test_wrapping_hop_uses_class_0_until_the_dateline(self):
        policy = TorusDatelineVc(4, 4, 2)
        # Node 2 -> dest 0 goes EAST through the wrap (x=2 > dx=0).
        preferred, _ = policy.for_node(2)(LOCAL, 0, head_to(0, src=2))
        assert preferred == [(EAST, 0)]
        # After the wrap (node 3 is the wrap link source: still x > dx).
        preferred, _ = policy.for_node(3)(LOCAL, 0, head_to(0, src=2))
        assert preferred == [(EAST, 0)]

    def test_ejection_accepts_any_vc(self):
        policy = TorusDatelineVc(4, 4, 2)
        preferred, _ = policy.for_node(5)(NORTH, 1, head_to(5, src=1))
        assert preferred == [(LOCAL, 0), (LOCAL, 1)]

    def test_wide_vc_counts_split_into_class_halves(self):
        policy = TorusDatelineVc(4, 4, 6)
        assert policy.class_vcs(0) == [0, 1, 2]
        assert policy.class_vcs(1) == [3, 4, 5]

    def test_odd_vc_count_rejected(self):
        with pytest.raises(ConfigurationError):
            TorusDatelineVc(4, 4, 3)


class TestEscapePolicy:
    def test_adaptive_candidates_cover_all_productive_ports(self):
        policy = EscapeVcAdaptive(4, 4, 3, wrap=False)
        # 0 -> 10: dx=2, dy=2 — EAST and SOUTH both productive.
        preferred, fallback = policy.for_node(0)(LOCAL, 0, head_to(10))
        assert set(preferred) == {(EAST, 1), (EAST, 2), (SOUTH, 1),
                                  (SOUTH, 2)}
        assert fallback == [(EAST, 0)]  # XY escape

    def test_committed_to_escape_stays_on_escape(self):
        policy = EscapeVcAdaptive(4, 4, 3, wrap=False)
        preferred, fallback = policy.for_node(5)(WEST, 0, head_to(10, src=0))
        assert preferred == []
        assert fallback == [(EAST, 0)]

    def test_torus_escape_pair_carries_dateline_classes(self):
        policy = EscapeVcAdaptive(4, 4, 3, wrap=True)
        # Node 2 -> dest 0 heads EAST through the wrap: escape class 0.
        _, fallback = policy.for_node(2)(LOCAL, 0, head_to(0, src=2))
        assert fallback == [(EAST, 0)]
        # 0 -> 2 never wraps: escape class 1.
        _, fallback = policy.for_node(0)(LOCAL, 0, head_to(2, src=0))
        assert fallback == [(EAST, 1)]

    def test_torus_tie_offers_both_directions(self):
        policy = EscapeVcAdaptive(4, 4, 3, wrap=True)
        # dx = 2 on a 4-torus: EAST and WEST both minimal.
        preferred, _ = policy.for_node(0)(LOCAL, 0, head_to(2))
        assert {(EAST, 2), (WEST, 2)} <= set(preferred)

    def test_torus_needs_three_vcs(self):
        with pytest.raises(ConfigurationError):
            EscapeVcAdaptive(4, 4, 2, wrap=True)


class TestVcCreditLink:
    """The wire protocol on a VC link, read off the wires themselves and
    through the endpoints that consume it."""

    def test_flits_are_vc_tagged_and_consumed_once(self):
        kernel = SimKernel()
        link = CreditLink(kernel, "l", n_vcs=2)
        sink = FabricSink(kernel, "sink", link, on_packet=lambda p, t: None)
        flit = head_to(1)
        link.send_flit(flit, 1, tick=0)
        kernel.run_ticks(3)
        assert link.flit.value == ((flit, 1), 0)
        # Due at the sink's edge of tick 2, which returns one credit on
        # the flit's VC only; stale at every later edge.
        assert link.credits[1].value == (1, 2)
        assert link.credits[0].value == 0
        kernel.run_ticks(6)
        assert sink.flits_received == 1
        # Never reset: the wire keeps its last return, stale by its tag.
        assert link.credits[1].value == (1, 2)
        assert link.credits[0].value == 0
        kernel.run_ticks(1)
        link.send_flit(head_to(1, packet_id=1), 1, tick=kernel.tick)  # 10
        kernel.run_ticks(4)
        assert sink.flits_received == 2
        assert link.credits[1].value == (1, 12)   # a new tag, same count
        assert link.credits[0].value == 0

    def test_credits_travel_per_vc(self):
        kernel = SimKernel()
        link = CreditLink(kernel, "l", n_vcs=3)
        source = FabricSource(kernel, "src", link, credits=0, vc=2)
        link.send_credits(2, 1, tick=0)
        kernel.run_ticks(2)
        assert link.credits[2].value == (1, 0)
        assert link.credits[0].value == 0
        kernel.run_ticks(6)
        assert source.credits == 1   # collected once, at tick 2

    @pytest.mark.parametrize("activity_driven", (True, False))
    def test_segmented_returns_are_relayed_once_per_stage(self,
                                                          activity_driven):
        """Every credit-wire write on a 3-segment link: the consumer's
        return, then one relay per stage on the edge it falls due, and
        nothing else — an idle stage drives nothing, in either mode."""
        kernel = SimKernel(activity_driven=activity_driven)
        link = CreditLink(kernel, "l", n_vcs=2, segments=3)
        drives = []
        original = Signal.set

        def recording_set(signal, value, tick=None):
            if ".credit" in signal.name:
                drives.append((kernel.tick, signal.name, value))
            original(signal, value, tick)

        with mock.patch.object(Signal, "set", recording_set):
            link.send_credits(1, 1, tick=0)
            kernel.run_ticks(20)
            link.send_credits(0, 2, tick=20)
            kernel.run_ticks(40)
        assert drives == [
            (0, "l.credit1.s2", (1, 0)),
            (2, "l.credit1.s1", (1, 2)),
            (4, "l.credit1", (1, 4)),
            (20, "l.credit0.s2", (2, 20)),
            (22, "l.credit0.s1", (2, 22)),
            (24, "l.credit0", (2, 24)),
        ]
        if activity_driven:
            assert all(stage._asleep for stage in link.stages)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(returns=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 24)),
                            unique=True),
           segments=st.sampled_from((1, 3)))
    def test_every_return_tag_is_collected_once(self, returns, segments):
        """Credit wires keep their last return, so a reader awake on every
        edge (the naive kernel) sees each one long after it fell due; the
        tag alone must make a source and a VC router collect it once, and
        the activity-driven kernel must collect exactly the same."""
        def collect(activity_driven):
            kernel = SimKernel(activity_driven=activity_driven)
            to_source = CreditLink(kernel, "s", n_vcs=2, segments=segments)
            source = FabricSource(kernel, "source", to_source, credits=0,
                                  vc=1)
            to_router = CreditLink(kernel, "r", n_vcs=2, segments=segments)
            router = FabricRouter(kernel, "router", n_ports=2, n_vcs=2,
                                  candidates=lambda port, vc, head: ([], []))
            router.connect(1, None, to_router)
            by_tick = {}
            for vc, cycle in returns:
                by_tick.setdefault(2 * cycle, []).append(vc)
            for tick in range(2 * 24 + 4 * segments + 8):
                for vc in by_tick.get(tick, ()):
                    to_source.send_credits(vc, 1, tick)
                    to_router.send_credits(vc, 1, tick)
                kernel.run_ticks(1)
            return source.credits, router.credits[1]

        per_vc = [sum(vc == v for vc, _cycle in returns) for v in (0, 1)]
        naive = collect(False)
        assert naive == (per_vc[1], [4 + per_vc[0], 4 + per_vc[1]])
        assert collect(True) == naive


def _run_uniform(config, cycles=50, load=0.3, size_flits=6, seed=9):
    net = config.build()
    ports = config.ports
    gen = UniformRandom(ports, load, size_flits=size_flits)
    schedule = gen.generate(cycles, np.random.default_rng(seed))
    by_cycle = {}
    for injection in schedule:
        by_cycle.setdefault(injection.cycle, []).append(injection)
    for cycle in range(cycles):
        for injection in by_cycle.get(cycle, []):
            net.send(injection.to_packet())
        net.run_ticks(2)
    assert net.drain(500_000), "deadlock or livelock: failed to drain"
    return net


class TestLongPacketsBeyondTheBubbleBound:
    """The headline regression: packets with ``flits > buffer_depth - 1``
    are rejected under bubble flow control but delivered under dateline
    VCs — the packet-length bound the ROADMAP called out is gone."""

    LONG = list(range(6))  # 6 flits > buffer_depth(4) - 1

    def test_torus_bubble_rejects_long_packets(self):
        net = FabricConfig(topology="torus", ports=16).build()
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            net.send(Packet(src=0, dest=5, payload=self.LONG))

    def test_torus_dateline_delivers_long_packets(self):
        for activity_driven in (True, False):
            config = FabricConfig(topology="torus", ports=16,
                                  flow_control="vc",
                                  activity_driven=activity_driven)
            net = _run_uniform(config)
            assert net.stats.packets_delivered == net.stats.packets_injected

    def test_ring_bubble_rejects_long_packets(self):
        net = FabricConfig(topology="ring", ports=10).build()
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            net.send(Packet(src=0, dest=5, payload=self.LONG))

    def test_ring_dateline_delivers_long_packets(self):
        config = FabricConfig(topology="ring", ports=10, flow_control="vc")
        net = _run_uniform(config)
        assert net.stats.packets_delivered == net.stats.packets_injected

    def test_wormhole_mesh_still_takes_long_packets(self):
        # Acyclic fabrics never had the bound; unchanged.
        net = FabricConfig(topology="mesh", ports=16).build()
        net.send(Packet(src=0, dest=5, payload=self.LONG))
        assert net.drain(50_000)


class TestEscapeAdaptiveDelivery:
    def test_mesh_escape_drains_under_pressure(self):
        config = FabricConfig(topology="mesh", ports=16, flow_control="vc",
                              n_vcs=4)
        net = _run_uniform(config, load=0.5, size_flits=4)
        assert net.stats.packets_delivered == net.stats.packets_injected

    def test_torus_escape_drains_under_pressure(self):
        config = FabricConfig(topology="torus", ports=16, flow_control="vc",
                              vc_policy="escape", n_vcs=4)
        net = _run_uniform(config, load=0.5, size_flits=4)
        assert net.stats.packets_delivered == net.stats.packets_injected

    def test_adaptive_routes_spread_over_productive_ports(self):
        # Under cross-traffic contention the allocator must use more
        # than one productive port for the same (router, destination) —
        # the observable difference from dimension-ordered routing,
        # where the output is a function of (router, destination) alone.
        config = FabricConfig(topology="mesh", ports=16, flow_control="vc",
                              n_vcs=3)
        net = config.build()
        outputs: dict[tuple[str, int], set[int]] = {}
        net.kernel.subscribe(
            "vc_allocated",
            lambda tick, data: outputs.setdefault(
                (data["router"], data["flit"].dest), set()
            ).add(data["output"]))
        gen = UniformRandom(16, 0.5, size_flits=4)
        schedule = gen.generate(60, np.random.default_rng(3))
        by_cycle = {}
        for injection in schedule:
            by_cycle.setdefault(injection.cycle, []).append(injection)
        for cycle in range(60):
            for injection in by_cycle.get(cycle, []):
                net.send(injection.to_packet())
            net.run_ticks(2)
        assert net.drain(500_000)
        spread = [key for key, ports in outputs.items()
                  if len(ports - {LOCAL}) >= 2]
        assert spread, "no (router, dest) ever used two productive ports"

    def test_escape_stack_saturates_later_than_wormhole_xy(self):
        """The paper-style flow-control comparison on a corner hotspot:
        the escape-VC stack (adaptive routing plus 4 per-VC FIFOs per
        port) against the plain wormhole deterministic-XY default, same
        per-FIFO depth. The hotspot fraction is low enough that the
        corner's ejection port stays under its cap, so the knee is set
        by the congested fabric around it — the regime where the stack
        wins (0.35 against 0.30); higher fractions are ejection-bound
        and stack-invariant."""
        def knee(**flow):
            config = FabricConfig(topology="mesh", ports=16, **flow)
            corner = LoadPoint(load=0.30, network=config, pattern="hotspot",
                               hotspots=(0,), hotspot_fraction=0.15,
                               size_flits=2, cycles=300, seed=11)
            return parallel_saturation_throughput(corner,
                                                  loads=(0.30, 0.35))
        assert knee(flow_control="vc", n_vcs=4) > knee()


class TestVcEvents:
    @staticmethod
    def _observed_run(activity_driven):
        config = FabricConfig(topology="torus", ports=16,
                              flow_control="vc",
                              activity_driven=activity_driven)
        net = config.build()
        events = {"vc_allocated": [], "lock_acquire": [], "lock_release": []}
        for name, log in events.items():
            net.kernel.subscribe(
                name,
                lambda tick, data, log=log: log.append(
                    (tick, data["router"], data["output"], data["vc"])))
        for wave in range(4):
            net.send(Packet(src=0, dest=5, payload=[wave, wave]))
            net.send(Packet(src=3, dest=5, payload=[wave, wave]))
        assert net.drain(100_000)
        net.run_ticks(1_000)
        return events, net

    def test_allocations_observed_and_counted(self):
        events, net = self._observed_run(True)
        assert events["vc_allocated"]
        total = sum(r.vcs_allocated for r in net.routers)
        assert len(events["vc_allocated"]) == total

    def test_multi_flit_locks_pair_up(self):
        events, _ = self._observed_run(True)
        # Two-flit packets: every acquisition has a matching release.
        assert len(events["lock_acquire"]) == len(events["lock_release"])
        assert events["lock_acquire"]

    def test_identical_in_both_kernel_modes(self):
        fast, _ = self._observed_run(True)
        naive, _ = self._observed_run(False)
        assert fast == naive

    def test_silent_without_subscribers(self):
        config = FabricConfig(topology="torus", ports=16, flow_control="vc")
        net = config.build()
        net.send(Packet(src=0, dest=5, payload=[1, 2]))
        assert net.drain(50_000)


class TestRegistryCapability:
    def test_tree_cannot_run_vcs(self):
        with pytest.raises(ConfigurationError, match="flow control"):
            FabricConfig(topology="tree", ports=16, flow_control="vc")

    def test_ctree_cannot_run_vcs(self):
        with pytest.raises(ConfigurationError, match="flow control"):
            FabricConfig(topology="ctree", ports=16, flow_control="vc")

    def test_ring_has_no_escape_policy(self):
        with pytest.raises(ConfigurationError, match="policy"):
            FabricConfig(topology="ring", ports=8, flow_control="vc",
                         vc_policy="escape")

    def test_vc_policy_requires_vc_flow_control(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="torus", ports=16, vc_policy="dateline")

    def test_n_vcs_requires_vc_flow_control(self):
        with pytest.raises(ConfigurationError, match="n_vcs"):
            FabricConfig(topology="torus", ports=16, n_vcs=8)

    def test_dateline_odd_vcs_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="even"):
            FabricConfig(topology="torus", ports=16, flow_control="vc",
                         n_vcs=3)

    def test_torus_escape_needs_three_vcs_at_config_time(self):
        with pytest.raises(ConfigurationError, match="escape"):
            FabricConfig(topology="torus", ports=16, flow_control="vc",
                         vc_policy="escape", n_vcs=2)

    def test_resolved_policy_defaults(self):
        assert FabricConfig(topology="torus", ports=16,
                            flow_control="vc").resolved_vc_policy \
            == "dateline"
        assert FabricConfig(topology="mesh", ports=16,
                            flow_control="vc").resolved_vc_policy == "escape"
        assert FabricConfig(topology="mesh",
                            ports=16).resolved_vc_policy is None

    def test_vc_config_is_picklable(self):
        config = FabricConfig(topology="torus", ports=16, flow_control="vc",
                              vc_policy="escape", n_vcs=4)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_buffer_capacity_scales_with_vcs(self):
        wormhole = FabricConfig(topology="torus", ports=16).build()
        vc = FabricConfig(topology="torus", ports=16, flow_control="vc",
                          n_vcs=2).build()
        assert vc.total_buffer_flits() == 2 * wormhole.total_buffer_flits()

    def test_describe_names_the_policy(self):
        net = FabricConfig(topology="torus", ports=16,
                           flow_control="vc").build()
        assert "dateline" in net.describe()
