"""Router-level kernel events: arbitration grants, credit exhaustion.

Congestion diagnosis must be event-driven in both kernel modes: the
shared FabricRouter (and the tree's SwitchCore) emit
``arbitration_grant`` when an output grants an input and
``credit_exhausted`` when a waiting flit finds an output starved of
credits — with identical event sequences whether the kernel runs the
activity-driven fast path or the naive reference loop.
"""

import numpy as np
import pytest

from repro.fabric.link import CreditLink
from repro.fabric.registry import FabricConfig
from repro.fabric.router import FabricRouter
from repro.fabric.routing import EAST, LOCAL, WEST, XYRouting
from repro.noc.flit import Flit, FlitKind
from repro.noc.packet import Packet, next_packet_id
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.traffic.base import apply_traffic
from repro.traffic.patterns import UniformRandom


def flit_to(dest, src=0, packet_id=0):
    return Flit(kind=FlitKind.SINGLE, src=src, dest=dest,
                packet_id=packet_id, seq=0)


def contended_mesh(activity_driven):
    """Two sources race for one destination's local port."""
    net = FabricConfig(topology="mesh", ports=4,
                       activity_driven=activity_driven).build()
    grants = []
    starved = []
    net.kernel.subscribe(
        "arbitration_grant",
        lambda tick, data: grants.append(
            (tick, data["router"], data["output"], data["input"])))
    net.kernel.subscribe(
        "credit_exhausted",
        lambda tick, data: starved.append(
            (tick, data["router"], data["output"])))
    for wave in range(6):
        net.send(Packet(src=0, dest=3, payload=[wave]))
        net.send(Packet(src=1, dest=3, payload=[wave]))
    assert net.drain(50_000)
    net.run_ticks(2_000)
    return grants, starved, net


class TestArbitrationGrant:
    def test_grants_observed(self):
        grants, _, net = contended_mesh(True)
        assert grants, "contended traffic must produce grants"
        # Every forwarded flit corresponds to exactly one grant.
        total_forwarded = sum(r.flits_forwarded for r in net.routers)
        assert len(grants) == total_forwarded

    def test_identical_in_both_kernel_modes(self):
        fast, _, _ = contended_mesh(True)
        naive, _, _ = contended_mesh(False)
        assert fast == naive

    def test_tree_switch_emits_grants_too(self):
        net = FabricConfig(topology="tree", ports=4).build()
        grants = []
        net.kernel.subscribe(
            "arbitration_grant",
            lambda tick, data: grants.append((tick, data["router"])))
        net.send(Packet(src=0, dest=3))
        assert net.drain(10_000)
        assert grants
        assert any(".switch" in router for _, router in grants)

    def test_silent_without_subscribers(self):
        # No subscribers: the guard keeps the run identical and cheap.
        net = FabricConfig(topology="mesh", ports=4).build()
        net.send(Packet(src=0, dest=3))
        assert net.drain(10_000)


class TestLockEvents:
    """Wormhole lock acquisition/release events (ROADMAP open item):
    edge-triggered, mode-identical, emitted only for multi-flit packets
    (single-flit packets never hold the lock)."""

    @staticmethod
    def _locked_run(activity_driven, size_flits=3):
        net = FabricConfig(topology="mesh", ports=4,
                          activity_driven=activity_driven).build()
        acquires, releases = [], []
        net.kernel.subscribe(
            "lock_acquire",
            lambda tick, data: acquires.append(
                (tick, data["router"], data["output"], data["input"],
                 data["packet_id"])))
        net.kernel.subscribe(
            "lock_release",
            lambda tick, data: releases.append(
                (tick, data["router"], data["output"], data["input"],
                 data["packet_id"])))
        base = None
        for wave in range(4):
            for src in (0, 1):
                packet = Packet(src=src, dest=3,
                                payload=list(range(size_flits)))
                if base is None:
                    base = packet.packet_id  # global counter: normalise
                net.send(packet)
        assert net.drain(50_000)
        net.run_ticks(2_000)
        normalise = lambda events: [
            (tick, router, output, inp, packet_id - base)
            for tick, router, output, inp, packet_id in events
        ]
        return normalise(acquires), normalise(releases)

    def test_acquires_and_releases_pair_up(self):
        acquires, releases = self._locked_run(True)
        assert acquires and releases
        assert len(acquires) == len(releases)
        # Same (router, output, input, packet) on both ends of each hold.
        assert sorted(a[1:] for a in acquires) == \
            sorted(r[1:] for r in releases)
        # A release never precedes its acquisition.
        held = {}
        for tick, router, output, _, packet_id in acquires:
            held[(router, output, packet_id)] = tick
        for tick, router, output, _, packet_id in releases:
            assert held[(router, output, packet_id)] < tick

    def test_identical_in_both_kernel_modes(self):
        fast = self._locked_run(True)
        naive = self._locked_run(False)
        assert fast == naive

    def test_single_flit_packets_hold_no_lock(self):
        acquires, releases = self._locked_run(True, size_flits=1)
        assert acquires == []
        assert releases == []

    def test_tree_switch_emits_lock_events(self):
        net = FabricConfig(topology="tree", ports=4).build()
        acquires, releases = [], []
        net.kernel.subscribe(
            "lock_acquire",
            lambda tick, data: acquires.append(data["router"]))
        net.kernel.subscribe(
            "lock_release",
            lambda tick, data: releases.append(data["router"]))
        net.send(Packet(src=0, dest=3, payload=[1, 2, 3]))
        assert net.drain(10_000)
        assert any(".switch" in router for router in acquires)
        assert len(acquires) == len(releases)


class TestCreditExhausted:
    @staticmethod
    def _starved_router(activity_driven, waves=2):
        """A router whose EAST consumer returns no credits."""
        kernel = SimKernel(activity_driven=activity_driven)
        router = FabricRouter(kernel, "r", n_ports=5,
                              route=XYRouting(2, 1).for_node(0))
        links = {}
        for port in (LOCAL, EAST):
            in_link = CreditLink(kernel, f"in{port}")
            out_link = CreditLink(kernel, f"out{port}")
            router.connect(port, in_link, out_link)
            links[port] = (in_link, out_link)
        events = []
        kernel.subscribe(
            "credit_exhausted",
            lambda tick, data: events.append(
                (tick, data["router"], data["output"])))
        router.credits[EAST] = 1
        # First flit eats the only credit; the second starves.
        links[LOCAL][0].send_flit(flit_to(1, packet_id=0), 0, 0)
        kernel.run_ticks(8)
        links[LOCAL][0].send_flit(flit_to(1, packet_id=1), 0, kernel.tick)
        kernel.run_ticks(40)
        # Returning a credit clears starvation; the flit moves on.
        links[EAST][1].send_credits(0, 1, kernel.tick)
        kernel.run_ticks(8)
        return events, router, kernel, links

    def test_starvation_reported_once(self):
        events, router, _, _ = self._starved_router(True)
        assert [(r, out) for _, r, out in events] == [("r", EAST)]
        assert router.flits_forwarded == 2  # resumed after the return

    def test_identical_in_both_kernel_modes(self):
        fast, _, _, _ = self._starved_router(True)
        naive, _, _, _ = self._starved_router(False)
        assert fast == naive

    def test_restarvation_reports_again(self):
        events, router, kernel, links = self._starved_router(True)
        # Credits are dry again after the resume; a third flit re-enters
        # starvation and must produce a second event.
        links[LOCAL][0].send_flit(flit_to(1, packet_id=2), 0, kernel.tick)
        kernel.run_ticks(40)
        assert len(events) == 2

    def test_congestion_diagnosis_in_network(self):
        """An overdriven hotspot shows starvation somewhere in the mesh,
        identically in both modes."""
        def run(mode):
            _, starved, _ = contended_mesh(mode)
            return starved
        fast, naive = run(True), run(False)
        assert fast == naive


#: Every event a stock network emits.
ALL_EVENTS = ("arbitration_grant", "credit_exhausted", "lock_acquire",
              "lock_release", "vc_allocated", "flit", "packet", "inject",
              "wake", "sleep")

#: Builds covering every emitter: the FabricRouter edges (wormhole and
#: VC, one- and two-stage), FabricSink, the tree's SwitchCore and NI
#: sinks, and the array backend.
EMITTER_BUILDS = {
    "wormhole": dict(topology="mesh"),
    "wormhole-2stage": dict(topology="mesh", pipeline_depth=2),
    "vc": dict(topology="mesh", flow_control="vc", n_vcs=2),
    "vc-2stage": dict(topology="mesh", flow_control="vc", n_vcs=2,
                      pipeline_depth=2),
    "tree": dict(topology="tree"),
    "array": dict(topology="mesh", backend="array"),
    "array-vc": dict(topology="torus", flow_control="vc", n_vcs=2,
                     backend="array"),
}


def canonical(value, base, key=None):
    """An event payload with packet ids made relative to ``base`` (they
    come from a process-wide counter) and objects reduced to values,
    read at emission time."""
    if isinstance(value, dict):
        return {k: canonical(v, base, k) for k, v in value.items()}
    if isinstance(value, Flit):
        return ("flit", value.kind, value.src, value.dest,
                value.packet_id - base, value.seq, value.payload)
    if isinstance(value, Packet):
        return ("packet", value.src, value.dest, value.packet_id - base,
                value.inject_tick, value.eject_tick)
    if isinstance(value, ClockedComponent):
        return value.name
    return value - base if key == "packet_id" else value


def event_run(build, events):
    """A loaded, drained 16-port run with ``events`` subscribed: the
    ``(tick, event, canonical payload)`` sequence."""
    net = FabricConfig(ports=16, **EMITTER_BUILDS[build]).build()
    seen = []
    base = next_packet_id() + 1
    for name in events:
        net.kernel.subscribe(name, lambda tick, data, name=name: seen.append(
            (tick, name, canonical(data, base))))
    schedule = UniformRandom(16, 0.6, size_flits=4).generate(
        30, np.random.default_rng(3))
    apply_traffic(net, schedule, run_cycles=30, drain_ticks=100_000)
    assert len(net.delivered) == len(schedule)
    return seen


@pytest.mark.parametrize("build", EMITTER_BUILDS)
class TestPerEventEmission:
    """Each event is built only for its own listeners: subscribing one
    event alone sees exactly its share of an all-events run."""

    def test_one_event_alone_is_its_subsequence(self, build):
        everything = event_run(build, ALL_EVENTS)
        emitted = {name for _tick, name, _data in everything}
        assert {"arbitration_grant", "lock_acquire", "lock_release",
                "packet", "inject"} <= emitted
        if build != "tree":
            assert "credit_exhausted" in emitted
        for event in ALL_EVENTS:
            alone = event_run(build, (event,))
            assert alone == [item for item in everything
                             if item[1] == event], event

    def test_no_emit_for_an_event_without_a_listener(self, build,
                                                     monkeypatch):
        emitted = []
        emit = SimKernel.emit

        def spy(kernel, event, data=None):
            emitted.append(event)
            emit(kernel, event, data)

        monkeypatch.setattr(SimKernel, "emit", spy)
        event_run(build, ("inject", "packet"))
        assert emitted and set(emitted) == {"inject", "packet"}
