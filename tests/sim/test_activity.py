"""The activity-driven fast path: sleep/wake equivalence with the naive
kernel, firing-order independence, gating backfill, and the quiescent
fast-forward."""

import numpy as np
import pytest

from repro.noc.flit import Flit, FlitKind
from repro.noc.handshake import HandshakeChannel
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.pipeline import (
    PipelineStage,
    SinkStage,
    SourceStage,
    build_pipeline,
)
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.traffic.patterns import UniformRandom


def single_flits(n):
    return [Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=i, seq=0,
                 payload=i) for i in range(n)]


def pipeline_observables(kernel, src, stages, sink):
    return {
        "arrivals": sink.received,
        "payloads": [f.payload for f in sink.flits],
        "flits_sent": src.flits_sent,
        "flits_passed": [s.flits_passed for s in stages],
        "gating": [(s.gating.edges_total, s.gating.edges_enabled)
                   for s in stages],
        "tick": kernel.tick,
    }


def run_burst_pipeline(activity_driven, bursts=((0, 5), (120, 3), (300, 7)),
                       ticks=500):
    """A pipeline with idle gaps between bursts; returns all observables."""
    kernel = SimKernel(activity_driven=activity_driven)
    src, stages, sink = build_pipeline(kernel, "p", stages=4)
    by_tick = dict(bursts)
    sent = 0
    for tick in range(ticks):
        if tick in by_tick:
            count = by_tick[tick]
            src.send(single_flits(count)[:count])
            sent += count
        kernel.step()
    return pipeline_observables(kernel, src, stages, sink)


class TestSleepWakeEquivalence:
    """Fast-path results must be bit-identical to the naive loop."""

    def test_bursty_pipeline_identical(self):
        fast = run_burst_pipeline(True)
        naive = run_burst_pipeline(False)
        assert fast == naive

    def test_idle_pipeline_gating_backfilled(self):
        """Edges skipped while asleep still count as gated edges."""
        results = {}
        for mode in (True, False):
            kernel = SimKernel(activity_driven=mode)
            _src, stages, _sink = build_pipeline(kernel, "p", stages=4)
            kernel.run_ticks(100)
            results[mode] = [(s.gating.edges_total, s.gating.edges_enabled)
                             for s in stages]
        assert results[True] == results[False]
        # 100 ticks = 50 edges of each stage's parity, none enabled.
        for total, enabled in results[True]:
            assert total == 50
            assert enabled == 0

    def test_network_traffic_identical(self):
        """Same schedule through fast and naive 16-leaf trees: identical
        deliveries, latencies, and clock-gating counts."""
        def run(activity_driven):
            net = ICNoCNetwork(FabricConfig(
                ports=16, arity=2, activity_driven=activity_driven))
            gen = UniformRandom(16, 0.2)
            schedule = gen.generate(80, np.random.default_rng(7))
            for injection in schedule:
                net.send(injection.to_packet())
            assert net.drain(max_ticks=100_000)
            gating = net.gating_stats()
            return {
                # packet_id is a process-global counter; compare routes.
                "delivered": sorted((p.src, p.dest) for p in net.delivered),
                "latencies": sorted(net.stats.latencies_cycles),
                "gating": (gating.edges_total, gating.edges_enabled),
                "tick": net.kernel.tick,
            }
        assert run(True) == run(False)


class TestOrderIndependence:
    """Component firing order (= registration order) must not matter."""

    @staticmethod
    def _build(kernel, reverse):
        chans = [HandshakeChannel(kernel, f"ch{i}") for i in range(3)]
        parts = [
            lambda: SourceStage(kernel, "src", 0, chans[0]),
            lambda: PipelineStage(kernel, "s0", 1, chans[0], chans[1]),
            lambda: PipelineStage(kernel, "s1", 0, chans[1], chans[2]),
            lambda: SinkStage(kernel, "sink", 1, chans[2]),
        ]
        if reverse:
            parts.reverse()
        built = [make() for make in parts]
        if reverse:
            built.reverse()
        return built  # src, s0, s1, sink

    @pytest.mark.parametrize("activity_driven", [True, False])
    def test_reversed_registration_same_results(self, activity_driven):
        results = []
        for reverse in (False, True):
            kernel = SimKernel(activity_driven=activity_driven)
            src, s0, s1, sink = self._build(kernel, reverse)
            src.send(single_flits(9))
            kernel.run_ticks(80)
            results.append({
                "arrivals": sink.received,
                "gating": [(s.gating.edges_total, s.gating.edges_enabled)
                           for s in (s0, s1)],
            })
        assert results[0] == results[1]


class TestWake:
    def test_submit_wakes_sleeping_source(self):
        """A drained pipeline sleeps; send() must restart it."""
        kernel = SimKernel()
        src, _stages, sink = build_pipeline(kernel, "p", stages=2)
        src.send(single_flits(1))
        kernel.run_ticks(60)
        assert len(sink.flits) == 1
        src.send(single_flits(2))
        kernel.run_ticks(60)
        assert len(sink.flits) == 3

    def test_network_reinjection_after_idle(self):
        """An idle network must accept and deliver late traffic."""
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        net.send(Packet(src=0, dest=5))
        assert net.drain(max_ticks=10_000)
        net.run_ticks(5_000)  # long quiet tail, everything asleep
        net.send(Packet(src=3, dest=12))
        assert net.drain(max_ticks=10_000)
        assert net.stats.packets_delivered == 2

    def test_spurious_wake_is_harmless(self):
        """Waking a component whose inputs are unchanged is a no-op."""
        kernel = SimKernel()
        src, stages, sink = build_pipeline(kernel, "p", stages=2)
        src.send(single_flits(3))
        kernel.run_ticks(50)
        before = [f.payload for f in sink.flits]
        for stage in stages:
            stage.wake()
        kernel.run_ticks(50)
        assert [f.payload for f in sink.flits] == before

    def test_wake_on_awake_component_is_noop(self):
        kernel = SimKernel()

        class Counter(ClockedComponent):
            def __init__(self):
                super().__init__("c", 0)
                self.fires = 0
                kernel.add_component(self)

            def on_edge(self, tick):
                self.fires += 1

        comp = Counter()
        comp.wake()
        comp.wake()
        kernel.run_ticks(10)
        assert comp.fires == 5


class TestMidStepWake:
    """Regression: a component woken during its parity's step must fire
    this very tick iff its registration slot has not been passed — the
    off-by-one (`pos <= cursor`) used to skip the pos == cursor case."""

    class Sleeper(ClockedComponent):
        def __init__(self, kernel, name, parity=0):
            super().__init__(name, parity)
            self.fired_at = []
            kernel.add_component(self)

        def on_edge(self, tick):
            self.fired_at.append(tick)
            self.sleep_until()

    class WakerOf(ClockedComponent):
        def __init__(self, kernel, name, parity=0):
            super().__init__(name, parity)
            self.target = None
            self.wake_at = None
            kernel.add_component(self)

        def on_edge(self, tick):
            if tick == self.wake_at:
                self.target.wake()

    def test_wake_of_later_registered_component_fires_same_tick(self):
        kernel = SimKernel()
        waker = self.WakerOf(kernel, "a")
        sleeper = self.Sleeper(kernel, "b")  # registered after the waker
        waker.target, waker.wake_at = sleeper, 4
        kernel.run_ticks(8)
        # Slept after tick 0; woken mid-step at tick 4 with its slot
        # still ahead — the naive loop fires it at tick 4, so must we.
        assert sleeper.fired_at == [0, 4]

    def test_wake_of_earlier_registered_component_fires_next_tick(self):
        kernel = SimKernel()
        sleeper = self.Sleeper(kernel, "a")  # registered before the waker
        waker = self.WakerOf(kernel, "b")
        waker.target, waker.wake_at = sleeper, 4
        kernel.run_ticks(8)
        # Its slot was already passed at tick 4: next matching tick is 6.
        assert sleeper.fired_at == [0, 6]

    def test_delivery_triggered_sends_identical_to_naive(self):
        """The production shape of mid-step wakes: a delivery hook
        submits a response packet while the kernel is mid-tick."""
        def run(activity_driven):
            net = ICNoCNetwork(FabricConfig(
                ports=16, arity=2, activity_driven=activity_driven))
            for dest in range(1, 5):
                def respond(packet, tick, dest=dest):
                    net.send(Packet(src=dest, dest=0))
                net.set_handler(dest, respond)
                net.send(Packet(src=0, dest=dest))
            assert net.drain(max_ticks=100_000)
            return {
                "delivered": net.stats.packets_delivered,
                "latencies": sorted(net.stats.latencies_cycles),
                "tick": net.kernel.tick,
            }
        fast, naive = run(True), run(False)
        assert fast == naive
        assert fast["delivered"] == 8  # 4 requests + 4 responses


class TestFaultedStageStaysAwake:
    """Regression: before from_tick the healthy edge put the stage back
    to sleep, so the fault never manifested and fast-path results
    diverged from the naive loop."""

    def test_stuck_stall_on_sleeping_stage_matches_naive(self):
        from repro.noc.faults import FaultInjector, FaultKind

        def run(activity_driven):
            kernel = SimKernel(activity_driven=activity_driven)
            src, stages, sink = build_pipeline(
                kernel, "p", stages=3, ready=lambda t: t >= 40)
            src.send(single_flits(1))
            injector = FaultInjector(stages[-1], FaultKind.STUCK_STALL,
                                     from_tick=20)
            kernel.run_ticks(100)
            return len(sink.flits), injector.activations
        fast, naive = run(True), run(False)
        assert fast == naive
        assert fast[0] == 0  # the stuck stage never releases the flit

    def test_corrupt_dest_activations_match_naive(self):
        """CORRUPT_DEST delegates to the healthy edge, which sleeps on
        idle; the faulted stage must fire every edge regardless."""
        from repro.noc.faults import FaultInjector, FaultKind

        def run(activity_driven):
            kernel = SimKernel(activity_driven=activity_driven)
            src, stages, sink = build_pipeline(kernel, "p", stages=3)
            src.send(single_flits(1))
            injector = FaultInjector(stages[0], FaultKind.CORRUPT_DEST,
                                     from_tick=0, corrupt_dest_to=3)
            kernel.run_ticks(200)
            return (len(sink.flits), injector.activations,
                    [f.dest for f in sink.flits])
        fast, naive = run(True), run(False)
        assert fast == naive
        assert fast[2] == [3]  # destination rewritten by the fault


class TestQuiescentFastForward:
    def test_empty_kernel_ticks_advance(self):
        kernel = SimKernel()
        kernel.run_ticks(1_000_000)
        assert kernel.tick == 1_000_000
        assert kernel.cycles == 500_000.0

    def test_sleeping_kernel_keeps_time_and_wakes_correctly(self):
        kernel = SimKernel()
        src, _stages, sink = build_pipeline(kernel, "p", stages=2)
        src.send(single_flits(1))
        kernel.run_ticks(100)
        kernel.run_ticks(1_000_000)  # fully asleep: O(1)
        assert kernel.tick == 1_000_100
        src.send(single_flits(1))
        kernel.run_ticks(100)
        assert len(sink.flits) == 2
        # Gating backfill must account the fast-forwarded window too.
        for stage in _stages:
            assert stage.gating.edges_total == kernel.tick // 2

    def test_tick_callbacks_disable_fast_forward(self):
        # A timer due on every tick: the quiescent kernel may not jump
        # over any of them.
        kernel = SimKernel()
        seen = []
        for tick in range(10):
            kernel.call_at(tick, seen.append)
        kernel.run_ticks(10)
        assert seen == list(range(10))
        assert kernel.steps_executed == 10
