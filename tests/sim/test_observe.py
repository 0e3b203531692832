"""The observability subsystem: dirty-signal probes, coalesced flushes,
scheduled timers, events, and instrumented-run equivalence."""

import pytest

from repro.noc.debug import DeadlockWatchdog, attach_monitors, attach_watchdog
from repro.noc.flit import Flit, FlitKind
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.pipeline import build_pipeline
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.sim.observe import Probe
from repro.sim.vcd import VCDWriter


def single_flits(n):
    return [Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=i, seq=0,
                 payload=i) for i in range(n)]


class Writer(ClockedComponent):
    """Writes a schedule of values to a signal at its edges."""

    def __init__(self, kernel, signal, schedule):
        super().__init__("writer", 0)
        self.signal = signal
        self.schedule = dict(schedule)
        kernel.add_component(self)

    def on_edge(self, tick):
        if tick in self.schedule:
            self.signal.set(self.schedule[tick], tick)


class TestSignalProbes:
    def test_probe_fires_on_change_with_old_and_new(self):
        kernel = SimKernel()
        sig = kernel.signal("s", initial=0)
        Writer(kernel, sig, {0: 1, 2: 1, 4: 7})  # tick 2 rewrites same value
        seen = []
        sig.attach_probe(lambda tick, s, old, new: seen.append(
            (tick, old, new)))
        kernel.run_ticks(8)
        assert seen == [(0, 0, 1), (4, 1, 7)]

    @pytest.mark.parametrize("activity_driven", [True, False])
    def test_probe_dispatch_identical_in_both_modes(self, activity_driven):
        kernel = SimKernel(activity_driven=activity_driven)
        sig = kernel.signal("s", initial=None)
        Writer(kernel, sig, {2: "a", 6: "b"})
        seen = []
        sig.attach_probe(lambda tick, s, old, new: seen.append((tick, new)))
        kernel.run_ticks(10)
        assert seen == [(2, "a"), (6, "b")]

    def test_probes_do_not_disable_fast_forward(self):
        kernel = SimKernel()
        sig = kernel.signal("s", initial=0)
        sig.attach_probe(lambda *args: None)
        kernel.run_ticks(1_000_000)
        assert kernel.tick == 1_000_000
        assert kernel.steps_executed == 0

    def test_detach_probe(self):
        kernel = SimKernel()
        sig = kernel.signal("s", initial=0)
        seen = []
        probe = lambda tick, s, old, new: seen.append(new)
        sig.attach_probe(probe)
        Writer(kernel, sig, {0: 1, 4: 2})
        kernel.run_ticks(2)
        sig.detach_probe(probe)
        kernel.run_ticks(6)
        assert seen == [1]


class Collector(Probe):
    """Test probe: records per-change and per-flush calls."""

    def __init__(self, kernel):
        super().__init__(kernel)
        self.changes = []
        self.flushes = []

    def on_change(self, tick, signal, old, new):
        self.changes.append((tick, signal.name, new))

    def flush(self, tick):
        self.flushes.append(tick)


class TestCoalescedFlush:
    def test_one_flush_per_tick_for_many_signals(self):
        kernel = SimKernel()
        a = kernel.signal("a", initial=0)
        b = kernel.signal("b", initial=0)

        class Both(ClockedComponent):
            def on_edge(self, tick):
                if tick == 2:
                    a.set(1, tick)
                    b.set(1, tick)

        kernel.add_component(Both("both", 0))
        probe = Collector(kernel)
        probe.observe(a, b)
        kernel.run_ticks(6)
        assert probe.changes == [(2, "a", 1), (2, "b", 1)]
        assert probe.flushes == [2]  # two changes, one flush


class TestTimers:
    def test_fires_at_exact_tick_across_fast_forward(self):
        kernel = SimKernel()
        fired = []
        kernel.call_at(123_456, fired.append)
        kernel.run_ticks(1_000_000)
        assert fired == [123_456]
        assert kernel.tick == 1_000_000
        # The quiescent window around the deadline was skipped, not run.
        assert kernel.steps_executed == 1

    def test_cancel(self):
        kernel = SimKernel()
        fired = []
        timer = kernel.call_at(10, fired.append)
        timer.cancel()
        kernel.run_ticks(100)
        assert fired == []
        assert kernel.tick == 100

    def test_past_deadline_fires_at_end_of_current_tick(self):
        kernel = SimKernel()
        kernel.run_ticks(10)
        fired = []
        kernel.call_at(3, fired.append)
        kernel.run_ticks(1)
        assert fired == [10]

    def test_timer_ordering_and_rescheduling(self):
        kernel = SimKernel()
        fired = []

        def chain(tick):
            fired.append(tick)
            if len(fired) < 3:
                kernel.call_at(tick + 5, chain)

        kernel.call_at(5, chain)
        kernel.run_ticks(100)
        assert fired == [5, 10, 15]

    @pytest.mark.parametrize("activity_driven", [True, False])
    def test_same_ticks_in_both_modes(self, activity_driven):
        kernel = SimKernel(activity_driven=activity_driven)
        fired = []
        kernel.call_at(7, fired.append)
        kernel.call_at(3, fired.append)
        kernel.run_ticks(20)
        assert fired == [3, 7]


class TestEvents:
    def test_subscribe_and_emit(self):
        kernel = SimKernel()
        seen = []
        kernel.subscribe("ping", lambda tick, data: seen.append((tick, data)))
        kernel.emit("ping", "x")
        kernel.emit("other", "y")
        assert seen == [(0, "x")]

    def test_subscribe_during_dispatch_takes_effect_at_the_next_emit(self):
        kernel = SimKernel()
        seen = []

        def late(tick, data):
            seen.append(("late", data))

        def first(tick, data):
            seen.append(("first", data))
            if data == 1:
                kernel.subscribe("ping", late)

        kernel.subscribe("ping", first)
        kernel.subscribe("ping", lambda tick, data: seen.append(
            ("second", data)))
        kernel.emit("ping", 1)
        assert seen == [("first", 1), ("second", 1)]
        seen.clear()
        kernel.emit("ping", 2)
        # Subscription order: the late callback runs last.
        assert seen == [("first", 2), ("second", 2), ("late", 2)]

    def test_an_event_without_listeners_has_no_entry(self):
        kernel = SimKernel()
        assert not kernel._event_subs
        kernel.subscribe("ping", lambda tick, data: None)
        assert set(kernel._event_subs) == {"ping"}
        assert isinstance(kernel._event_subs["ping"], tuple)

    def test_network_emits_inject_flit_and_packet(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        events = {"inject": 0, "flit": 0, "packet": 0}
        for name in events:
            def count(tick, data, name=name):
                events[name] += 1
            net.kernel.subscribe(name, count)
        net.send(Packet(src=0, dest=5, payload=[1, 2, 3]))
        assert net.drain(10_000)
        assert events["inject"] == 1
        assert events["packet"] == 1
        assert events["flit"] == 3  # one per payload flit

    def test_wake_and_sleep_events(self):
        kernel = SimKernel()
        src, _stages, _sink = build_pipeline(kernel, "p", stages=2)
        names = []
        kernel.subscribe("sleep", lambda tick, c: names.append(("s", c.name)))
        kernel.subscribe("wake", lambda tick, c: names.append(("w", c.name)))
        kernel.run_ticks(20)  # everything goes idle
        assert ("s", "p.src") in names
        names.clear()
        src.send(single_flits(1))
        assert ("w", "p.src") in names

    def test_flit_events_count_delivered_flits(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        flits = []
        net.kernel.subscribe("flit", lambda tick, flit: flits.append(flit))
        net.send(Packet(src=0, dest=5, payload=[1, 2]))
        assert net.drain(10_000)
        assert len(flits) == 2


def run_instrumented_pipeline(activity_driven, tmp_path, instrumented):
    """Bursty pipeline; optionally traced + monitored end to end."""
    kernel = SimKernel(activity_driven=activity_driven)
    src, stages, sink = build_pipeline(kernel, "p", stages=3)
    extras = {}
    writer = None
    if instrumented:
        signals = []
        for stage in stages:
            ch = stage.downstream
            signals += [ch.valid_signal, ch.data_signal, ch.accept_signal]
        vcd_path = tmp_path / f"trace_{activity_driven}.vcd"
        writer = VCDWriter(kernel, vcd_path, signals)
        valid = stages[0].downstream.valid_signal
        extras["trace"] = [(kernel.tick, valid.value)]
        valid.attach_probe(lambda tick, signal, old, new:
                           extras["trace"].append((tick, new)))
    for start, count in ((0, 4), (200, 2), (600, 5)):
        kernel.run_ticks(start - kernel.tick)
        src.send(single_flits(count))
    kernel.run_ticks(1_000 - kernel.tick)
    if writer is not None:
        writer.close()
        extras_out = {
            "vcd": (tmp_path / f"trace_{activity_driven}.vcd").read_text(),
            "trace": extras["trace"],
        }
    else:
        extras_out = {}
    return {
        "arrivals": sink.received,
        "payloads": [f.payload for f in sink.flits],
        "gating": [(s.gating.edges_total, s.gating.edges_enabled)
                   for s in stages],
        "tick": kernel.tick,
        **extras_out,
    }


class TestInstrumentedEquivalence:
    """The tentpole guarantee: instrumented activity-driven runs are
    bit-identical to the naive loop, and to uninstrumented runs."""

    def test_vcd_identical_between_modes_on_bursty_workload(self, tmp_path):
        fast = run_instrumented_pipeline(True, tmp_path, instrumented=True)
        naive = run_instrumented_pipeline(False, tmp_path, instrumented=True)
        assert fast["vcd"] == naive["vcd"]
        assert fast["trace"] == naive["trace"]
        assert {k: v for k, v in fast.items() if k != "vcd"} == \
               {k: v for k, v in naive.items() if k != "vcd"}

    def test_instrumentation_does_not_perturb_results(self, tmp_path):
        bare = run_instrumented_pipeline(True, tmp_path, instrumented=False)
        traced = run_instrumented_pipeline(True, tmp_path, instrumented=True)
        for key in ("arrivals", "payloads", "gating", "tick"):
            assert bare[key] == traced[key]

    def test_monitored_network_identical_and_fast_forwards(self):
        def run(activity_driven):
            net = ICNoCNetwork(FabricConfig(
                ports=16, arity=2, activity_driven=activity_driven))
            monitors = attach_monitors(net)
            attach_watchdog(net, patience_ticks=1_000)
            for src in range(8):
                net.send(Packet(src=src, dest=15 - src))
            net.run_ticks(20_000)  # long idle tail after delivery
            return {
                "delivered": net.stats.packets_delivered,
                "latencies": sorted(net.stats.latencies_cycles),
                "bursts": [m.accept_bursts for m in monitors],
                "violations": [m.violations for m in monitors],
                "steps": net.kernel.steps_executed,
                "tick": net.kernel.tick,
            }
        fast, naive = run(True), run(False)
        assert {k: v for k, v in fast.items() if k != "steps"} == \
               {k: v for k, v in naive.items() if k != "steps"}
        assert fast["delivered"] == 8
        # Monitors + watchdog attached, yet the idle tail fast-forwards:
        # the watchdog's periodic timeout is the only thing stepping.
        assert fast["steps"] < 2_000
        assert naive["steps"] == 20_000


class TestWatchdogTiming:
    def test_fires_at_exact_same_tick_in_both_modes(self):
        def firing_tick(activity_driven):
            kernel = SimKernel(activity_driven=activity_driven)
            watchdog = DeadlockWatchdog(kernel, progress=lambda: 0,
                                        pending=lambda: True,
                                        patience_ticks=137)
            try:
                kernel.run_ticks(10_000)
            except Exception:
                pass
            assert watchdog.fired
            return kernel.tick
        fast, naive = firing_tick(True), firing_tick(False)
        assert fast == naive
        # Deadline is exact even though the fast path skipped the window
        # (the raise propagates out of tick 137's own step).
        assert fast == 137

    def test_fires_across_fast_forward_in_oh_one_steps(self):
        kernel = SimKernel()
        from repro.errors import SimulationError
        DeadlockWatchdog(kernel, progress=lambda: 0,
                         pending=lambda: True, patience_ticks=5_000)
        with pytest.raises(SimulationError, match="no progress"):
            kernel.run_ticks(1_000_000)
        assert kernel.steps_executed == 1  # one step: the expiry tick

    def test_kick_postpones_the_deadline(self):
        kernel = SimKernel()
        watchdog = DeadlockWatchdog(kernel, progress=lambda: 0,
                                    pending=lambda: True, patience_ticks=50)
        kernel.run_ticks(40)
        watchdog.kick()
        kernel.run_ticks(49)  # old deadline (50) passes harmlessly
        assert not watchdog.fired
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            kernel.run_ticks(10)  # new deadline: 40 + 50
        assert kernel.tick == 90
