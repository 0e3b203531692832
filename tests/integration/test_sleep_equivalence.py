"""PR 2 sleep hooks: mesh routers, skid stages, and demonstrator tiles
must be bit-identical between the activity-driven and naive kernels, and
must actually let idle-heavy runs fast-forward."""

import numpy as np

from repro.ext.stall_buffer import build_skid_pipeline
from repro.fabric.registry import FabricConfig
from repro.noc.flit import Flit, FlitKind
from repro.noc.packet import Packet
from repro.sim.kernel import SimKernel
from repro.system.demonstrator import DemonstratorConfig, DemonstratorSystem
from repro.traffic.patterns import UniformRandom


def single_flits(n):
    return [Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=i, seq=0,
                 payload=i) for i in range(n)]


class TestMeshEquivalence:
    @staticmethod
    def _run(activity_driven):
        net = FabricConfig(topology="mesh", ports=16, rows=4,
                           activity_driven=activity_driven).build()
        gen = UniformRandom(16, 0.3)
        schedule = gen.generate(60, np.random.default_rng(3))
        by_cycle = {}
        for injection in schedule:
            by_cycle.setdefault(injection.cycle, []).append(injection)
        for cycle in range(60):
            for injection in by_cycle.get(cycle, []):
                net.send(injection.to_packet())
            net.run_ticks(2)
        assert net.drain(100_000)
        net.run_ticks(5_000)  # idle tail
        gating = net.gating_stats()
        return {
            "delivered": sorted((p.src, p.dest) for p in net.delivered),
            "latencies": sorted(net.stats.latencies_cycles),
            "gating": (gating.edges_total, gating.edges_enabled),
            "tick": net.kernel.tick,
            "steps": net.kernel.steps_executed,
        }

    def test_traffic_identical_and_idle_tail_skipped(self):
        fast, naive = self._run(True), self._run(False)
        assert {k: v for k, v in fast.items() if k != "steps"} == \
               {k: v for k, v in naive.items() if k != "steps"}
        # The idle tail (and every quiet cycle) was fast-forwarded.
        assert fast["steps"] < naive["steps"] / 5

    def test_reinjection_after_long_idle(self):
        net = FabricConfig(topology="mesh", ports=16, rows=4).build()
        net.send(Packet(src=0, dest=15))
        assert net.drain(10_000)
        net.run_ticks(100_000)  # everything asleep
        net.send(Packet(src=5, dest=10))
        assert net.drain(10_000)
        assert net.stats.packets_delivered == 2

    def test_mesh_gating_backfilled_while_asleep(self):
        """Sleeping routers still account their skipped clock edges."""
        net = FabricConfig(topology="mesh", ports=16, rows=4).build()
        net.send(Packet(src=0, dest=3))
        assert net.drain(10_000)
        net.run_ticks(10_000)
        gating = net.gating_stats()
        # Every router sees one edge per cycle (parity-0 ticks), idle or
        # not — skipped edges are backfilled into the statistics.
        assert gating.edges_total == 16 * ((net.kernel.tick + 1) // 2)


class TestSkidEquivalence:
    @staticmethod
    def _run(activity_driven):
        kernel = SimKernel(activity_driven=activity_driven)
        src, stages, sink = build_skid_pipeline(
            kernel, "sk", 5, ready=lambda t: not 60 <= t < 140)
        src.send(single_flits(40))
        kernel.run_ticks(3_000)
        return {
            "payloads": [f.payload for f in sink.flits],
            "arrivals": [t for t, _ in sink.received],
            "passed": [s.flits_passed for s in stages],
            "peak": [s.peak_occupancy for s in stages],
            "tick": kernel.tick,
            "steps": kernel.steps_executed,
        }

    def test_stalled_pipeline_identical_and_fast_forwards(self):
        fast, naive = self._run(True), self._run(False)
        assert {k: v for k, v in fast.items() if k != "steps"} == \
               {k: v for k, v in naive.items() if k != "steps"}
        assert fast["payloads"] == list(range(40))
        assert fast["steps"] < naive["steps"] / 5

    def test_late_send_wakes_drained_pipeline(self):
        kernel = SimKernel()
        src, _stages, sink = build_skid_pipeline(kernel, "sk", 3)
        src.send(single_flits(2))
        kernel.run_ticks(100_000)
        assert len(sink.flits) == 2
        src.send(single_flits(3))
        kernel.run_ticks(100)
        assert len(sink.flits) == 5


class TestDemonstratorEquivalence:
    @staticmethod
    def _run(activity_driven):
        system = DemonstratorSystem(DemonstratorConfig(
            tiles=8, seed=11, activity_driven=activity_driven))
        results = system.run(cycles=300)
        return results, system.kernel.steps_executed

    def test_closed_loop_identical(self):
        fast, fast_steps = self._run(True)
        naive, naive_steps = self._run(False)
        assert fast.requests_issued == naive.requests_issued
        assert fast.requests_completed == naive.requests_completed
        assert fast.local_latency.mean == naive.local_latency.mean
        assert fast.remote_latency.mean == naive.remote_latency.mean
        assert fast.gating_ratio == naive.gating_ratio
        assert fast.cycles_run == naive.cycles_run
        assert fast_steps <= naive_steps

    def test_drained_demonstrator_is_fully_quiescent(self):
        """After the drain the whole system — tiles included — sleeps,
        so an idle tail costs zero steps (the fast-forward the old
        host-loop driver could never reach)."""
        system = DemonstratorSystem(DemonstratorConfig(tiles=4, seed=3))
        results = system.run(cycles=200)
        assert results.requests_completed == results.requests_issued
        steps_after_run = system.kernel.steps_executed
        system.network.run_ticks(100_000)
        # A handful of settling edges after the final delivery (accept
        # deassertion, re-sleeping drivers), then 100k ticks for free.
        assert system.kernel.steps_executed <= steps_after_run + 8

    def test_drained_demonstrator_resumes_after_idle(self):
        """A second run() on the same system wakes everything back up."""
        system = DemonstratorSystem(DemonstratorConfig(tiles=4, seed=3))
        first = system.run(cycles=100)
        system.network.run_ticks(50_000)
        second = system.run(cycles=100)
        assert second.requests_issued > first.requests_issued
        assert second.requests_completed == second.requests_issued
