"""The seven workloads: what runs, at which size, and what it must produce.

Each workload drives one public entry point of ``repro`` and splits into
``prepare`` (set-up: validate, build, generate), ``run`` (the timed
region: exactly the public call a user would make) and ``measure``
(untimed: read the simulated results back for the metrics and the
correctness digest). All of them are closed, deterministic batch jobs — a
fixed injection schedule or trace derived from the seed, run to drain —
so the rates reported are work completed per host second at the size
stated in ``SIZES``. The program only ever sees the generated inputs.

``repro`` is imported inside the functions: the child process times that
import as part of set-up, and the parent never needs it.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from bench.tracing import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The sweep's fan-out: the target box has two cores, never use more.
SWEEP_WORKERS = 2
SWEEP_LOADS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
#: What each of the two hotspots is offered: hotspot_fraction=0.1 of
#: load 0.2 on 64 ports, as torus_vc_pipelined is specified.
HOTSPOT_FLITS_PER_CYCLE = 0.64

#: What is scaled to fit the time budget — only ``cycles`` / ``storms`` /
#: ``layers``, never ports, topology or flow control. ``smoke`` sizes
#: exist so the harness can be tested in seconds; their numbers mean
#: nothing.
SIZES = {
    "mesh_wormhole_loaded": {"full": {"ports": 64, "cycles": 800},
                             "smoke": {"ports": 16, "cycles": 40}},
    "torus_vc_pipelined": {"full": {"ports": 64, "cycles": 550},
                           "smoke": {"ports": 16, "cycles": 40}},
    "torus_vc_array": {"full": {"ports": 1024, "cycles": 60},
                       "smoke": {"ports": 64, "cycles": 20},
                       # --verify: small enough for the dispatch backend.
                       "verify_array": {"ports": 256, "cycles": 60},
                       "verify_dispatch": {"ports": 256, "cycles": 60,
                                           "backend": "dispatch"}},
    "tree_bursty_idle": {"full": {"tiles": 32, "storms": 16},
                         "smoke": {"tiles": 8, "storms": 3}},
    "replay_llm_decode": {"full": {"layers": 4, "d_model": 128},
                          "smoke": {"layers": 1, "d_model": 64}},
    "sweep_campaign": {"full": {"ports": 64, "cycles": 60},
                       "smoke": {"ports": 16, "cycles": 20}},
    "mesh_wormhole_observed": {"full": {"ports": 64, "cycles": 800},
                               "smoke": {"ports": 16, "cycles": 40}},
}


@dataclass
class Outcome:
    """What one repetition simulated, read back after the timed region."""

    #: Simulated cycles covered (``kernel.tick / 2``; for the sweep, whose
    #: kernels live in worker processes, the points' injection windows).
    sim_cycles: float
    #: Work completed, in the workload's own unit (``Workload.work_unit``).
    work: int
    #: Simulated cycles until the last delivery / drain / completion, and
    #: mean packet latency (0 = not defined for this workload).
    makespan_cycles: float
    mean_latency_cycles: float
    #: Operations attempted / not completed (packets, trace events, points).
    attempted: int
    failed: int
    #: Simulated statistics hashed into ``results_sha``.
    payload: Any
    #: Exact per-layer counts only the workload knows.
    counts: dict[str, float] = field(default_factory=dict)
    #: The network whose kernel did the work (None when it ran in workers).
    network: Any = None


def _network_outcome(net: Any, flits_per_packet: int, scheduled: int,
                     drained: bool, payload: dict[str, Any]) -> Outcome:
    """The outcome of a run on one network, from its public statistics."""
    stats = net.stats
    gating = net.gating_stats()
    payload.update(
        delivered=stats.packets_delivered,
        flits=stats.flits_delivered,
        latencies=stats.latencies_cycles,
        hops=stats.hop_counts,
        gating=[gating.edges_total, gating.edges_enabled],
        ticks=net.kernel.tick,
    )
    failed = scheduled - stats.packets_delivered
    return Outcome(
        sim_cycles=net.kernel.tick / 2,
        work=sum(stats.hop_counts) * flits_per_packet,
        makespan_cycles=net.kernel.tick / 2,
        mean_latency_cycles=stats.latency.mean,
        attempted=scheduled,
        failed=failed if drained else max(failed, 1),
        payload=payload,
        network=net,
    )


class Workload:
    """What the harness asks of a workload (see the module docstring)."""

    def extras(self, state, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics that take further calls into the layer
        (traced runs), and any cleaning up."""
        return {}


class LoadPointWorkload(Workload):
    """``evaluate_load_point`` on one synthetic-traffic spec."""

    work_unit = "flit-hops"

    def __init__(self, name: str, why: str, layers: tuple[str, ...],
                 network: dict[str, Any], point: dict[str, Any],
                 hotspot_at: float | None = None):
        self.name, self.why, self.layers = name, why, layers
        self._network, self._point = network, point
        self._hotspot_at = hotspot_at

    def spec(self, seed: int, size: dict[str, Any]):
        from repro.analysis.parallel import LoadPoint
        from repro.fabric.registry import FabricConfig
        ports = size["ports"]
        point = dict(self._point)
        if self._hotspot_at is not None:
            # Two hotspots, half a fabric apart, each offered the same
            # HOTSPOT_FLITS_PER_CYCLE at every fabric size: a fixed
            # fraction of a 1024-port fabric's traffic would bury two
            # sinks, and the run would measure their drain.
            point["hotspots"] = (0, int(ports * self._hotspot_at))
            point["hotspot_fraction"] = round(
                2 * HOTSPOT_FLITS_PER_CYCLE / (point["load"] * ports), 6)
        network = dict(self._network)
        if "backend" in size:
            network["backend"] = size["backend"]
        return LoadPoint(network=FabricConfig(ports=ports, **network),
                         cycles=size["cycles"], seed=seed, size_flits=4,
                         **point)

    def prepare(self, seed: int, size: dict[str, Any], tracer: Tracer):
        # The public call builds the network itself; instrument it there.
        tracer.instrument_on_build = True
        return self.spec(seed, size), tracer

    def run(self, state):
        from repro.analysis.parallel import evaluate_load_point
        spec, tracer = state
        result = evaluate_load_point(spec)
        if spec.telemetry:
            # What `repro sweep --telemetry` does next: serialise it.
            result["telemetry"] = tracer.call(
                "telemetry.summary", json.dumps,
                result["telemetry"].to_dict(), sort_keys=True)
        return result

    def measure(self, state, result, tracer: Tracer) -> Outcome:
        spec = state[0]
        net = tracer.networks[-1]
        scheduled = net.stats.packets_injected
        payload = {key: value for key, value in result.items()
                   if key != "traces"}
        counts = {"traffic.injections": scheduled}
        if spec.telemetry:
            payload["telemetry"] = json.loads(result["telemetry"])
            traces = [trace.to_dict() for trace in result["traces"]]
            for trace in traces:
                del trace["packet_id"]      # a process-wide counter
            payload["traces"] = traces
            counts["telemetry.summary_bytes"] = len(result["telemetry"])
            counts["telemetry.traces"] = len(traces)
        outcome = _network_outcome(net, spec.size_flits, scheduled,
                                   result["drained"] == 1.0, payload)
        outcome.counts = counts
        return outcome


class BurstyWorkload(Workload):
    """The demonstrator's storm/compute shape on the paper's own tree."""

    name = "tree_bursty_idle"
    work_unit = "flit-hops"
    why = ("handshake tree under DMA storms: most ticks are fast-forwarded,"
           " so the kernel's sleep/wake/timer path is what is measured")
    layers = ("sim", "noc", "system", "cli", "host")

    def prepare(self, seed: int, size: dict[str, int], tracer: Tracer):
        from repro.system.workloads import BurstyConfig, BurstySystem
        system = BurstySystem(BurstyConfig(
            tiles=size["tiles"], storms=size["storms"], storm_cycles=8,
            compute_cycles=400, packets_per_storm=2, seed=seed))
        if tracer.traced:
            tracer.instrument(system.network)
        return system

    def run(self, system):
        return system.run()

    def measure(self, system, stats, tracer: Tracer) -> Outcome:
        return _network_outcome(system.network, system.config.burst_flits,
                                system.packets_scheduled, system.drained,
                                {})


class ReplayWorkload(Workload):
    """A dependency-carrying accelerator trace replayed on a VC torus."""

    name = "replay_llm_decode"
    work_unit = "trace-events"
    why = ("dependency-carrying LLM decode trace: a barely loaded fabric "
           "that accel endpoints keep awake, so almost no tick is skipped")
    layers = ("sim", "fabric.router", "fabric.endpoint", "fabric.registry",
              "accel", "cli", "host")

    def prepare(self, seed: int, size: dict[str, int], tracer: Tracer):
        from repro.accel.generators import llm_decode_trace
        from repro.accel.replay import ReplaySystem
        from repro.fabric.registry import FabricConfig
        trace = tracer.call("accel.trace_gen", llm_decode_trace, pes=8,
                            mems=4, seed=seed, layers=size["layers"],
                            d_model=size["d_model"])
        system = tracer.call(
            "accel.build", ReplaySystem, trace,
            FabricConfig(topology="torus", ports=16, flow_control="vc",
                         n_vcs=2))
        if tracer.traced:
            tracer.instrument(system.network)
        return system

    def run(self, system):
        return system.run()

    def measure(self, system, results, tracer: Tracer) -> Outcome:
        events = len(system.trace.events)
        done = len(system.cp.completed)
        text = tracer.call("accel.results",
                           lambda: system.results().to_json())
        return Outcome(
            sim_cycles=system.network.kernel.tick / 2,
            work=done,
            makespan_cycles=results.makespan_cycles,
            mean_latency_cycles=system.network.stats.latency.mean,
            attempted=events,
            failed=events - done,
            payload=json.loads(text),
            counts={"accel.trace_events": events,
                    "accel.pe_stall_cycles": results.noc_stall_cycles},
            network=system.network,
        )


class SweepWorkload(Workload):
    """The verb users actually run: a checkpointed two-worker campaign."""

    name = "sweep_campaign"
    work_unit = "points"
    why = ("16 short load points over 2 workers with a checkpoint: spec "
           "pickling, pool spawn, merge and JSONL append are a visible "
           "share")
    # The serial reference pass runs in this process, so its per-point
    # build / generate / energy-report spans are visible too.
    layers = ("analysis", "fabric.registry", "traffic", "physical", "cli",
              "host")

    def prepare(self, seed: int, size: dict[str, int], tracer: Tracer):
        from repro.analysis.parallel import LoadPoint, expand_loads
        from repro.fabric.registry import FabricConfig
        uniform = LoadPoint(
            load=SWEEP_LOADS[0], size_flits=2, cycles=size["cycles"],
            network=FabricConfig(topology="torus", ports=size["ports"]))
        specs = (expand_loads(uniform, SWEEP_LOADS, base_seed=2 * seed)
                 + expand_loads(replace(uniform, pattern="transpose"),
                                SWEEP_LOADS, base_seed=2 * seed + 1))
        OUT_DIR.mkdir(exist_ok=True)
        checkpoint = OUT_DIR / f"checkpoint-{os.getpid()}.jsonl"
        # A leftover file under a reused pid would turn the campaign
        # into a resume.
        checkpoint.unlink(missing_ok=True)
        return specs, checkpoint

    def run(self, state):
        from repro.analysis.parallel import measure_load_points
        specs, checkpoint = state
        return measure_load_points(specs, workers=SWEEP_WORKERS,
                                   checkpoint=checkpoint)

    def measure(self, state, results, tracer: Tracer) -> Outcome:
        specs = state[0]
        drained = sum(1 for point in results if point["drained"] == 1.0)
        return Outcome(
            sim_cycles=sum(spec.cycles for spec in specs),
            work=drained,
            # One figure per point, not per campaign: see the payload.
            makespan_cycles=0,
            mean_latency_cycles=0,
            attempted=len(specs),
            failed=len(specs) - drained,
            payload=results,
        )

    def extras(self, state, tracer: Tracer) -> dict[str, float]:
        """The sweep engine's own costs, each measured by calling it
        again after the timed campaign (traced runs only)."""
        import repro.analysis.parallel as parallel
        specs, checkpoint = state
        if not tracer.traced:
            checkpoint.unlink(missing_ok=True)
            return {}
        clock = time.perf_counter
        try:
            start = clock()
            parallel.measure_load_points(specs, workers=SWEEP_WORKERS,
                                         checkpoint=checkpoint)
            resume_s = clock() - start
        finally:
            checkpoint.unlink(missing_ok=True)
        start = clock()
        parallel.measure_load_points(specs, workers=SWEEP_WORKERS)
        unchecked_s = clock() - start
        start = clock()
        parallel.parallel_map(abs, [1, 2], workers=SWEEP_WORKERS)
        spawn_s = clock() - start
        start = clock()
        for spec in specs:
            parallel.spec_hash(spec)
        hash_s = clock() - start
        # Serial pass, one span per point. The hook must be gone before
        # any parallel call: a wrapped function does not pickle, and
        # parallel_map would quietly fall back to serial.
        records = []
        tracer.hook(parallel, "evaluate_load_point_compact",
                    "analysis.point", after=records.append)
        start = clock()
        parallel.measure_load_points(specs, workers=1)
        serial_s = clock() - start
        point_s = sorted(span["end"] - span["start"] for span in tracer.spans
                         if span["name"] == "analysis.point")
        parallel_s = tracer.total("timed_call")
        return {
            "analysis.serial_s": serial_s,
            "analysis.parallel_s": parallel_s,
            "analysis.parallel_efficiency":
                serial_s / (SWEEP_WORKERS * parallel_s),
            "analysis.pool_spawn_s": spawn_s,
            "analysis.point_s_p50": statistics.median(point_s),
            "analysis.point_s_max": point_s[-1],
            "analysis.spec_pickle_bytes": len(pickle.dumps(specs)),
            "analysis.record_pickle_bytes": len(pickle.dumps(records)),
            "analysis.spec_hash_s": hash_s,
            "analysis.checkpoint_overhead_s": parallel_s - unchecked_s,
            "analysis.resume_s": resume_s,
        }


_CREDIT_FABRIC_LAYERS = ("sim", "fabric.router", "fabric.endpoint",
                         "fabric.registry", "traffic", "physical", "cli",
                         "host")
_MESH = {"topology": "mesh"}
_MESH_POINT = {"load": 0.3, "pattern": "uniform"}

WORKLOADS = {workload.name: workload for workload in (
    LoadPointWorkload(
        "mesh_wormhole_loaded",
        "loaded dispatch path, one VC: per-flit objects and "
        "FabricRouter.on_edge do the work, nothing is fast-forwarded",
        _CREDIT_FABRIC_LAYERS, _MESH, _MESH_POINT),
    LoadPointWorkload(
        "torus_vc_pipelined",
        "same router used differently: two-stage VC allocation under a "
        "hotspot, stage queues and 320 LinkStage components",
        _CREDIT_FABRIC_LAYERS + ("fabric.link",),
        {"topology": "torus", "flow_control": "vc", "n_vcs": 2,
         "pipeline_depth": 2, "segment_links": True, "chip_width_mm": 20,
         "chip_height_mm": 20},
        {"load": 0.2, "pattern": "hotspot"}, hotspot_at=36 / 64),
    LoadPointWorkload(
        "torus_vc_array",
        "1024-port VC torus on the array backend: ArrayEngine does the "
        "work, per-router dispatch does none",
        ("sim", "fabric.array", "fabric.endpoint", "fabric.registry",
         "traffic", "physical", "cli", "host"),
        {"topology": "torus", "flow_control": "vc", "n_vcs": 2,
         "backend": "array"},
        {"load": 0.15, "pattern": "hotspot"}, hotspot_at=528 / 1024),
    BurstyWorkload(),
    ReplayWorkload(),
    SweepWorkload(),
    LoadPointWorkload(
        "mesh_wormhole_observed",
        "mesh_wormhole_loaded with the metrics registry and a 1-in-16 "
        "flit tracer attached: the cost of probes on the same commit path",
        _CREDIT_FABRIC_LAYERS + ("telemetry",), _MESH,
        {**_MESH_POINT, "telemetry": True, "trace_sample_period": 16}),
)}

#: ``telemetry.overhead_ratio`` is the observed workload's untraced
#: ``wall_s`` over this workload's.
OBSERVED_BASE = {"mesh_wormhole_observed": "mesh_wormhole_loaded"}
