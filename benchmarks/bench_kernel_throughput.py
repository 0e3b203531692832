"""BENCH-KERNEL — activity-driven fast path vs the naive tick loop.

The microbench behind the kernel's performance contract, in three parts:

* **bare** — an idle-heavy 64-leaf tree (a short packet burst followed by
  a long quiet tail, the common shape of system workloads) run on the
  activity-driven kernel and on the naive fire-everything loop;
* **instrumented** — the same workload with a VCD trace, protocol
  monitors on every router channel, and a deadlock watchdog attached.
  Since PR 2 the instrumentation is event-driven (dirty-signal probes +
  scheduled timeouts), so the fast path survives being observed: the
  instrumented speedup must also be ≥ 2x, with byte-identical traces;
* **mesh** — the same burst/tail shape on an 8x8 mesh, exercising the
  mesh sleep hooks (routers, sources, sinks);
* **bursty** — the demonstrator-style compute-phase/DMA-storm workload
  (``repro.system.workloads.BurstySystem``): tiles replay synchronized
  DMA storms separated by long quiet compute phases, driven by clocked
  components with exact-tick wake timers — the realistic system trace
  the fast path exists for.
* **pipelined** — the burst/tail shape on a 4x4 wormhole torus with
  2-stage routers and segmented wrap links (20 mm die, 1.25 mm
  segments), exercising the router stage queue's never-sleep-with-
  in-flight-flits rule and the link stages' sleep hooks; the same
  ≥ 2x activity-driven gate.
* **vc** — a 4x4 torus under dateline virtual channels
  (``flow_control="vc"``) absorbing a hotspot burst, exercising the
  two-stage VC/switch allocator's sleep contract; the same burst/tail
  shape and the same ≥ 2x gate. The scenario also runs the paper-style
  flow-control comparison: the escape-VC stack (minimal-adaptive
  routing over 4 VCs plus its per-VC buffering) vs the plain wormhole
  deterministic-XY baseline on a corner-hotspot mesh, same per-FIFO
  depth — the VC stack must reach a strictly higher saturation knee.
  (The gain is the stack's, not adaptivity's alone: at a matched total
  buffer budget the corner hotspot is ejection-bound and the two
  routings tie, which is why the comparison pins both configs.)
* **traced** — the VC hotspot burst with the full telemetry stack
  attached (``repro.telemetry``: metrics registry on every link and
  router plus a 1-in-16 flit tracer). Both ride probes and events
  only, so the gate is threefold: the ≥ 2x instrumented speedup
  survives, the serialized metrics/trace JSON is byte-identical
  between kernel modes, and the observed workload itself is
  unperturbed (identical to the bare ``vc`` scenario).
* **array_bursty** — the vectorized execution backend
  (``backend="array"``, ``repro.fabric.array_backend``) against
  per-component dispatch on the workload dispatch is *worst* at: a
  32x32 wormhole torus replaying saturating DMA storms (every node
  injects multi-flit packets) separated by quiet drain phases. The
  busy fabric is where Python dispatch and per-signal commits are the
  wall; the array backend must be bit-identical and ≥ 5x faster.
* **array_vc** — the same backend comparison on a 32x32 dateline-VC
  torus under sustained hotspot traffic (a fraction of every storm
  converges on two hot nodes, the rest is uniform random), exercising
  the vectorized two-stage VC/switch allocator; same bit-identity,
  ≥ 3x gate.

Each variant must be bit-identical between the two modes: same
deliveries, same latencies, same clock-gating edge counts, same traces.

``BENCH_kernel.json`` is an append-only per-PR history (entries keyed by
git SHA and date); the test also compares the measured speedups against
the latest recorded entry with a regression tolerance, so a fast-path
regression fails even while it still clears the 2x floor. Run as a
script to append the current measurement:

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py

or with ``--profile SCENARIO`` to print the cProfile top-20 (cumulative)
for one scenario instead — the starting point for hot-loop work.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.sweeps import (
    measure_offered_vs_accepted,
    scan_saturation_curve,
)
from repro.fabric.registry import FabricConfig
from repro.noc.debug import attach_monitors, attach_watchdog
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.sim.probes import SignalTrace, ThroughputMeter
from repro.sim.vcd import VCDWriter
from repro.system.workloads import BurstyConfig, BurstySystem
from repro.traffic.patterns import HotspotTraffic

LEAVES = 64
TICKS = 6_000
BURST_PACKETS = 8
MESH_TICKS = 6_000
VC_TICKS = 6_000
BURSTY_CONFIG = BurstyConfig(tiles=16, storms=3, storm_cycles=8,
                             compute_cycles=400, packets_per_storm=2)
#: The corner-hotspot flow-control comparison: the fraction is low
#: enough that the hotspot's ejection port stays under its cap, so the
#: knee is set by the congested fabric around the corner — the regime
#: where the VC stack (adaptive spreading + per-VC buffers) beats plain
#: wormhole (higher fractions are ejection-bound and stack-invariant).
VC_SAT_PORTS = 16
VC_SAT_FRACTION = 0.15
VC_SAT_LOADS = (0.30, 0.35)
VC_SAT_CYCLES = 300
VC_SAT_SEED = 11
#: The array-backend scenarios: a 32x32 torus large enough that the
#: busy-fabric inner loops, not the scaffolding, dominate both sides.
ARRAY_PORTS = 1024
ARRAY_STORMS = 2
ARRAY_BURSTY_REPS = 3
ARRAY_BURSTY_SEED = 3
ARRAY_VC_REPS = 4
ARRAY_VC_SEED = 9
#: Every ``ARRAY_HOTSPOT_STRIDE``-th source sends its storm packet to
#: one of the hot nodes instead of its uniform-random destination.
ARRAY_HOTSPOTS = (0, 527)
ARRAY_HOTSPOT_STRIDE = 8
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: The measured speedup may not fall below this fraction of the latest
#: recorded entry's (ratios are machine-portable where raw ticks/s are
#: not; the floor stays generous because CI boxes are noisy).
REGRESSION_FACTOR = 0.3


def run_workload(activity_driven: bool, instrumented: bool = False,
                 ticks: int = TICKS) -> dict:
    """One idle-heavy run; returns wall time and observable results."""
    net = ICNoCNetwork(FabricConfig(ports=LEAVES, arity=2,
                                     activity_driven=activity_driven))
    writer = None
    trace = None
    meter = None
    monitors = ()
    vcd_path = None
    if instrumented:
        monitors = attach_monitors(net)
        attach_watchdog(net, patience_ticks=2_000)
        root = net.routers[0]
        signals = []
        for channel in root.in_channels + root.out_channels:
            signals += [channel.valid_signal, channel.data_signal,
                        channel.accept_signal]
        fd, name = tempfile.mkstemp(suffix=".vcd")
        os.close(fd)  # VCDWriter opens the path itself
        vcd_path = Path(name)
        writer = VCDWriter(net.kernel, vcd_path, signals)
        trace = SignalTrace(net.kernel, root.out_channels[1].valid_signal)
        meter = ThroughputMeter(net.kernel, event="flit")
    for dest in range(1, BURST_PACKETS + 1):
        net.send(Packet(src=0, dest=dest))
    start = time.perf_counter()
    net.run_ticks(ticks)
    elapsed = time.perf_counter() - start
    gating = net.gating_stats()
    results = {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": net.stats.packets_delivered,
        "latencies": list(net.stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": net.kernel.steps_executed,
    }
    if instrumented:
        writer.close()
        results["vcd"] = vcd_path.read_text()
        vcd_path.unlink()
        results["trace"] = list(trace.samples)
        results["accept_bursts"] = [m.accept_bursts for m in monitors]
        results["flits_metered"] = meter.events
    return results


def run_mesh_workload(activity_driven: bool, ticks: int = MESH_TICKS) -> dict:
    """The same burst-then-idle shape on an 8x8 mesh."""
    net = FabricConfig(topology="mesh", ports=64,
                       activity_driven=activity_driven).build()
    for dest in range(1, BURST_PACKETS + 1):
        net.send(Packet(src=0, dest=dest))
    start = time.perf_counter()
    net.run_ticks(ticks)
    elapsed = time.perf_counter() - start
    gating = net.gating_stats()
    return {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": net.stats.packets_delivered,
        "latencies": list(net.stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": net.kernel.steps_executed,
    }


def run_bursty_workload(activity_driven: bool) -> dict:
    """The compute-phase/DMA-storm system trace (storms + quiet phases)."""
    system = BurstySystem(dataclasses.replace(
        BURSTY_CONFIG, activity_driven=activity_driven))
    ticks = 2 * system.config.total_cycles
    start = time.perf_counter()
    stats = system.run()
    elapsed = time.perf_counter() - start
    gating = system.network.gating_stats()
    return {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": stats.packets_delivered,
        "scheduled": system.packets_scheduled,
        "latencies": list(stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": system.kernel.steps_executed,
    }


def run_pipelined_workload(activity_driven: bool,
                           ticks: int = VC_TICKS) -> dict:
    """The burst/tail shape on a pipelined, segmented 4x4 torus.

    Two-stage routers keep flits parked in the stage queue between the
    grant edge and the traversal edge; the 20 mm die makes the torus
    wrap links long enough to pick up several 1.25 mm link stages. Both
    add clocked state the sleep contract must not lose — the gate
    checks the fast path stays bit-identical *and* ≥ 2x."""
    net = FabricConfig(topology="torus", ports=16,
                       chip_width_mm=20.0, chip_height_mm=20.0,
                       pipeline_depth=2, segment_links=True,
                       activity_driven=activity_driven).build()
    scheduled = 0
    for src in range(1, BURST_PACKETS + 1):
        net.send(Packet(src=src, dest=0, payload=list(range(3))))
        net.send(Packet(src=src, dest=(src + 8) % 16))
        scheduled += 2
    start = time.perf_counter()
    net.run_ticks(ticks)
    elapsed = time.perf_counter() - start
    gating = net.gating_stats()
    return {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": net.stats.packets_delivered,
        "scheduled": scheduled,
        "latencies": list(net.stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": net.kernel.steps_executed,
    }


def run_vc_workload(activity_driven: bool, ticks: int = VC_TICKS) -> dict:
    """A hotspot burst on a 4x4 dateline-VC torus, then a long idle tail.

    Multi-flit packets (longer than ``buffer_depth - 1``, which bubble
    flow control would reject) converge on one node, exercising VC
    allocation, per-VC locks, and per-VC credit wires before the fabric
    goes quiet — the sleep contract the ≥ 2x gate protects.
    """
    net = FabricConfig(topology="torus", ports=16, flow_control="vc",
                       activity_driven=activity_driven).build()
    scheduled = 0
    for src in range(1, BURST_PACKETS + 1):
        net.send(Packet(src=src, dest=0, payload=list(range(6))))
        net.send(Packet(src=src, dest=(src + 8) % 16,
                        payload=list(range(4))))
        scheduled += 2
    start = time.perf_counter()
    net.run_ticks(ticks)
    elapsed = time.perf_counter() - start
    gating = net.gating_stats()
    return {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": net.stats.packets_delivered,
        "scheduled": scheduled,
        "latencies": list(net.stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": net.kernel.steps_executed,
    }


def run_traced_workload(activity_driven: bool, ticks: int = VC_TICKS) -> dict:
    """The VC hotspot burst with the telemetry stack attached.

    Metrics registry on every link/router plus a 1-in-16 flit tracer —
    both populated from probes and events only, so the instrumented
    fast path must keep the ≥ 2x gate and the serialized summary and
    traces must be byte-identical between kernel modes.
    """
    from repro.telemetry import attach_metrics, attach_tracer
    net = FabricConfig(topology="torus", ports=16, flow_control="vc",
                       activity_driven=activity_driven).build()
    registry = attach_metrics(net)
    tracer = attach_tracer(net, sample_period=16)
    scheduled = 0
    for src in range(1, BURST_PACKETS + 1):
        net.send(Packet(src=src, dest=0, payload=list(range(6))))
        net.send(Packet(src=src, dest=(src + 8) % 16,
                        payload=list(range(4))))
        scheduled += 2
    start = time.perf_counter()
    net.run_ticks(ticks)
    elapsed = time.perf_counter() - start
    gating = net.gating_stats()
    return {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": net.stats.packets_delivered,
        "scheduled": scheduled,
        "latencies": list(net.stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": net.kernel.steps_executed,
        "metrics_json": json.dumps(registry.summary().to_dict(),
                                   sort_keys=True),
        "traces_json": json.dumps([t.to_dict() for t in tracer.traces],
                                  sort_keys=True),
    }


def _array_storm_run(net, schedule_storm) -> dict:
    """Replay saturating storms separated by drained quiet phases.

    ``schedule_storm(net, storm)`` submits one storm's packets; the
    run then drains the fabric and idles 2000 ticks before the next
    storm. Wall time covers the whole replay, so the ticks/s figure
    reflects the busy fabric the array backend exists for."""
    scheduled = 0
    start = time.perf_counter()
    for storm in range(ARRAY_STORMS):
        scheduled += schedule_storm(net, storm)
        if not net.drain(2_000_000):
            raise RuntimeError("array scenario failed to drain")
        net.run_ticks(2_000)
    elapsed = time.perf_counter() - start
    ticks = net.kernel.tick
    gating = net.gating_stats()
    return {
        "elapsed_s": elapsed,
        "ticks_per_s": ticks / elapsed if elapsed > 0 else float("inf"),
        "delivered": net.stats.packets_delivered,
        "scheduled": scheduled,
        "latencies": list(net.stats.latencies_cycles),
        "gating_edges_total": gating.edges_total,
        "gating_edges_enabled": gating.edges_enabled,
        "steps_executed": net.kernel.steps_executed,
    }


def run_array_bursty_workload(backend: str) -> dict:
    """Saturating wormhole DMA storms on a 32x32 torus.

    Every node injects ``ARRAY_BURSTY_REPS`` multi-flit packets to
    uniform-random destinations per storm — the genuinely busy fabric
    where per-component dispatch is the wall. ``backend`` selects the
    execution engine; everything else is identical, and the results
    must be too."""
    net = FabricConfig(topology="torus", ports=ARRAY_PORTS,
                       backend=backend).build()
    rng = np.random.default_rng(ARRAY_BURSTY_SEED)

    def schedule_storm(net, storm):
        scheduled = 0
        for _ in range(ARRAY_BURSTY_REPS):
            offs = rng.integers(1, ARRAY_PORTS, size=ARRAY_PORTS)
            for src in range(ARRAY_PORTS):
                net.send(Packet(src=src,
                                dest=int((src + offs[src]) % ARRAY_PORTS),
                                payload=list(range(3))))
                scheduled += 1
        return scheduled

    return _array_storm_run(net, schedule_storm)


def run_array_vc_workload(backend: str) -> dict:
    """Sustained hotspot storms on a 32x32 dateline-VC torus.

    Each storm mixes uniform-random traffic with a hotspot fraction
    (every ``ARRAY_HOTSPOT_STRIDE``-th source targets one of the
    ``ARRAY_HOTSPOTS``), keeping the congestion trees live through the
    drain — the two-stage VC/switch allocator under pressure."""
    net = FabricConfig(topology="torus", ports=ARRAY_PORTS,
                       flow_control="vc", n_vcs=2,
                       backend=backend).build()
    rng = np.random.default_rng(ARRAY_VC_SEED)

    def schedule_storm(net, storm):
        scheduled = 0
        for _ in range(ARRAY_VC_REPS):
            offs = rng.integers(1, ARRAY_PORTS, size=ARRAY_PORTS)
            for src in range(ARRAY_PORTS):
                if src % ARRAY_HOTSPOT_STRIDE == 1:
                    dest = ARRAY_HOTSPOTS[
                        (src // ARRAY_HOTSPOT_STRIDE) % len(ARRAY_HOTSPOTS)]
                    if dest == src:
                        continue
                else:
                    dest = int((src + offs[src]) % ARRAY_PORTS)
                net.send(Packet(src=src, dest=dest,
                                payload=list(range(4))))
                scheduled += 1
        return scheduled

    return _array_storm_run(net, schedule_storm)


def _hotspot_knee(config: FabricConfig) -> float:
    """Highest VC_SAT_LOADS entry that kept up (the shared floor rule)."""
    pairs = (
        (load, measure_offered_vs_accepted(
            lambda: config.build(),
            lambda l: HotspotTraffic(VC_SAT_PORTS, l, size_flits=2,
                                     hotspots=(0,),
                                     fraction=VC_SAT_FRACTION),
            load, cycles=VC_SAT_CYCLES, seed=VC_SAT_SEED,
        ))
        for load in VC_SAT_LOADS
    )
    return scan_saturation_curve(pairs, efficiency_floor=0.9)


def run_vc_adaptive_comparison() -> dict:
    """The escape-VC stack vs wormhole deterministic XY, corner hotspot.

    Both configs pin their full flow-control stack (the VC side brings
    adaptive routing *and* 4 per-VC FIFOs per port; the wormhole side is
    the registry default) — this is the paper-style flow-control
    comparison, not a routing-only ablation.
    """
    deterministic = _hotspot_knee(FabricConfig(topology="mesh",
                                               ports=VC_SAT_PORTS))
    adaptive = _hotspot_knee(FabricConfig(topology="mesh",
                                          ports=VC_SAT_PORTS,
                                          flow_control="vc", n_vcs=4))
    return {
        "deterministic_xy_saturation": deterministic,
        "escape_adaptive_saturation": adaptive,
    }


def _git_sha() -> str:
    """HEAD's short sha, with a ``-dirty`` marker when the measurement
    does not correspond to that commit's tree (the usual pre-commit
    per-PR run)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BASELINE_PATH.parent, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=BASELINE_PATH.parent, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        return f"{sha}-dirty" if status else sha
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_history() -> list[dict]:
    """The recorded entries, oldest first (legacy single-dict upgraded)."""
    if not BASELINE_PATH.exists():
        return []
    data = json.loads(BASELINE_PATH.read_text())
    if isinstance(data, dict) and "history" in data:
        return list(data["history"])
    if isinstance(data, dict):
        return [data]  # pre-history baseline: one anonymous entry
    return list(data)


def measure() -> dict:
    fast = run_workload(activity_driven=True)
    naive = run_workload(activity_driven=False)
    inst_fast = run_workload(activity_driven=True, instrumented=True)
    inst_naive = run_workload(activity_driven=False, instrumented=True)
    mesh_fast = run_mesh_workload(activity_driven=True)
    mesh_naive = run_mesh_workload(activity_driven=False)
    bursty_fast = run_bursty_workload(activity_driven=True)
    bursty_naive = run_bursty_workload(activity_driven=False)
    pipelined_fast = run_pipelined_workload(activity_driven=True)
    pipelined_naive = run_pipelined_workload(activity_driven=False)
    vc_fast = run_vc_workload(activity_driven=True)
    vc_naive = run_vc_workload(activity_driven=False)
    traced_fast = run_traced_workload(activity_driven=True)
    traced_naive = run_traced_workload(activity_driven=False)
    array_bursty_arr = run_array_bursty_workload("array")
    array_bursty_disp = run_array_bursty_workload("dispatch")
    array_vc_arr = run_array_vc_workload("array")
    array_vc_disp = run_array_vc_workload("dispatch")
    vc_routing = run_vc_adaptive_comparison()
    return {
        "leaves": LEAVES,
        "ticks": TICKS,
        "burst_packets": BURST_PACKETS,
        "fast_ticks_per_s": round(fast["ticks_per_s"]),
        "naive_ticks_per_s": round(naive["ticks_per_s"]),
        "speedup": round(fast["ticks_per_s"] / naive["ticks_per_s"], 1),
        "instrumented_fast_ticks_per_s": round(inst_fast["ticks_per_s"]),
        "instrumented_naive_ticks_per_s": round(inst_naive["ticks_per_s"]),
        "instrumented_speedup": round(
            inst_fast["ticks_per_s"] / inst_naive["ticks_per_s"], 1),
        "mesh_fast_ticks_per_s": round(mesh_fast["ticks_per_s"]),
        "mesh_naive_ticks_per_s": round(mesh_naive["ticks_per_s"]),
        "mesh_speedup": round(
            mesh_fast["ticks_per_s"] / mesh_naive["ticks_per_s"], 1),
        "bursty_fast_ticks_per_s": round(bursty_fast["ticks_per_s"]),
        "bursty_naive_ticks_per_s": round(bursty_naive["ticks_per_s"]),
        "bursty_speedup": round(
            bursty_fast["ticks_per_s"] / bursty_naive["ticks_per_s"], 1),
        "pipelined_fast_ticks_per_s": round(pipelined_fast["ticks_per_s"]),
        "pipelined_naive_ticks_per_s": round(pipelined_naive["ticks_per_s"]),
        "pipelined_speedup": round(
            pipelined_fast["ticks_per_s"] / pipelined_naive["ticks_per_s"],
            1),
        "vc_fast_ticks_per_s": round(vc_fast["ticks_per_s"]),
        "vc_naive_ticks_per_s": round(vc_naive["ticks_per_s"]),
        "vc_speedup": round(
            vc_fast["ticks_per_s"] / vc_naive["ticks_per_s"], 1),
        "traced_fast_ticks_per_s": round(traced_fast["ticks_per_s"]),
        "traced_naive_ticks_per_s": round(traced_naive["ticks_per_s"]),
        "traced_speedup": round(
            traced_fast["ticks_per_s"] / traced_naive["ticks_per_s"], 1),
        "array_bursty_array_ticks_per_s": round(
            array_bursty_arr["ticks_per_s"]),
        "array_bursty_dispatch_ticks_per_s": round(
            array_bursty_disp["ticks_per_s"]),
        "array_bursty_speedup": round(
            array_bursty_arr["ticks_per_s"]
            / array_bursty_disp["ticks_per_s"], 1),
        "array_vc_array_ticks_per_s": round(
            array_vc_arr["ticks_per_s"]),
        "array_vc_dispatch_ticks_per_s": round(
            array_vc_disp["ticks_per_s"]),
        "array_vc_speedup": round(
            array_vc_arr["ticks_per_s"]
            / array_vc_disp["ticks_per_s"], 1),
        "vc_deterministic_xy_saturation":
            vc_routing["deterministic_xy_saturation"],
        "vc_escape_adaptive_saturation":
            vc_routing["escape_adaptive_saturation"],
        "_fast": fast,
        "_naive": naive,
        "_inst_fast": inst_fast,
        "_inst_naive": inst_naive,
        "_mesh_fast": mesh_fast,
        "_mesh_naive": mesh_naive,
        "_bursty_fast": bursty_fast,
        "_bursty_naive": bursty_naive,
        "_pipelined_fast": pipelined_fast,
        "_pipelined_naive": pipelined_naive,
        "_vc_fast": vc_fast,
        "_vc_naive": vc_naive,
        "_traced_fast": traced_fast,
        "_traced_naive": traced_naive,
        "_array_bursty_array": array_bursty_arr,
        "_array_bursty_dispatch": array_bursty_disp,
        "_array_vc_array": array_vc_arr,
        "_array_vc_dispatch": array_vc_disp,
    }


EQUIVALENCE_KEYS = ("delivered", "latencies", "gating_edges_total",
                    "gating_edges_enabled")


def test_kernel_throughput(benchmark, log):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Equivalence first: the fast path must change nothing observable —
    # bare, instrumented (including the traces themselves), and mesh.
    for fast_key, naive_key in (("_fast", "_naive"),
                                ("_inst_fast", "_inst_naive"),
                                ("_mesh_fast", "_mesh_naive"),
                                ("_bursty_fast", "_bursty_naive"),
                                ("_pipelined_fast", "_pipelined_naive"),
                                ("_vc_fast", "_vc_naive"),
                                ("_traced_fast", "_traced_naive"),
                                ("_array_bursty_array",
                                 "_array_bursty_dispatch"),
                                ("_array_vc_array", "_array_vc_dispatch")):
        fast, naive = results[fast_key], results[naive_key]
        for key in EQUIVALENCE_KEYS:
            assert fast[key] == naive[key], (fast_key, key)
        expected = fast.get("scheduled", BURST_PACKETS)
        assert fast["delivered"] == expected
    inst_fast, inst_naive = results["_inst_fast"], results["_inst_naive"]
    assert inst_fast["vcd"] == inst_naive["vcd"]
    assert inst_fast["trace"] == inst_naive["trace"]
    assert inst_fast["accept_bursts"] == inst_naive["accept_bursts"]
    assert inst_fast["flits_metered"] == inst_naive["flits_metered"]
    # Instrumentation itself must not perturb the simulation.
    for key in EQUIVALENCE_KEYS:
        assert inst_fast[key] == results["_fast"][key], key
    # The telemetry stack: byte-identical serialized output between
    # modes, and no perturbation of the workload it observes.
    traced_fast, traced_naive = results["_traced_fast"], \
        results["_traced_naive"]
    assert traced_fast["metrics_json"] == traced_naive["metrics_json"]
    assert traced_fast["traces_json"] == traced_naive["traces_json"]
    for key in EQUIVALENCE_KEYS:
        assert traced_fast[key] == results["_vc_fast"][key], key

    # The performance contract: >= 2x on the idle-heavy workload — even
    # instrumented, on the mesh, and on the phased system trace
    # (measured: orders of magnitude).
    assert results["speedup"] >= 2.0, results
    assert results["instrumented_speedup"] >= 2.0, results
    assert results["mesh_speedup"] >= 2.0, results
    assert results["bursty_speedup"] >= 2.0, results
    assert results["pipelined_speedup"] >= 2.0, results
    assert results["vc_speedup"] >= 2.0, results
    assert results["traced_speedup"] >= 2.0, results

    # The array backend's contract: same results, much faster where the
    # fabric is genuinely busy — ≥ 5x on the wormhole storm scenario
    # and ≥ 3x on the VC hotspot scenario, vs activity-driven dispatch.
    assert results["array_bursty_speedup"] >= 5.0, results
    assert results["array_vc_speedup"] >= 3.0, results

    # The flow-control comparison of the VC scenario: the escape-VC
    # stack (adaptive routing + per-VC buffering) must strictly beat
    # the plain wormhole deterministic-XY baseline on the corner
    # hotspot whose knee is fabric-, not ejection-, bound.
    assert results["vc_escape_adaptive_saturation"] > \
        results["vc_deterministic_xy_saturation"], results

    # Regression gate against the recorded history: stay within tolerance
    # of the most recent entry carrying each speedup (ratios, not raw
    # ticks/s). The history is shared with other benches (e.g. the accel
    # replay bench appends entries without kernel keys), so each key's
    # baseline is the newest entry that recorded it; never-recorded keys
    # are skipped.
    history = load_history()
    if history:
        for key in ("speedup", "instrumented_speedup", "mesh_speedup",
                    "bursty_speedup", "pipelined_speedup", "vc_speedup",
                    "traced_speedup", "array_bursty_speedup",
                    "array_vc_speedup"):
            baseline = next((entry[key] for entry in reversed(history)
                             if key in entry), None)
            if baseline:
                assert results[key] >= REGRESSION_FACTOR * baseline, (
                    f"{key} regressed: {results[key]} vs recorded "
                    f"{baseline} (floor {REGRESSION_FACTOR * baseline})"
                )

    print()
    print(json.dumps({k: v for k, v in results.items()
                      if not k.startswith("_")}, indent=2))


#: Scenario callables for ``--profile`` (each runs its fast variant).
PROFILE_SCENARIOS = {
    "bare": lambda: run_workload(activity_driven=True),
    "instrumented": lambda: run_workload(activity_driven=True,
                                         instrumented=True),
    "mesh": lambda: run_mesh_workload(activity_driven=True),
    "bursty": lambda: run_bursty_workload(activity_driven=True),
    "pipelined": lambda: run_pipelined_workload(activity_driven=True),
    "vc": lambda: run_vc_workload(activity_driven=True),
    "traced": lambda: run_traced_workload(activity_driven=True),
    "array_bursty": lambda: run_array_bursty_workload("array"),
    "array_vc": lambda: run_array_vc_workload("array"),
}


def profile_scenario(name: str) -> None:
    """Run one scenario under cProfile; print the top 20 by cumulative
    time — the data future hot-loop work should start from."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    PROFILE_SCENARIOS[name]()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="kernel throughput bench: append a history entry, "
                    "or profile one scenario")
    parser.add_argument("--profile", metavar="SCENARIO",
                        choices=sorted(PROFILE_SCENARIOS),
                        help="print cProfile top-20 cumulative for one "
                             "scenario instead of benchmarking "
                             f"(one of: {', '.join(sorted(PROFILE_SCENARIOS))})")
    opts = parser.parse_args()
    if opts.profile:
        profile_scenario(opts.profile)
        return
    results = measure()
    entry = {k: v for k, v in results.items() if not k.startswith("_")}
    entry["sha"] = _git_sha()
    entry["date"] = time.strftime("%Y-%m-%d")
    history = load_history()
    history.append(entry)
    BASELINE_PATH.write_text(
        json.dumps({"history": history}, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    print(f"history entry {len(history)} appended to {BASELINE_PATH}")


if __name__ == "__main__":
    main()
