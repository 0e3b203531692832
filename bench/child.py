"""One repetition of one workload, in this process.

``bench/run.py`` starts a fresh ``python -m bench.child`` for every
repetition: users pay the import and the build on every CLI run, packet-id
counters start from zero, and ``ru_maxrss`` is this repetition's own. The
record goes back as one JSON line on standard output.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from typing import Any

from bench.tracing import Tracer
from bench.workloads import SIZES, WORKLOADS, Outcome

#: Component layers reported as ``<layer>.on_edge_s`` / ``.on_edge_calls``.
EDGE_LAYERS = ("fabric.router", "fabric.link", "fabric.endpoint",
               "noc.router", "noc.pipeline", "noc.ni", "system.driver",
               "accel.endpoints", "sim.other")


def _canonical(value: Any) -> Any:
    """Floats to nine significant digits, so a digest survives a change of
    summation order in the last bits and nothing more."""
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def results_sha(payload: Any) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _calibration_loop() -> int:
    """A fixed pure-Python loop: how fast this host runs the interpreter,
    for reading the other numbers across machines."""
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return total


def _layer_metrics(tracer: Tracer, outcome: Outcome,
                   extras: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition; the exact counts
    only a workload knows and its extras come on top. What is missing or 0
    is a layer the workload never entered."""
    t = tracer
    net = outcome.network
    ticks = net.kernel.tick if net else 0
    steps = net.kernel.steps_executed if net else 0
    run_s = t.total("sim.run_ticks") + t.total("sim.drain")
    router_calls = t.calls("fabric.router.on_edge")
    flit_hops = sum(hops * packet.flit_count for hops, packet
                    in zip(net.stats.hop_counts, net.delivered)) \
        if router_calls else 0
    engine_s = (t.seconds("fabric.array.on_edge")
                + t.seconds("fabric.array.batch_ticks"))
    metrics = {
        "sim.run_s": run_s,
        "sim.kernel_self_s": (t.seconds("sim.run_ticks")
                              + t.seconds("sim.drain")),
        "sim.ticks": ticks,
        "sim.steps_executed": steps,
        "sim.fast_forward_fraction": 1 - steps / ticks if ticks else 0,
        "sim.on_edge_calls": sum(bucket[1] for name, bucket
                                 in t.buckets.items()
                                 if name.endswith(".on_edge")),
        "sim.us_per_step": 1e6 * run_s / steps if steps else 0,
        "fabric.router.us_per_call":
            1e6 * t.seconds("fabric.router.on_edge") / router_calls
            if router_calls else 0,
        "fabric.router.flit_hops_per_call":
            flit_hops / router_calls if router_calls else 0,
        "fabric.endpoint.send_s": t.seconds("fabric.endpoint.send"),
        "fabric.endpoint.send_calls": t.calls("fabric.endpoint.send"),
        "noc.ni.send_s": t.seconds("noc.ni.send"),
        "noc.ni.send_calls": t.calls("noc.ni.send"),
        "fabric.array.engine_s": engine_s,
        "fabric.array.engine_calls": t.calls("fabric.array.on_edge"),
        "fabric.array.batch_windows": t.calls("fabric.array.batch_ticks"),
        "fabric.array.us_per_tick":
            1e6 * engine_s / ticks if engine_s else 0,
        "fabric.registry.build_s": t.total("fabric.registry.build"),
        "fabric.registry.components":
            len(net.kernel.components)
            if net and t.calls("fabric.registry.build") else 0,
        "accel.trace_gen_s": t.total("accel.trace_gen"),
        "accel.build_s": t.total("accel.build"),
        "accel.results_s": t.total("accel.results"),
        "traffic.generate_s": t.total("traffic.generate"),
        "telemetry.attach_s": t.total("telemetry.attach"),
        "telemetry.summary_s": t.total("telemetry.summary"),
        "physical.energy_report_s": t.total("physical.energy_report"),
        "cli.import_s": t.total("cli.import"),
        "host.calibration_s": t.total("host.calibration"),
        "host.call_self_s": t.seconds("timed_call"),
    }
    for layer in EDGE_LAYERS:
        metrics[f"{layer}.on_edge_s"] = t.seconds(f"{layer}.on_edge")
        metrics[f"{layer}.on_edge_calls"] = t.calls(f"{layer}.on_edge")
    metrics["sim_makespan_cycles"] = outcome.makespan_cycles
    metrics["sim_mean_latency_cycles"] = outcome.mean_latency_cycles
    metrics.update(outcome.counts)
    metrics.update(extras)
    return metrics


def run_once(name: str, seed: int, traced: bool, size: str = "full",
             started: float | None = None) -> dict[str, Any]:
    """Run one repetition and return its record.

    ``started`` is the parent's ``time.monotonic()`` just before it
    spawned this process; without it set-up is counted from here.
    """
    before = 0.0 if started is None else time.monotonic() - started
    workload = WORKLOADS[name]
    tracer = Tracer(name, traced)
    try:
        tracer.call("cli.import", importlib.import_module, "repro.cli")
        tracer.install()
        state = tracer.call("setup", workload.prepare, seed,
                            SIZES[name][size], tracer)
        inside = tracer.self_times()
        result = tracer.call("timed_call", workload.run, state)
        inside = {bucket: seconds - inside.get(bucket, 0.0)
                  for bucket, seconds in tracer.self_times().items()
                  if bucket not in tracer.setup_buckets}
        outcome = workload.measure(state, result, tracer)
        extras = workload.extras(state, tracer)
        if traced:
            tracer.call("host.calibration", _calibration_loop)
    finally:
        tracer.restore()
    timed = tracer.span("timed_call")
    # Set-up the public call did itself (build, generate, attach) moves
    # out of the timed region and into set-up.
    own_setup = sum(span["end"] - span["start"] for span in tracer.spans
                    if span["setup"] and span["start"] >= timed["start"]
                    and span["end"] <= timed["end"])
    wall_s = timed["end"] - timed["start"] - own_setup
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "workload": name,
        "seed": seed,
        "size": SIZES[name][size],
        "traced": traced,
        "setup_s": before + timed["start"] + own_setup,
        "wall_s": wall_s,
        "sim_cycles": outcome.sim_cycles,
        "work": outcome.work,
        "work_unit": workload.work_unit,
        "sim_makespan_cycles": outcome.makespan_cycles,
        "sim_mean_latency_cycles": outcome.mean_latency_cycles,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "results_sha": results_sha(outcome.payload),
        "peak_rss_mb": usage / 1024,
    }
    if traced:
        record["layers"] = _layer_metrics(tracer, outcome, extras)
        record["spans"] = _with_derived_phases(tracer.spans)
        # Where the timed region went: self times inside it sum to it.
        record["inside_wall_s"] = {bucket: seconds for bucket, seconds
                                   in inside.items() if seconds > 0}
        record["root_total_s"] = tracer.root_total
        record["self_total_s"] = sum(tracer.self_times().values())
    return record


def _with_derived_phases(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Add ``inject_window`` and ``report`` where a public call ran the
    whole generate / inject / drain / report sequence itself."""
    by_name = {span["name"]: span for span in spans}
    timed, drain = by_name["timed_call"], by_name.get("sim.drain")
    generate = by_name.get("traffic.generate")
    if drain is None or generate is None or drain["parent"] != "timed_call":
        return spans
    derived = [("inject_window", generate["end"], drain["start"]),
               ("report", drain["end"], timed["end"])]
    return spans + [{"name": name, "start": start, "end": end,
                     "parent": "timed_call", "workload": timed["workload"],
                     "setup": False} for name, start, end in derived]


def main(argv: list[str]) -> int:
    name, seed, traced, size, started = argv
    record = run_once(name, int(seed), traced == "1", size, float(started))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
