"""The repo's benchmark: seven workloads, host-time and simulated-time
metrics, and a per-layer trace taken from outside the simulator.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T | --reps N]
                         [--trace 0|1 | --traced] [--json OUT] [--smoke]
    python3 bench/run.py --verify | --repeat-check [SEEDS] | --pin COUNT

Every repetition is a fresh ``python -m bench.child`` process; this parent
only spawns, aggregates, checks and prints, and never imports ``repro``.
The last line printed for a workload is its result as one JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``); the exit code is
non-zero when any simulated output is wrong or a child crashed.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench.workloads import OBSERVED_BASE, OUT_DIR, WORKLOADS  # noqa: E402

CONTRACT_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = ROOT / "bench" / "expected.json"

#: Simulated-time results: the same in every repetition of a seed, so they
#: are printed once beside the host-time table (0 = not defined there).
SIMULATED = ("sim_makespan_cycles", "sim_mean_latency_cycles")
#: An untraced run takes at least this many repetitions however short
#: ``--seconds`` is: one sample has no best and no quartiles.
MIN_REPS = 3
#: Untraced repetitions a traced run starts with, as the base of
#: ``host.trace_overhead_ratio`` (and of ``telemetry.overhead_ratio``).
BASE_REPS = 3
#: A repetition is sized at 1-2 s; one that takes this long is hung.
CHILD_TIMEOUT_S = 150


# -- running repetitions --------------------------------------------------

def spawn(name: str, seed: int, traced: bool, size: str) -> dict | None:
    """One repetition in a fresh process; None when it crashed (a crash
    is counted as a failure, never retried)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "bench.child", name, str(seed),
               str(int(traced)), size, repr(time.monotonic())]
    # Its own session, so a hung sweep goes down with its pool workers.
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"{name}: repetition timed out", file=sys.stderr)
        return None
    if child.returncode != 0:
        print(f"{name}: repetition exited with code {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(output.splitlines()[-1])


def repetitions(name: str, seed: int, traced: bool, size: str,
                seconds: float, reps: int | None,
                at_least: int = MIN_REPS) -> list[dict | None]:
    """``reps`` repetitions, or as many as fit into ``seconds`` (and at
    least ``at_least``), one after the other."""
    records: list[dict | None] = []
    began = time.monotonic()
    longest = 0.0
    while True:
        start = time.monotonic()
        records.append(spawn(name, seed, traced, size))
        longest = max(longest, time.monotonic() - start)
        if reps is not None:
            if len(records) >= reps:
                return records
        elif (len(records) >= at_least
              and time.monotonic() - began + longest > seconds):
            return records


# -- turning records into metrics -----------------------------------------

def end_to_end(record: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced repetition."""
    wall_s = record["wall_s"]
    return {
        "setup_s": record["setup_s"],
        "wall_s": wall_s,
        "sim_cycles_per_s": record["sim_cycles"] / wall_s,
        "work_per_s": record["work"] / wall_s,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def summarise(values: list[float]) -> dict[str, float]:
    if len(values) > 1:
        # Inclusive: with a handful of samples the quartiles shown stay
        # inside the range shown.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "max": max(values), "n": len(values)}


def _fastest(records) -> float:
    """The shortest ``wall_s`` among repetitions (0 when none survived)."""
    return min((r["wall_s"] for r in records if r), default=0.0)


def judge(name: str, seed: int, size: str,
          records: list[dict | None]) -> tuple[list[str], int, int, str]:
    """(problems, attempted, failed, sha) over a workload's repetitions.

    A repetition that crashed, or whose simulated results differ from the
    other repetitions' or from the pinned digest, counts every operation
    it attempted as failed.
    """
    good = [record for record in records if record is not None]
    problems = []
    if len(good) < len(records):
        problems.append(f"{len(records) - len(good)} repetition(s) crashed")
    if not good:
        return problems, len(records), len(records), ""
    pinned = None
    if size == "full":
        pinned = json.loads(EXPECTED_PATH.read_text())[name].get(str(seed))
    reference = pinned or good[0]["results_sha"]
    if any(record["results_sha"] != reference for record in good):
        problems.append(
            f"results_sha differs from bench/expected.json (seed {seed}): "
            f"simulated statistics changed" if pinned
            else "repetitions disagree on results_sha")
    per_rep = good[0]["attempted"]
    attempted = per_rep * len(records)
    failed = per_rep * (len(records) - len(good))
    for record in good:
        failed += (record["failed"] if record["results_sha"] == reference
                   else per_rep)
    if any(record["failed"] for record in good):
        problems.append("not every scheduled operation completed")
    return problems, attempted, failed, good[0]["results_sha"]


# -- one workload, measured -----------------------------------------------

def measure(name: str, seed: int, traced: bool, size: str, seconds: float,
            reps: int | None, contract: dict) -> dict[str, Any]:
    """Run one workload and return everything known about the run.

    Untraced: the end-to-end metrics. Traced: a few untraced repetitions
    as the base of ``host.trace_overhead_ratio``, then traced repetitions
    for the per-layer metrics.
    """
    bare: list[dict | None] = []
    if traced:
        # The ratios' bases come out of the same time budget.
        began = time.monotonic()
        few = BASE_REPS if reps is None else min(reps, BASE_REPS)
        records = repetitions(name, seed, False, size, 0, few)
        if name in OBSERVED_BASE:
            bare = repetitions(OBSERVED_BASE[name], seed, False, size, 0, few)
        records += repetitions(name, seed, True, size,
                               seconds - (time.monotonic() - began), reps,
                               at_least=1)
    else:
        records = repetitions(name, seed, False, size, seconds, reps)
    problems, attempted, failed, sha = judge(name, seed, size, records)
    good = [record for record in records if record is not None]
    run = {"workload": name, "seed": seed, "traced": traced,
           "size": good[0]["size"] if good else None,
           "work_unit": WORKLOADS[name].work_unit, "results_sha": sha,
           "problems": problems, "attempted": attempted, "failed": failed,
           "simulated": {metric: good[0][metric] for metric in SIMULATED
                         if good and good[0][metric]},
           "samples": {}, "summary": {}, "metrics": {}}
    measured = [record for record in good if record["traced"] == traced]
    if not measured:
        return run
    if traced:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        # A layer the workload never entered reports nothing: that is 0.
        rows = [{**dict.fromkeys(units, 0.0), **record["layers"]}
                for record in measured]
        # Best repetition against best repetition, as end-to-end.
        base = _fastest(r for r in good if not r["traced"])
        overhead = _fastest(measured) / base if base else 0.0
        observed = base / _fastest(bare) if base and _fastest(bare) else 0.0
        for row in rows:
            row["host.trace_overhead_ratio"] = overhead
            row["telemetry.overhead_ratio"] = observed
        run["inside_wall_s"] = {
            bucket: statistics.median(
                record["inside_wall_s"].get(bucket, 0.0)
                for record in measured)
            for bucket in measured[-1]["inside_wall_s"]}
        run["trace"] = {"spans": measured[-1]["spans"],
                        "inside_wall_s": measured[-1]["inside_wall_s"],
                        "layers": measured[-1]["layers"]}
    else:
        rows = [end_to_end(record) for record in measured]
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    if set(rows[0]) != set(units):
        odd = sorted(set(rows[0]) ^ set(units))
        raise SystemExit(f"BENCHMARK.json and bench/ disagree on: {odd}")
    run["samples"] = {metric: [row[metric] for row in rows]
                      for metric in units}
    run["summary"] = {metric: summarise(values)
                      for metric, values in run["samples"].items()}
    # What a run reports. Per-layer: the median. End-to-end: the best
    # repetition (the other processes of a shared host only ever add
    # time, and add it in bursts as long as a repetition, so the median
    # of a dozen repetitions swings with the share of them that were hit
    # while the fastest one repeats from run to run).
    pick = {m["name"]: "max" if m["better"] == "higher" else "min"
            for m in contract["end_to_end"]}
    run["metrics"] = {
        metric: {"value": run["summary"][metric][
                     "median" if traced else pick[metric]],
                 "unit": units[metric]}
        for metric in units}
    return run


# -- printing -------------------------------------------------------------

def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.4f}" if abs(value) >= 0.01 else f"{value:.3e}"


def print_run(run: dict[str, Any]) -> None:
    name = run["workload"]
    count = max((s["n"] for s in run["summary"].values()), default=0)
    print(f"\n== {name}  seed {run['seed']}  size {run['size']}  "
          f"{'traced' if run['traced'] else 'untraced'}, {count} "
          f"repetition(s), a fresh process each")
    print(f"   work unit of work_per_s: {run['work_unit']}")
    layers = WORKLOADS[name].layers
    header = ("metric", "unit", "median", "min", "q1", "q3", "max", "n")
    table = [header]
    for metric, entry in run["metrics"].items():
        if run["traced"] and not metric.startswith(layers):
            table.append((metric, entry["unit"], "n/a", "", "", "", "", ""))
            continue
        stats = run["summary"][metric]
        table.append((metric, entry["unit"]) + tuple(
            _number(stats[key]) for key in header[2:]))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  " + "  ".join(
            cell.ljust(width) if i < 2 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))).rstrip())
    print(f"   {count} samples support a median and quartiles, not a tail "
          f"percentile; none is given.")
    if not run["traced"]:
        print("   reported below: the best repetition of each metric")
    if run["traced"] and "inside_wall_s" in run:
        inside = run["inside_wall_s"]
        total = sum(inside.values())
        print("   where the timed region went (self time; sums to the "
              "traced wall_s):")
        for bucket, seconds in sorted(inside.items(), key=lambda kv: -kv[1]):
            print(f"     {bucket:<28} {seconds:9.4f} s  "
                  f"{seconds / total:6.1%}")
        print(f"     {'total':<28} {total:9.4f} s")
    for metric, value in ({} if run["traced"] else run["simulated"]).items():
        print(f"   {metric}  {_number(value)}  (simulated, exact for this "
              f"seed)")
    ratio = run["failed"] / run["attempted"]
    print(f"   failed_fraction  {ratio:g}  ({run['failed']} of "
          f"{run['attempted']} operations)")
    print(f"   results_sha  {run['results_sha']}")
    for problem in run["problems"]:
        print(f"   INCORRECT: {problem}")
    print(json.dumps({"correct": not run["problems"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))


def environment() -> dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


# -- the other modes ------------------------------------------------------

def verify_backends(seed: int) -> bool:
    """The array backend against the dispatch backend on one config."""
    shas = {}
    for size in ("verify_array", "verify_dispatch"):
        record = spawn("torus_vc_array", seed, False, size)
        shas[size] = record and record["results_sha"]
        print(f"   {size:<16} {shas[size]}")
    agree = None not in shas.values() and len(set(shas.values())) == 1
    print(f"   backends {'agree' if agree else 'DISAGREE'}")
    return agree


def pin(names: list[str], seed: int, count: int) -> bool:
    """Write the digests of ``count`` seeds into bench/expected.json."""
    expected = (json.loads(EXPECTED_PATH.read_text())
                if EXPECTED_PATH.exists() else {})
    for name in names:
        for pinned_seed in range(seed, seed + count):
            records = repetitions(name, pinned_seed, False, "full", 0, 2)
            shas = {record and record["results_sha"] for record in records}
            if None in shas or len(shas) != 1:
                print(f"{name} seed {pinned_seed}: not reproducible")
                return False
            expected.setdefault(name, {})[str(pinned_seed)] = shas.pop()
            print(f"{name} seed {pinned_seed}: pinned")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1,
                                        sort_keys=True) + "\n")
    return True


def _spread(values: list[float]) -> float:
    """Quartile distance over the median, with the quartiles the PR driver
    takes (``statistics.quantiles`` as it comes)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat_check(names: list[str], seed: int, seeds: int, seconds: float,
                 contract: dict) -> bool:
    """Two sets of runs of the same code, compared the way a later change
    will be compared with its parent: per workload and end-to-end metric,
    the spread over ``seeds`` seeds inside each set and the shift of the
    median between the sets, both against the metric's bound."""
    sets: list[dict] = []
    passed = True
    for _ in range(2):
        values: dict[tuple[str, str], list[float]] = {}
        shas = {}
        for name in names:
            for run_seed in range(seed, seed + seeds):
                run = measure(name, run_seed, False, "full", seconds, None,
                              contract)
                if run["problems"]:
                    print(f"{name} seed {run_seed}: {run['problems']}")
                    passed = False
                shas[name, run_seed] = run["results_sha"]
                for metric, entry in run["metrics"].items():
                    values.setdefault((name, metric), []).append(
                        entry["value"])
        sets.append({"values": values, "shas": shas})
    first, second = sets
    if first["shas"] != second["shas"]:
        print("simulated results differ between the two sets")
        passed = False
    suggested: dict[str, float] = {}
    print(f"\n{'workload':<24}{'metric':<26}{'median A':>12}{'median B':>12}"
          f"{'worse by':>10}{'spread A':>10}{'spread B':>10}{'bound':>7}")
    for entry in contract["end_to_end"]:
        metric, bound = entry["name"], entry["bound"]
        sign = 1 if entry["better"] == "lower" else -1
        for name in names:
            a = first["values"][name, metric]
            b = second["values"][name, metric]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = sign * (median_b - median_a) / median_a
            spread = max(_spread(a), _spread(b))
            verdict = ""
            if worse > bound or (spread > bound and metric != "setup_s"):
                verdict = "  FAIL"
                passed = False
            elif 3 * spread > bound and metric != "setup_s":
                verdict = "  wide"
            suggested[metric] = max(suggested.get(metric, 0.05), 3 * spread)
            print(f"{name:<24}{metric:<26}{_number(median_a):>12}"
                  f"{_number(median_b):>12}{worse:>+10.2%}"
                  f"{_spread(a):>10.2%}{_spread(b):>10.2%}{bound:>7}"
                  f"{verdict}")
    print("\nbounds these runs support (max(0.05, 3 x widest spread), "
          "over all workloads):")
    for metric, bound in suggested.items():
        print(f"  {metric:<26}{bound:.3f}")
    print(f"\nrepeat check {'passed' if passed else 'FAILED'}")
    return passed


# -- command line ---------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one of: " + ", ".join(WORKLOADS)
                        + " (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--reps", type=int,
                        help="exactly this many repetitions instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics, from traced runs")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--json", metavar="OUT",
                        help="also write samples and summaries here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: tests the harness, measures "
                             "nothing")
    parser.add_argument("--verify", action="store_true",
                        help="also require the array and dispatch backends"
                             " to agree on a 256-port torus")
    parser.add_argument("--repeat-check", type=int, nargs="?", const=10,
                        metavar="SEEDS",
                        help="two sets of runs over SEEDS seeds each "
                             "(default 10), compared against the bounds")
    parser.add_argument("--pin", type=int, metavar="COUNT",
                        help="pin the digests of COUNT seeds from --seed "
                             "on into bench/expected.json")
    args = parser.parse_args(argv)

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     + ", ".join(WORKLOADS))
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py needs the repo's src/repro beside bench/",
              file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT_PATH.read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = (contract["run_seconds"] if args.seconds is None
               else args.seconds)
    if args.pin is not None:
        return 0 if pin(names, args.seed, args.pin) else 1
    if args.repeat_check is not None:
        return 0 if repeat_check(names, args.seed, args.repeat_check,
                                 seconds, contract) else 1

    size = "smoke" if args.smoke else "full"
    correct = True
    runs = []
    for name in names:
        run = measure(name, args.seed, bool(args.trace), size, seconds,
                      args.reps, contract)
        if not run["metrics"]:
            # Nothing was measured: no result line, only the failure.
            print(f"{name}: every repetition crashed", file=sys.stderr)
            return 1
        trace = run.pop("trace", None)
        if trace is not None:
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(trace))
        print_run(run)
        correct &= not run["problems"]
        runs.append(run)
    if args.verify:
        print("\n== verify: torus_vc_array's config at 256 ports, array "
              "against dispatch")
        correct &= verify_backends(args.seed)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"environment": environment(), "seed": args.seed,
             "seconds": seconds, "reps": args.reps, "workloads": runs},
            indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
