"""Smoke test of the benchmark harness at ``--smoke`` size.

Checks the harness, never a timing: names and units agree with
BENCHMARK.json, every workload completes its work, the per-layer record
adds up and lands in the layers the workload is documented to use, the
wrappers come off again, and the command line fails loudly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run as bench_run
from bench.child import run_once
from bench.tracing import Tracer
from bench.workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
SEED = 2


def test_contract_names_the_benchmark():
    names = ([w["name"] for w in CONTRACT["workloads"]]
             + list(END_TO_END) + list(PER_LAYER))
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} \
        == {name: workload.why for name, workload in WORKLOADS.items()}
    assert END_TO_END["setup_s"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["bench"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_repetition_yields_every_end_to_end_metric(name):
    record = run_once(name, SEED, traced=False, size="smoke")
    assert record["attempted"] >= 1 and record["failed"] == 0
    metrics = bench_run.end_to_end(record)
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics
    assert "layers" not in record
    # Same seed, same simulated results.
    assert run_once(name, SEED, traced=False,
                    size="smoke")["results_sha"] == record["results_sha"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_repetition_adds_up_and_stays_in_its_layers(name):
    record = run_once(name, SEED, traced=True, size="smoke")
    layers = record["layers"]
    assert set(layers) <= set(PER_LAYER)
    assert record["failed"] == 0
    # Self times sum to the spans they were cut from.
    assert record["self_total_s"] == pytest.approx(record["root_total_s"],
                                                   abs=1e-6)
    assert sum(record["inside_wall_s"].values()) \
        == pytest.approx(record["wall_s"], abs=1e-6)
    # The applicability table: a layer outside it was never entered, a
    # layer inside it was.
    used = WORKLOADS[name].layers
    entered = {metric for metric, value in layers.items() if value}
    assert all(metric.startswith(used) for metric in entered), \
        sorted(m for m in entered if not m.startswith(used))
    for layer in used:
        assert any(metric.startswith(layer) for metric in entered), layer
    if name in ("torus_vc_array", "tree_bursty_idle"):
        assert layers["fabric.router.on_edge_calls"] == 0
    assert layers["sim.other.on_edge_calls"] == 0
    phases = {span["name"] for span in record["spans"]}
    assert {"cli.import", "setup", "timed_call"} <= phases
    assert all(span["workload"] == name for span in record["spans"])


@pytest.mark.parametrize("traced", (False, True))
def test_wrappers_leave_nothing_behind(traced):
    from repro.fabric.registry import FabricConfig
    name = "mesh_wormhole_loaded"
    original = vars(FabricConfig)["build"]
    tracer = Tracer(name, traced)
    tracer.install()
    try:
        assert vars(FabricConfig)["build"] is not original
        workload = WORKLOADS[name]
        workload.run(workload.prepare(SEED, SIZES[name]["smoke"], tracer))
        network = tracer.networks[-1]
        touched = [network] + network.kernel.components
        assert traced == ("send" in vars(network))
        assert traced == all("on_edge" in vars(c) for c in touched[1:])
    finally:
        tracer.restore()
    assert vars(FabricConfig)["build"] is original
    for obj in touched:
        assert not {"send", "run_ticks", "drain", "on_edge"} & set(vars(obj))


def test_wrong_results_are_reported():
    record = {"results_sha": "0" * 64, "attempted": 10, "failed": 0}
    name = "replay_llm_decode"
    pins = json.loads(bench_run.EXPECTED_PATH.read_text())[name]
    seed, pinned = next(iter(pins.items()))
    problems, attempted, failed, _ = bench_run.judge(
        name, int(seed), "full", [dict(record, results_sha=pinned)] * 2)
    assert (problems, attempted, failed) == ([], 20, 0)
    problems, attempted, failed, _ = bench_run.judge(
        name, int(seed), "full", [record, None])
    assert len(problems) == 2 and (attempted, failed) == (20, 20)


def _bench(*args):
    return subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)


def test_unknown_workload_fails_loudly():
    done = _bench("--workload", "nope")
    assert done.returncode != 0
    assert "unknown workload" in done.stderr and "sweep_campaign" in done.stderr


@pytest.mark.parametrize("trace, names", ((0, END_TO_END), (1, PER_LAYER)))
def test_command_line_prints_the_result_line(trace, names):
    done = _bench("--smoke", "--reps", "1", "--workload",
                  "tree_bursty_idle", "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {metric: entry["unit"]
            for metric, entry in result["metrics"].items()} == names
    # Every metric is printed by name, with its unit.
    for metric, unit in names.items():
        assert re.search(rf"^\s+{re.escape(metric)}\s+{re.escape(unit)}\s",
                         done.stdout, re.MULTILINE), metric
