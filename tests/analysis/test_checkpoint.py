"""Checkpointed sweep campaigns: append finished points, resume by hash.

``measure_load_points(..., checkpoint=path)`` must append every finished
point to the JSONL file as it completes, and a rerun over the same specs
must skip the recorded hashes, measure only the remainder, and return
results identical to an uninterrupted run.
"""

import json
from dataclasses import replace

import pytest

import repro.analysis.parallel as parallel_module
from repro.analysis.parallel import (
    LoadPoint,
    evaluate_load_point_compact,
    expand_loads,
    measure_load_points,
    spec_hash,
)
from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig

MESH16 = FabricConfig(topology="mesh", ports=16)


def _specs(telemetry=False):
    template = LoadPoint(load=0.1, network=MESH16, cycles=40,
                         telemetry=telemetry)
    return expand_loads(template, [0.1, 0.2, 0.3, 0.4], base_seed=11)


class TestSpecHash:
    def test_equal_specs_hash_equally(self):
        assert spec_hash(_specs()[0]) == spec_hash(_specs()[0])

    def test_any_field_change_rehashes(self):
        base = _specs()[0]
        variants = (
            LoadPoint(load=0.11, network=MESH16, cycles=40, seed=base.seed),
            LoadPoint(load=0.1, network=MESH16, cycles=41, seed=base.seed),
            LoadPoint(load=0.1, network=MESH16, cycles=40, seed=base.seed + 1),
            LoadPoint(load=0.1, cycles=40, seed=base.seed,
                      network=replace(MESH16, backend="array")),
        )
        hashes = {spec_hash(v) for v in variants} | {spec_hash(base)}
        assert len(hashes) == len(variants) + 1


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_identically(self, tmp_path,
                                                   monkeypatch):
        specs = _specs()
        checkpoint = tmp_path / "sweep.jsonl"
        calls = []

        def counting(spec):
            if len(calls) == 2:
                raise KeyboardInterrupt  # simulated kill after 2 points
            calls.append(spec.load)
            return evaluate_load_point_compact(spec)

        monkeypatch.setattr(parallel_module, "evaluate_load_point_compact",
                            counting)
        with pytest.raises(KeyboardInterrupt):
            measure_load_points(specs, checkpoint=checkpoint)
        assert calls == [0.1, 0.2]
        assert len(checkpoint.read_text().splitlines()) == 2

        # Resume: only the missing points are measured, and the merged
        # results equal the uninterrupted run's.
        calls.clear()
        monkeypatch.setattr(
            parallel_module, "evaluate_load_point_compact",
            lambda spec: (calls.append(spec.load),
                          evaluate_load_point_compact(spec))[1])
        resumed = measure_load_points(specs, checkpoint=checkpoint)
        assert calls == [0.3, 0.4]
        assert len(checkpoint.read_text().splitlines()) == 4
        monkeypatch.undo()
        assert resumed == measure_load_points(specs)

    def test_completed_checkpoint_skips_everything(self, tmp_path,
                                                   monkeypatch):
        specs = _specs()
        checkpoint = tmp_path / "sweep.jsonl"
        first = measure_load_points(specs, checkpoint=checkpoint)

        def boom(spec):
            raise AssertionError("recorded point re-measured")

        monkeypatch.setattr(parallel_module, "evaluate_load_point_compact",
                            boom)
        assert measure_load_points(specs, checkpoint=checkpoint) == first

    def test_telemetry_round_trips(self, tmp_path):
        specs = _specs(telemetry=True)[:2]
        checkpoint = tmp_path / "sweep.jsonl"
        measure_load_points(specs, checkpoint=checkpoint)
        resumed = measure_load_points(specs, checkpoint=checkpoint)
        fresh = measure_load_points(specs)
        for r, f in zip(resumed, fresh):
            assert r.pop("telemetry").to_dict() == \
                f.pop("telemetry").to_dict()
            assert r == f

    def test_records_are_jsonl_keyed_by_hash(self, tmp_path):
        specs = _specs()[:2]
        checkpoint = tmp_path / "sweep.jsonl"
        measure_load_points(specs, checkpoint=checkpoint)
        records = [json.loads(line)
                   for line in checkpoint.read_text().splitlines()]
        assert [r["spec"] for r in records] == [spec_hash(s) for s in specs]
        assert [r["load"] for r in records] == [s.load for s in specs]

    def test_torn_last_line_is_measured_again(self, tmp_path):
        # A kill mid-append leaves a final line without its newline: it
        # is cut off, re-measured, and the next record is not glued on.
        specs = _specs()
        checkpoint = tmp_path / "sweep.jsonl"
        measure_load_points(specs[:3], checkpoint=checkpoint)
        torn = checkpoint.read_bytes()[:-40]
        assert torn.count(b"\n") == 2  # the third record is a fragment
        checkpoint.write_bytes(torn)
        resumed = measure_load_points(specs, checkpoint=checkpoint)
        assert resumed == measure_load_points(specs)
        records = [json.loads(line)
                   for line in checkpoint.read_text().splitlines()]
        assert [r["spec"] for r in records] == \
            [spec_hash(s) for s in specs]

    def test_corrupt_line_names_its_number(self, tmp_path):
        specs = _specs()[:3]
        checkpoint = tmp_path / "sweep.jsonl"
        measure_load_points(specs, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines(keepends=True)
        lines[1] = '["not", "a", "record"]\n'
        checkpoint.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=r"sweep\.jsonl:2: not a checkpoint record"):
            measure_load_points(specs, checkpoint=checkpoint)
        assert checkpoint.read_text() == "".join(lines)  # left untouched

    def test_traced_specs_refused(self, tmp_path):
        spec = LoadPoint(load=0.1, network=MESH16, cycles=40,
                         trace_sample_period=4)
        with pytest.raises(ConfigurationError, match="trace"):
            measure_load_points([spec], checkpoint=tmp_path / "sweep.jsonl")
