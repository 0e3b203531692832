"""The accel trace schema: round-trips, versioning, validation."""

import json

import pytest

from repro.accel.generators import (
    MODEL_NAMES,
    generate_trace,
    llm_decode_trace,
    param_server_trace,
    tiled_gemm_trace,
)
from repro.accel.trace import (
    ACCEL_TRACE_SCHEMA,
    ACCEL_TRACE_VERSION,
    AccelEvent,
    AccelTrace,
    dma_flits,
    gemm_cycles,
    load_accel_trace,
    save_accel_trace,
)
from repro.errors import ConfigurationError


def tiny_trace():
    return AccelTrace(model="test", pes=2, mems=1, seed=0, events=(
        AccelEvent(event_id=0, kind="compute", pe=0, cycles=5,
                   gemm=(4, 4, 4)),
        AccelEvent(event_id=1, kind="dma", pe=0, mem=0, direction="read",
                   n_bytes=64, deps=(0,)),
        AccelEvent(event_id=2, kind="dma", pe=1, mem=0, direction="write",
                   n_bytes=32),
    ))


class TestCosts:
    def test_gemm_cycles_rounds_up(self):
        assert gemm_cycles(1, 1, 1) == 1
        assert gemm_cycles(16, 16, 16, macs_per_cycle=256) == 16
        assert gemm_cycles(16, 16, 17, macs_per_cycle=256) == 17

    def test_dma_flits_rounds_up(self):
        assert dma_flits(1) == 1
        assert dma_flits(4) == 1
        assert dma_flits(5) == 2

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            gemm_cycles(0, 4, 4)
        with pytest.raises(ConfigurationError):
            dma_flits(0)


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        trace = tiny_trace()
        path = tmp_path / "trace.jsonl"
        save_accel_trace(trace, path)
        assert load_accel_trace(path) == trace

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_accel_trace(tiny_trace(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == ACCEL_TRACE_SCHEMA
        assert header["version"] == ACCEL_TRACE_VERSION
        assert header["pes"] == 2

    def test_version_mismatch_names_file_and_versions(self, tmp_path):
        path = tmp_path / "future.jsonl"
        save_accel_trace(tiny_trace(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]))
        with pytest.raises(ConfigurationError) as err:
            load_accel_trace(path)
        message = str(err.value)
        assert "future.jsonl" in message
        assert "99" in message
        assert str(ACCEL_TRACE_VERSION) in message

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"id": 0, "kind": "compute", "pe": 0, '
                        '"cycles": 1}\n')
        with pytest.raises(ConfigurationError, match="header"):
            load_accel_trace(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({
            "schema": "repro.traffic.trace", "version": 1}) + "\n")
        with pytest.raises(ConfigurationError, match="schema"):
            load_accel_trace(path)

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_accel_trace(tiny_trace(), path)
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(ConfigurationError, match="line 5"):
            load_accel_trace(path)


HEADER = json.dumps({"schema": ACCEL_TRACE_SCHEMA,
                     "version": ACCEL_TRACE_VERSION, "model": "t",
                     "pes": 2, "mems": 1, "seed": 0})


class TestCorruptLines:
    """Valid JSON of the wrong shape is a ConfigurationError naming the
    file and the 1-based line, never a TypeError from the checks after."""

    @pytest.mark.parametrize("line, detail", [
        ("[1, 2, 3]", "expected a JSON object, got list"),
        ("7", "expected a JSON object, got int"),
        ('{"id": 0, "kind": "compute", "pe": 0, "cycles": 5, "deps": 5}',
         "'deps' must be a list of integers, got 5"),
        ('{"id": 0, "kind": "compute", "pe": 0, "cycles": 5, '
         '"deps": ["a"]}', "'deps' must be a list of integers"),
        ('{"id": 0, "kind": "compute", "pe": "x", "cycles": 5}',
         "'pe' must be an integer, got 'x'"),
        ('{"id": [0], "kind": "compute", "pe": 0, "cycles": 5}',
         "'id' must be an integer"),
        ('{"id": 0, "kind": "compute", "pe": 0, "cycles": "5"}',
         "'cycles' must be an integer"),
        ('{"id": 0, "kind": "dma", "pe": 0, "mem": 0, "dir": "read", '
         '"bytes": null}', "'bytes' must be an integer"),
        ('{"id": 0, "kind": "compute", "pe": 0, "cycles": 5, "gemm": 4}',
         "'gemm' must be three integers"),
        ('{"id": 0, "pe": 0, "cycles": 5}', "missing key 'kind'"),
    ])
    def test_event_line_names_file_and_line(self, tmp_path, line, detail):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(HEADER + "\n" + line + "\n")
        with pytest.raises(ConfigurationError) as err:
            load_accel_trace(path)
        assert str(err.value).startswith(
            f"{path}: bad trace line 2: {detail}")

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('["repro.accel.trace", 1]\n')
        with pytest.raises(ConfigurationError,
                           match="line 1: expected a JSON object"):
            load_accel_trace(path)

    def test_header_pes_must_be_an_integer(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(HEADER.replace('"pes": 2', '"pes": "2"') + "\n")
        with pytest.raises(ConfigurationError, match="'pes' must be"):
            load_accel_trace(path)


class TestValidation:
    def test_forward_dep_rejected(self):
        with pytest.raises(ConfigurationError, match="dep"):
            AccelTrace(model="t", pes=1, mems=1, seed=0, events=(
                AccelEvent(event_id=0, kind="compute", pe=0, cycles=1,
                           deps=(1,)),
            ))

    def test_pe_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            AccelTrace(model="t", pes=1, mems=1, seed=0, events=(
                AccelEvent(event_id=0, kind="compute", pe=3, cycles=1),
            ))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            AccelTrace(model="t", pes=1, mems=1, seed=0, events=(
                AccelEvent(event_id=0, kind="sleep", pe=0),
            ))

    def test_bad_dma_direction_rejected(self):
        with pytest.raises(ConfigurationError, match="direction"):
            AccelTrace(model="t", pes=1, mems=1, seed=0, events=(
                AccelEvent(event_id=0, kind="dma", pe=0, mem=0,
                           direction="sideways", n_bytes=4),
            ))

    def test_duplicate_id_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            AccelTrace(model="t", pes=1, mems=1, seed=0, events=(
                AccelEvent(event_id=0, kind="compute", pe=0, cycles=1),
                AccelEvent(event_id=0, kind="compute", pe=0, cycles=1),
            ))


class TestGenerators:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_same_seed_same_file_bytes(self, model, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_accel_trace(generate_trace(model, seed=7), a)
        save_accel_trace(generate_trace(model, seed=7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_trace(self):
        assert llm_decode_trace(seed=0) != llm_decode_trace(seed=1)
        assert param_server_trace(seed=0) != param_server_trace(seed=1)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_generated_traces_validate_and_roundtrip(self, model,
                                                     tmp_path):
        trace = generate_trace(model, pes=2, mems=1, seed=3)
        assert trace.pes == 2
        assert trace.events
        path = tmp_path / "gen.jsonl"
        save_accel_trace(trace, path)
        assert load_accel_trace(path) == trace

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            generate_trace("resnet-9000")

    def test_gemm_tiling_must_divide(self):
        with pytest.raises(ConfigurationError, match="tile"):
            tiled_gemm_trace(m=100, n=128, tile=32)

    def test_every_pe_gets_compute_work(self):
        trace = llm_decode_trace(pes=4, mems=2, seed=0)
        per_pe = trace.compute_cycles_per_pe
        assert set(per_pe) == {0, 1, 2, 3}
        assert all(cycles > 0 for cycles in per_pe.values())
