"""Trace record/replay round-trips."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traffic.base import Injection
from repro.traffic.patterns import UniformRandom
from repro.traffic.trace import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    TraceRecorder,
    replay_trace,
)

HEADER = json.dumps({"schema": TRACE_SCHEMA, "version": TRACE_VERSION}) + "\n"


class TestTrace:
    def test_roundtrip(self, tmp_path):
        recorder = TraceRecorder()
        schedule = UniformRandom(ports=8, load=0.3).generate(
            50, np.random.default_rng(0)
        )
        recorder.extend(schedule)
        path = tmp_path / "trace.jsonl"
        recorder.save(path)
        replayed = replay_trace(path)
        assert replayed == schedule

    def test_record_single(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(Injection(cycle=1, src=0, dest=3, size_flits=2))
        path = tmp_path / "one.jsonl"
        recorder.save(path)
        assert replay_trace(path) == [
            Injection(cycle=1, src=0, dest=3, size_flits=2)
        ]

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        TraceRecorder().save(path)
        assert replay_trace(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            HEADER +
            '{"cycle": 0, "src": 1, "dest": 2, "size_flits": 1}\n'
            '\n'
            '{"cycle": 1, "src": 2, "dest": 1, "size_flits": 3}\n'
        )
        assert len(replay_trace(path)) == 2

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER +
                        '{"cycle": 0, "src": 1, "dest": 2, "size_flits": 1}\n'
                        'not json\n')
        with pytest.raises(ConfigurationError, match="line 3"):
            replay_trace(path)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(HEADER + '{"cycle": 0, "src": 1}\n')
        with pytest.raises(ConfigurationError, match="missing key"):
            replay_trace(path)


class TestSchemaVersion:
    def test_saved_traces_carry_the_header(self, tmp_path):
        path = tmp_path / "versioned.jsonl"
        recorder = TraceRecorder()
        recorder.record(Injection(cycle=0, src=0, dest=1, size_flits=1))
        recorder.save(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": TRACE_SCHEMA,
                          "version": TRACE_VERSION}

    def test_version_mismatch_names_file_and_versions(self, tmp_path):
        path = tmp_path / "from_the_future.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA,
                                    "version": 42}) + "\n")
        with pytest.raises(ConfigurationError) as err:
            replay_trace(path)
        message = str(err.value)
        assert "from_the_future.jsonl" in message
        assert "42" in message
        assert str(TRACE_VERSION) in message

    def test_wrong_schema_name_rejected(self, tmp_path):
        path = tmp_path / "accel.jsonl"
        path.write_text(json.dumps({"schema": "repro.accel.trace",
                                    "version": 1}) + "\n")
        with pytest.raises(ConfigurationError, match="schema"):
            replay_trace(path)

    def test_headerless_file_rejected(self, tmp_path):
        """One rule for both loaders (cf. the accel trace's
        ``test_missing_header_rejected``): no header, no load."""
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            '{"cycle": 0, "src": 1, "dest": 2, "size_flits": 1}\n')
        with pytest.raises(ConfigurationError) as err:
            replay_trace(path)
        message = str(err.value)
        assert "legacy.jsonl" in message
        assert f"first line naming schema {TRACE_SCHEMA!r}" in message
