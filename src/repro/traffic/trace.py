"""Traffic traces: record a schedule to a portable form and replay it.

Traces make experiments repeatable across network variants: the same
injection sequence can be replayed against a binary tree, a quad tree and
the mesh baseline for a like-for-like comparison.

The on-disk form is JSON lines with a versioned header: the first line
names the schema and its version, every following line is one record.
A missing header, or one naming a *different* schema or version, is a
loud :class:`~repro.errors.ConfigurationError` so a format change can
never be silently misread. The header rule is shared with the
accelerator trace format (:mod:`repro.accel.trace`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.traffic.base import Injection

#: Schema name and current version of the injection-trace format.
TRACE_SCHEMA = "repro.traffic.trace"
TRACE_VERSION = 1


def iter_trace_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, record)`` for every non-blank JSONL line.

    Malformed JSON, or JSON that is not an object, raises a
    :class:`ConfigurationError` naming the file and the 1-based line
    number. Shared by every trace loader so the error shape is uniform.
    """
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}: bad trace line {line_number}: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ConfigurationError(
                    f"{path}: bad trace line {line_number}: expected a "
                    f"JSON object, got {type(record).__name__}"
                )
            yield line_number, record


def check_trace_header(header: dict, path: str | Path, schema: str,
                       version: int) -> None:
    """Validate a file's first record against the expected schema/version.

    Raises :class:`ConfigurationError` naming the file, the schema, and
    the found/expected versions — the shared contract of every versioned
    trace format in the repo. A first record that is no header at all
    (a headerless file) is rejected the same way.
    """
    if "schema" not in header:
        raise ConfigurationError(
            f"{path}: missing trace header (expected a first line naming "
            f"schema {schema!r} version {version})"
        )
    found_schema = header.get("schema")
    if found_schema != schema:
        raise ConfigurationError(
            f"{path}: trace schema {found_schema!r} is not {schema!r}"
        )
    found = header.get("version")
    if found != version:
        raise ConfigurationError(
            f"{path}: unsupported {schema} version: found {found!r}, "
            f"expected {version}"
        )


def trace_header(schema: str, version: int, **extra: Any) -> dict:
    """The header record a versioned trace file starts with."""
    return {"schema": schema, "version": version, **extra}


class TraceRecorder:
    """Accumulates injections and serialises them to JSON lines."""

    def __init__(self) -> None:
        self.injections: list[Injection] = []

    def record(self, injection: Injection) -> None:
        self.injections.append(injection)

    def extend(self, injections: list[Injection]) -> None:
        self.injections.extend(injections)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(
                trace_header(TRACE_SCHEMA, TRACE_VERSION)) + "\n")
            for injection in self.injections:
                handle.write(json.dumps({
                    "cycle": injection.cycle,
                    "src": injection.src,
                    "dest": injection.dest,
                    "size_flits": injection.size_flits,
                }) + "\n")


def replay_trace(path: str | Path) -> list[Injection]:
    """Load a schedule saved by :class:`TraceRecorder`.

    The first line must be the header; a missing one, or one with the
    wrong schema name or version, is rejected loudly.
    """
    injections = []
    first = True
    for line_number, record in iter_trace_lines(path):
        if first:
            first = False
            check_trace_header(record, path, TRACE_SCHEMA, TRACE_VERSION)
            continue
        try:
            injections.append(Injection(
                cycle=record["cycle"], src=record["src"],
                dest=record["dest"], size_flits=record["size_flits"],
            ))
        except KeyError as exc:
            raise ConfigurationError(
                f"{path}: bad trace line {line_number}: "
                f"missing key {exc}"
            ) from exc
    return injections
