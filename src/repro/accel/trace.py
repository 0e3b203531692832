"""The portable accelerator trace format (versioned JSONL).

A trace is a dependency graph of work on an accelerator system: compute
events (GEMM shapes lowered to cycle costs) and DMA transfers (byte sizes
lowered to flit bursts), each bound to one processing element and
predicated on earlier events. The on-disk form is JSON lines: a mandatory
header naming the schema and version (shared machinery with
:mod:`repro.traffic.trace`), then one event per line.

The format is deliberately independent of any fabric: the same file
replays on the tree, the mesh and the torus, which is what makes the
comparison table's workload column like-for-like.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.traffic.trace import (
    check_trace_header,
    iter_trace_lines,
    trace_header,
)

#: Schema name and current version of the accelerator trace format.
ACCEL_TRACE_SCHEMA = "repro.accel.trace"
ACCEL_TRACE_VERSION = 1

#: Compute events carry this kind tag; DMA transfers the other.
KIND_COMPUTE = "compute"
KIND_DMA = "dma"

#: Link word width: DMA byte counts lower to 32-bit payload words.
BYTES_PER_FLIT = 4

#: Default multiply-accumulate throughput of one PE (MACs per cycle) —
#: a 16x16 systolic tile, the scale the paper's SoC endpoints assume.
DEFAULT_MACS_PER_CYCLE = 256


def gemm_cycles(m: int, n: int, k: int,
                macs_per_cycle: int = DEFAULT_MACS_PER_CYCLE) -> int:
    """Cycle cost of an ``m x k @ k x n`` GEMM on one PE."""
    if min(m, n, k) < 1 or macs_per_cycle < 1:
        raise ConfigurationError("gemm dimensions must be >= 1")
    return max(1, math.ceil(m * n * k / macs_per_cycle))


def dma_flits(n_bytes: int) -> int:
    """Payload flits a DMA transfer of ``n_bytes`` occupies on the wire."""
    if n_bytes < 1:
        raise ConfigurationError("dma transfers must move >= 1 byte")
    return max(1, math.ceil(n_bytes / BYTES_PER_FLIT))


@dataclass(frozen=True)
class AccelEvent:
    """One node of the workload graph.

    ``kind == "compute"``: the PE is busy for ``cycles`` cycles
    (optionally annotated with the ``gemm`` shape that produced the
    cost). ``kind == "dma"``: the PE moves ``n_bytes`` to (``write``) or
    from (``read``) memory channel ``mem``. ``deps`` lists the ids of
    events that must complete first; ids of a trace are unique and deps
    only ever point backwards, so the graph is acyclic by construction.
    """

    event_id: int
    kind: str
    pe: int
    cycles: int = 0
    mem: int = 0
    direction: str = ""
    n_bytes: int = 0
    deps: tuple[int, ...] = ()
    gemm: tuple[int, int, int] | None = None

    @property
    def flits(self) -> int:
        """Payload flits of a DMA event (0 for compute)."""
        return dma_flits(self.n_bytes) if self.kind == KIND_DMA else 0


@dataclass(frozen=True)
class AccelTrace:
    """A validated workload graph plus the system shape it targets."""

    model: str
    pes: int
    mems: int
    seed: int
    events: tuple[AccelEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.pes < 1 or self.mems < 1:
            raise ConfigurationError(
                f"a trace needs >= 1 PE and >= 1 memory channel "
                f"(got pes={self.pes}, mems={self.mems})"
            )
        seen: set[int] = set()
        for event in self.events:
            if event.event_id in seen:
                raise ConfigurationError(
                    f"duplicate event id {event.event_id}")
            if not 0 <= event.pe < self.pes:
                raise ConfigurationError(
                    f"event {event.event_id}: pe {event.pe} out of range "
                    f"for {self.pes} PEs")
            for dep in event.deps:
                if dep not in seen:
                    raise ConfigurationError(
                        f"event {event.event_id}: dep {dep} does not "
                        f"name an earlier event")
            if event.kind == KIND_COMPUTE:
                if event.cycles < 1:
                    raise ConfigurationError(
                        f"event {event.event_id}: compute needs "
                        f"cycles >= 1")
            elif event.kind == KIND_DMA:
                if event.direction not in ("read", "write"):
                    raise ConfigurationError(
                        f"event {event.event_id}: dma direction must be "
                        f"'read' or 'write', got {event.direction!r}")
                if not 0 <= event.mem < self.mems:
                    raise ConfigurationError(
                        f"event {event.event_id}: mem {event.mem} out of "
                        f"range for {self.mems} channels")
                if event.n_bytes < 1:
                    raise ConfigurationError(
                        f"event {event.event_id}: dma needs bytes >= 1")
            else:
                raise ConfigurationError(
                    f"event {event.event_id}: unknown kind {event.kind!r}")
            seen.add(event.event_id)

    @property
    def compute_cycles_per_pe(self) -> dict[int, int]:
        """Total busy cycles each PE owes — the utilisation denominator's
        numerator (work done), independent of any fabric."""
        totals = {pe: 0 for pe in range(self.pes)}
        for event in self.events:
            if event.kind == KIND_COMPUTE:
                totals[event.pe] += event.cycles
        return totals


def save_accel_trace(trace: AccelTrace, path: str | Path) -> None:
    """Serialise a trace to versioned JSONL (header line first)."""
    with open(path, "w") as handle:
        handle.write(json.dumps(trace_header(
            ACCEL_TRACE_SCHEMA, ACCEL_TRACE_VERSION, model=trace.model,
            pes=trace.pes, mems=trace.mems, seed=trace.seed)) + "\n")
        for event in trace.events:
            record: dict = {"id": event.event_id, "kind": event.kind,
                            "pe": event.pe}
            if event.kind == KIND_COMPUTE:
                record["cycles"] = event.cycles
                if event.gemm is not None:
                    record["gemm"] = list(event.gemm)
            else:
                record["mem"] = event.mem
                record["dir"] = event.direction
                record["bytes"] = event.n_bytes
            if event.deps:
                record["deps"] = list(event.deps)
            handle.write(json.dumps(record) + "\n")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _event_from(record: dict, where: str) -> AccelEvent:
    """One event line as an :class:`AccelEvent`. A missing key or a
    mistyped field is a :class:`ConfigurationError` prefixed ``where``
    (the file and line), never a ``TypeError`` from the checks after."""
    for key in ("kind", "id", "pe"):
        if key not in record:
            raise ConfigurationError(f"{where}: missing key {key!r}")
    for key in ("id", "pe", "cycles", "mem", "bytes"):
        if key in record and not _is_int(record[key]):
            raise ConfigurationError(
                f"{where}: {key!r} must be an integer, got {record[key]!r}")
    deps = record.get("deps", [])
    if not isinstance(deps, list) or not all(map(_is_int, deps)):
        raise ConfigurationError(
            f"{where}: 'deps' must be a list of integers, got {deps!r}")
    gemm = record.get("gemm")
    if gemm is not None and not (isinstance(gemm, list) and len(gemm) == 3
                                 and all(map(_is_int, gemm))):
        raise ConfigurationError(
            f"{where}: 'gemm' must be three integers, got {gemm!r}")
    return AccelEvent(
        event_id=record["id"], kind=record["kind"], pe=record["pe"],
        cycles=record.get("cycles", 0),
        mem=record.get("mem", 0),
        direction=record.get("dir", ""),
        n_bytes=record.get("bytes", 0),
        deps=tuple(deps),
        gemm=tuple(gemm) if gemm is not None else None,
    )


def load_accel_trace(path: str | Path) -> AccelTrace:
    """Load and validate a trace written by :func:`save_accel_trace`.

    The header is mandatory (:func:`~repro.traffic.trace
    .check_trace_header`, shared with the injection-trace loader); a
    missing or mismatched header is a loud :class:`ConfigurationError`
    naming the file and the found/expected version. So is any event
    line that is not an object with integer ``id``/``pe``/sizes and an
    integer ``deps`` list: the message names the file and the 1-based
    line.
    """
    header: dict | None = None
    events: list[AccelEvent] = []
    for line_number, record in iter_trace_lines(path):
        if header is None:
            check_trace_header(record, path, ACCEL_TRACE_SCHEMA,
                               ACCEL_TRACE_VERSION)
            header = record
            continue
        events.append(_event_from(record,
                                  f"{path}: bad trace line {line_number}"))
    if header is None:
        raise ConfigurationError(f"{path}: empty accel trace file")
    for key in ("pes", "mems"):
        if key in header and not _is_int(header[key]):
            raise ConfigurationError(
                f"{path}: accel trace header {key!r} must be an integer, "
                f"got {header[key]!r}")
    try:
        return AccelTrace(
            model=header.get("model", "unknown"),
            pes=header["pes"], mems=header["mems"],
            seed=header.get("seed", 0), events=tuple(events),
        )
    except KeyError as exc:
        raise ConfigurationError(
            f"{path}: accel trace header missing key {exc}"
        ) from exc
