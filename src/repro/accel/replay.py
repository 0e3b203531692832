"""Build, run and measure a trace replay on any registered fabric.

:class:`ReplaySystem` attaches the endpoint models of
:mod:`repro.accel.endpoints` to a freshly built registry fabric and runs
the replay to completion in fixed tick chunks — the same chunking under
both kernel modes, so the activity-driven fast path and the naive loop
execute identical tick sequences and the results are bit-identical.

:class:`ReplayPoint` is the picklable mapping-sweep spec: it rides
:func:`repro.analysis.parallel.parallel_map` to worker processes and
hashes stably for checkpoints (its fabric config field is named
``network`` for :func:`~repro.analysis.parallel.spec_hash`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.accel.endpoints import (
    HEADER_WORDS,
    MAX_PACKET_FLITS_CAP,
    ControlProcessor,
    DEFAULT_MEM_WORDS_PER_CYCLE,
    MemoryChannel,
    ProcessingElement,
)
from repro.accel.generators import generate_trace
from repro.accel.placement import Placement, default_placement
from repro.accel.trace import AccelTrace, load_accel_trace
from repro.fabric.registry import FabricConfig

#: Replays abort (``completed=False``) past this many cycles.
DEFAULT_MAX_CYCLES = 500_000

#: Ticks per ``run_ticks`` chunk of the replay loop — fixed, so both
#: kernel modes advance through exactly the same tick sequence.
CHUNK_TICKS = 64


def max_packet_flits(network) -> int:
    """The packet bound the replay's bursts must respect on ``network``.

    Ring-closing wormhole fabrics enforce the bubble rule (packets must
    leave a buffer slot spare); everything else gets the flat cap.
    """
    cap = MAX_PACKET_FLITS_CAP
    if network.max_packet_flits is not None:
        cap = min(cap, network.max_packet_flits)
        if cap < HEADER_WORDS + 1:
            raise ConfigurationError(
                f"replay on a ring-closing wormhole fabric needs "
                f"buffer_depth >= {HEADER_WORDS + 2} for its "
                f"{HEADER_WORDS + 1}-flit request packets "
                f"(got {network.config.buffer_depth}); raise "
                f"buffer_depth or use flow_control='vc'"
            )
    return cap


@dataclass(frozen=True)
class PEResult:
    """Per-PE accounting of one replay."""

    pe: int
    compute_cycles: int
    stall_cycles: int
    utilization: float
    events: tuple[int, ...]


@dataclass(frozen=True)
class ReplayResults:
    """What one replay measured — plain data, stable across repeats.

    Deliberately free of packet ids and wall-clock anything: the JSON
    form is byte-identical across kernel modes and repeat runs, which is
    the determinism contract the tests pin down.
    """

    model: str
    topology: str
    flow_control: str
    completed: bool
    makespan_cycles: int
    noc_stall_cycles: int
    commands_sent: int
    packets_delivered: int
    flits_delivered: int
    per_pe: tuple[PEResult, ...]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "topology": self.topology,
            "flow_control": self.flow_control,
            "completed": self.completed,
            "makespan_cycles": self.makespan_cycles,
            "noc_stall_cycles": self.noc_stall_cycles,
            "commands_sent": self.commands_sent,
            "packets_delivered": self.packets_delivered,
            "flits_delivered": self.flits_delivered,
            "per_pe": [
                {"pe": r.pe, "compute_cycles": r.compute_cycles,
                 "stall_cycles": r.stall_cycles,
                 "utilization": r.utilization,
                 "events": list(r.events)}
                for r in self.per_pe
            ],
        }

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_dict(), sort_keys=True)


class ReplaySystem:
    """The endpoint models attached to one freshly built fabric."""

    def __init__(self, trace: AccelTrace, config: FabricConfig,
                 placement: Placement | None = None,
                 mem_words_per_cycle: int = DEFAULT_MEM_WORDS_PER_CYCLE):
        if config.backend != "dispatch":
            raise ConfigurationError(
                "replay endpoints are dispatch components; the array "
                "backend has no delivery handlers — use "
                "backend='dispatch'"
            )
        self.trace = trace
        self.config = config
        self.network = config.build()
        self.placement = placement if placement is not None \
            else default_placement(config.ports, trace.pes, trace.mems)
        self.placement.check_fits(config.ports)
        if len(self.placement.pes) != trace.pes \
                or len(self.placement.mems) != trace.mems:
            raise ConfigurationError(
                f"placement shape ({len(self.placement.pes)} PEs, "
                f"{len(self.placement.mems)} mems) does not match the "
                f"trace ({trace.pes} PEs, {trace.mems} mems)"
            )
        bound = max_packet_flits(self.network)
        kernel = self.network.kernel
        # Registration order is part of the determinism contract: CP,
        # then PEs, then memory channels, all after the network's own
        # components so a delivery wakes its endpoint on the same tick.
        self.cp = ControlProcessor(kernel, self.network, trace,
                                   self.placement)
        events = {event.event_id: event for event in trace.events}
        self.pes = [
            ProcessingElement(kernel, self.network, index, events,
                              self.placement, bound)
            for index in range(trace.pes)
        ]
        self.mems = [
            MemoryChannel(kernel, self.network, index, self.placement,
                          bound, mem_words_per_cycle)
            for index in range(trace.mems)
        ]

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> "ReplayResults":
        """Run to completion (or the cycle budget) and collect results."""
        budget_ticks = 2 * max_cycles
        kernel = self.network.kernel
        while not self.cp.done and kernel.tick < budget_ticks:
            self.network.run_ticks(CHUNK_TICKS)
        return self.results()

    def results(self) -> "ReplayResults":
        makespan = self.cp.makespan_cycles
        per_pe = tuple(
            PEResult(
                pe=pe.index,
                compute_cycles=pe.compute_cycles,
                stall_cycles=pe.stall_cycles,
                utilization=(pe.compute_cycles / makespan
                             if makespan else 0.0),
                events=tuple(pe.compute_log),
            )
            for pe in self.pes
        )
        return ReplayResults(
            model=self.trace.model,
            topology=self.config.topology,
            flow_control=self.config.flow_control,
            completed=self.cp.done,
            makespan_cycles=makespan,
            noc_stall_cycles=sum(pe.stall_cycles for pe in self.pes),
            commands_sent=self.cp.commands_sent,
            packets_delivered=self.network.stats.packets_delivered,
            flits_delivered=self.network.stats.flits_delivered,
            per_pe=per_pe,
        )


def replay_trace_on_fabric(trace: AccelTrace, config: FabricConfig,
                           placement: Placement | None = None,
                           max_cycles: int = DEFAULT_MAX_CYCLES,
                           ) -> ReplayResults:
    """Convenience: build a :class:`ReplaySystem` and run it."""
    return ReplaySystem(trace, config, placement).run(max_cycles)


# -- mapping sweeps ------------------------------------------------------

@dataclass(frozen=True)
class ReplayPoint:
    """Picklable spec of one replay measurement.

    The trace arrives either by file (``trace_path``) or regenerated in
    the worker from ``(model, pes, mems, seed)`` — both deterministic,
    so equal specs give equal results in any process.
    """

    network: FabricConfig = field(default_factory=FabricConfig)
    model: str = "llm-decode"
    trace_path: str | None = None
    pes: int = 4
    mems: int = 2
    seed: int = 0
    placement: Placement | None = None
    max_cycles: int = DEFAULT_MAX_CYCLES


def evaluate_replay_point(point: ReplayPoint) -> dict:
    """Worker-side evaluation of one :class:`ReplayPoint`."""
    if point.trace_path is not None:
        trace = load_accel_trace(point.trace_path)
    else:
        trace = generate_trace(point.model, pes=point.pes,
                               mems=point.mems, seed=point.seed)
    results = replay_trace_on_fabric(trace, point.network,
                                     point.placement, point.max_cycles)
    return results.to_dict()


def measure_replay_points(points: list[ReplayPoint],
                          workers: int | None = None) -> list[dict]:
    """Evaluate replay points, in worker processes when asked.

    Results come back in ``points`` order and are identical to the
    serial evaluation (see :func:`repro.analysis.parallel.parallel_map`).
    """
    from repro.analysis.parallel import parallel_map
    return parallel_map(evaluate_replay_point, points, workers)


def sweep_placements(config: FabricConfig, model: str = "llm-decode",
                     trace_path: str | None = None, pes: int = 4,
                     mems: int = 2, seed: int = 0,
                     offsets: tuple[int, ...] = (0, 1, 2, 3),
                     workers: int | None = None,
                     max_cycles: int = DEFAULT_MAX_CYCLES) -> list[dict]:
    """Replay the same trace under rotated placements; one dict per
    offset (the replay results plus the ``"offset"`` key).

    Rotation slides the whole CP/PE/memory arrangement around the
    fabric, exposing how much of the makespan is mapping-induced.
    """
    if trace_path is not None:
        shape = load_accel_trace(trace_path)
        pes, mems = shape.pes, shape.mems
    base = default_placement(config.ports, pes, mems)
    points = [
        ReplayPoint(network=config, model=model, trace_path=trace_path,
                    pes=pes, mems=mems, seed=seed,
                    placement=base.rotated(offset, config.ports),
                    max_cycles=max_cycles)
        for offset in offsets
    ]
    results = measure_replay_points(points, workers)
    return [{"offset": offset, **result}
            for offset, result in zip(offsets, results)]
