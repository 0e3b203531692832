"""Fault injection: break a pipeline stage and watch the safety nets fire.

Timing-safe does not mean fault-free; this module exists to exercise the
detection machinery (protocol monitors, deadlock watchdog, delivery
accounting) against concrete failure modes:

* ``STUCK_STALL``  — the stage's control outputs die (valid and accept
  stuck low): upstream backpressure freezes the path and downstream
  starves; the deadlock watchdog fires. The flit held in the dead
  register is stuck in place, but nothing is duplicated or reordered.
* ``DROP_FLITS``   — the stage acknowledges and discards (a clock-domain
  upset eating data): delivered < injected shows up in the stats and the
  watchdog fires on the missing tail.
* ``CORRUPT_DEST`` — the stage rewrites head-flit destinations (an upset
  in the routing field): packets arrive at the wrong NI, caught by
  delivery accounting.

Faults are injected by wrapping a live stage's ``on_edge``; the original
behaviour is restored by :meth:`FaultInjector.heal`.
"""

from __future__ import annotations

import enum
from dataclasses import replace

from repro.errors import ConfigurationError
from repro.noc.pipeline import PipelineStage


class FaultKind(enum.Enum):
    STUCK_STALL = "stuck_stall"
    DROP_FLITS = "drop_flits"
    CORRUPT_DEST = "corrupt_dest"


class FaultInjector:
    """Wraps one stage with a fault activated from a given tick."""

    def __init__(self, stage: PipelineStage, kind: FaultKind,
                 from_tick: int = 0, corrupt_dest_to: int = 0):
        if from_tick < 0:
            raise ConfigurationError("from_tick must be >= 0")
        self.stage = stage
        self.kind = kind
        self.from_tick = from_tick
        self.corrupt_dest_to = corrupt_dest_to
        self.activations = 0
        self._original = stage.on_edge
        stage.on_edge = self._faulty_edge  # type: ignore[method-assign]
        # A faulted stage no longer honours the idle contract: keep it
        # firing every edge so the fault manifests at from_tick exactly.
        stage.wake()

    def heal(self) -> None:
        """Restore the stage's original behaviour."""
        self.stage.on_edge = self._original  # type: ignore[method-assign]
        self.stage.wake()

    def _faulty_edge(self, tick: int) -> None:
        if tick < self.from_tick:
            self._original(tick)
        else:
            self.activations += 1
            if self.kind is FaultKind.STUCK_STALL:
                self._stuck_stall(tick)
            elif self.kind is FaultKind.DROP_FLITS:
                self._drop_flits(tick)
            else:
                self._corrupt_dest(tick)
        # The delegated healthy edge (pre-fault, and inside CORRUPT_DEST)
        # may have put the stage to sleep; a faulted stage must keep
        # firing every edge, exactly like the naive loop does.
        self.stage.wake()

    def _stuck_stall(self, tick: int) -> None:
        stage = self.stage
        # Control outputs dead: never accept upstream, never present valid
        # data downstream. Whatever sits in the register is stuck there.
        stage.upstream.respond(False, tick)
        stage.downstream.drive(None, tick)
        stage.record_edge(tick, False)

    def _drop_flits(self, tick: int) -> None:
        stage = self.stage
        # Acknowledge upstream as usual, but discard instead of storing.
        if stage.reg_valid and stage.downstream.accepted:
            stage.reg_valid = False
        if not stage.reg_valid and stage.upstream.valid:
            stage.upstream.respond(True, tick)  # eats the flit
        else:
            stage.upstream.respond(False, tick)
        stage.downstream.drive(stage.reg_flit if stage.reg_valid else None,
                               tick)

    def _corrupt_dest(self, tick: int) -> None:
        stage = self.stage
        self._original(tick)
        if stage.reg_valid and stage.reg_flit is not None \
                and stage.reg_flit.is_head \
                and stage.reg_flit.dest != self.corrupt_dest_to:
            stage.reg_flit = replace(stage.reg_flit,
                                     dest=self.corrupt_dest_to)
            # Deliberate override of the value the healthy logic drove
            # this tick, outside the multi-driver check.
            stage.downstream.force_drive(stage.reg_flit)


def inject_link_fault(network, kind: FaultKind, stage_index: int = 0,
                      from_tick: int = 0,
                      corrupt_dest_to: int = 0) -> FaultInjector:
    """Break one of a network's link pipeline stages."""
    if not network.link_stages:
        raise ConfigurationError(
            "network has no link stages to break (links too short)"
        )
    if not 0 <= stage_index < len(network.link_stages):
        raise ConfigurationError(f"no link stage {stage_index}")
    return FaultInjector(network.link_stages[stage_index], kind,
                         from_tick=from_tick,
                         corrupt_dest_to=corrupt_dest_to)
