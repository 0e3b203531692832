"""Pipeline stages: capacity-1 registers with integrated flow control.

This is the paper's Fig. 4 in executable form. Each stage is one register
bank clocked on one edge; adjacent stages use opposite edges. At its edge a
stage:

1. retires its held flit if the downstream stage accepted it (the accept
   was asserted at downstream's edge, half a period ago);
2. if (now) empty and the upstream channel shows a valid flit, latches it
   and asserts accept upstream for one half-period;
3. keeps driving its (possibly empty) contents downstream.

The register enable fires only in steps 1-2; otherwise the stage's clock is
gated — counted in :class:`repro.clocking.gating.GatingStats`. Data can move
at full clock speed (one flit per cycle per stage), the pipeline freezes
within a cycle under congestion, resumes within a cycle after it clears,
and no stage ever needs more than its single register — the "no stall
buffers" property.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError
from repro.noc.flit import Flit
from repro.noc.handshake import HandshakeChannel
from repro.sim.component import ClockedComponent, GatedComponentMixin
from repro.sim.kernel import SimKernel


class PipelineStage(GatedComponentMixin, ClockedComponent):
    """One alternating-edge pipeline register with valid/accept control."""

    def __init__(self, kernel: SimKernel, name: str, parity: int,
                 upstream: HandshakeChannel, downstream: HandshakeChannel):
        super().__init__(name, parity)
        self.upstream = upstream
        self.downstream = downstream
        self.reg_flit: Flit | None = None
        self.reg_valid = False
        self._gating = GatingStats()
        self.flits_passed = 0
        self._up_valid, self._up_data, self._up_accept = upstream.wires
        self._down_valid, self._down_data, self._down_accept = \
            downstream.wires
        kernel.add_component(self)

    @property
    def occupied(self) -> bool:
        return self.reg_valid

    def on_edge(self, tick: int) -> None:
        enabled = False
        # 1. Retire on downstream accept (asserted at its edge, last tick).
        if self.reg_valid and self._down_accept.value:
            self.reg_valid = False
            enabled = True
        # 2. Latch from upstream if empty.
        if not self.reg_valid and self._up_valid.value:
            self.reg_flit = self._up_data.value
            self.reg_valid = True
            self.flits_passed += 1
            self._up_accept.set(True, tick)
            enabled = True
        else:
            self._up_accept.set(False, tick)
        # 3. Drive downstream.
        flit = self.reg_flit if self.reg_valid else None
        self._down_valid.set(flit is not None, tick)
        self._down_data.set(flit, tick)
        self.record_edge(tick, enabled)
        if not enabled:
            # A disabled edge is a fixed point: with the inputs unchanged,
            # every following edge repeats it exactly.
            self.sleep_until(self._up_valid, self._down_accept)


class SourceStage(ClockedComponent):
    """Injects flits into a channel, holding each until accepted.

    Flits come either from an internal queue (:meth:`send`) or from a
    pull callback supplied at construction (returns the next flit or None).
    """

    def __init__(self, kernel: SimKernel, name: str, parity: int,
                 downstream: HandshakeChannel,
                 puller: Callable[[int], Flit | None] | None = None):
        super().__init__(name, parity)
        self.downstream = downstream
        self.queue: deque[Flit] = deque()
        self._puller = puller
        self.driving: Flit | None = None
        self.flits_sent = 0
        self.launch_ticks: dict[tuple[int, int], int] = {}
        kernel.add_component(self)

    def send(self, flits: Iterable[Flit]) -> None:
        self.queue.extend(flits)
        self.wake()

    @property
    def idle(self) -> bool:
        return self.driving is None and not self.queue

    def on_edge(self, tick: int) -> None:
        if self.driving is not None and self.downstream.accepted:
            self.flits_sent += 1
            self.driving = None
        if self.driving is None:
            if self.queue:
                self.driving = self.queue.popleft()
            elif self._puller is not None:
                self.driving = self._puller(tick)
            if self.driving is not None:
                self.launch_ticks[(self.driving.packet_id, self.driving.seq)] = tick
        self.downstream.drive(self.driving, tick)
        if self.driving is None and self._puller is None and not self.queue:
            # Nothing to send and no pull source: wait for send().
            self.sleep_until()


class SinkStage(ClockedComponent):
    """Consumes flits from a channel, with an optional stall schedule.

    ``ready`` is a callback deciding, per edge, whether the sink accepts;
    the default always accepts. Received flits are recorded with their
    arrival tick — the raw material of latency statistics and of the
    no-loss/no-reorder property tests.
    """

    def __init__(self, kernel: SimKernel, name: str, parity: int,
                 upstream: HandshakeChannel,
                 ready: Callable[[int], bool] | None = None):
        super().__init__(name, parity)
        self.upstream = upstream
        self._ready = ready if ready is not None else (lambda tick: True)
        self.received: list[tuple[int, Flit]] = []
        kernel.add_component(self)

    @property
    def flits(self) -> list[Flit]:
        return [flit for _, flit in self.received]

    def on_edge(self, tick: int) -> None:
        if self.upstream.valid and self._ready(tick):
            self.received.append((tick, self.upstream.data))
            self._kernel.emit("flit", self.upstream.data)
            self.upstream.respond(True, tick)
        else:
            self.upstream.respond(False, tick)
            if not self.upstream.valid:
                # The ready schedule only matters while data waits; with
                # no valid flit the edge is a no-op until valid rises.
                self.sleep_until(self.upstream.valid_signal)


def build_pipeline(kernel: SimKernel, name: str, stages: int,
                   source_parity: int = 0,
                   ready: Callable[[int], bool] | None = None,
                   ) -> tuple[SourceStage, list[PipelineStage], SinkStage]:
    """A straight pipeline: source -> N stages -> sink, alternating parity.

    The workhorse of the flow-control experiments and property tests.
    """
    if stages < 0:
        raise ConfigurationError(f"stage count must be >= 0, got {stages}")
    channels = [HandshakeChannel(kernel, f"{name}.ch{i}")
                for i in range(stages + 1)]
    source = SourceStage(kernel, f"{name}.src", source_parity, channels[0])
    stage_list = []
    parity = source_parity
    for i in range(stages):
        parity ^= 1
        stage_list.append(PipelineStage(
            kernel, f"{name}.s{i}", parity, channels[i], channels[i + 1]
        ))
    sink = SinkStage(kernel, f"{name}.sink", parity ^ 1, channels[stages],
                     ready=ready)
    return source, stage_list, sink
