"""The flow-control designs the paper's scheme replaces — as an ablation.

Section 5: "Traditionally, in order to realize back pressure flow control,
extra stall buffers are needed to absorb incoming data, when the forward
path is congested. Alternatively, the pipeline should be clocked at double
the speed of the data – at double clock frequency or using dual-edge
triggered registers – reserving one cycle for data transfer, one for
congestion control."

This module implements the first alternative faithfully enough to compare:
a **same-edge** pipeline whose stages carry a 2-deep skid buffer (the
stall buffer that absorbs the flit already in flight when ``stop``
arrives one cycle late). The record's EXP-FC-ABL
(:mod:`repro.analysis.experiments`) races it against the paper's
2-phase pipeline; the three schemes differ in register and clock cost:

| scheme | extra registers per stage | clock rate |
|---|---|---|
| stall-buffer (skid) | +1 flit-wide buffer | 1x |
| double-clocked | none | 2x (or dual-edge FFs) |
| IC-NoC 2-phase (paper) | none | 1x |
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.noc.flit import Flit
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.sim.signal import Signal
from repro.telemetry.metrics import TimeWeightedGauge


class SkidChannel:
    """Same-edge valid/stop channel (stop observed one cycle late)."""

    def __init__(self, kernel: SimKernel, name: str):
        self.flit: Signal = kernel.signal(f"{name}.flit", initial=None)
        self.stop: Signal = kernel.signal(f"{name}.stop", initial=False)


class SkidBufferStage(ClockedComponent):
    """One stage of a conventional same-edge elastic pipeline.

    All stages share parity 0 (single-edge clocking). Because ``stop``
    takes a full cycle to reach the producer, a stage must be able to
    absorb one in-flight flit beyond its output register — the 2-deep
    skid buffer. Asserts ``stop`` upstream when the buffer is half full.
    """

    CAPACITY = 2  # output register + one skid slot

    def __init__(self, kernel: SimKernel, name: str,
                 upstream: SkidChannel, downstream: SkidChannel):
        super().__init__(name, parity=0)
        self.upstream = upstream
        self.downstream = downstream
        self.buffer: deque[Flit] = deque()
        self.flits_passed = 0
        self.occupancy = TimeWeightedGauge(kernel.tick)
        kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        active = False
        # 1. Receive whatever is in flight (cannot be refused: that is
        #    what the skid slot is for).
        payload = self.upstream.flit.value
        if payload is not None:
            flit, sent_tick = payload
            if sent_tick == tick - 2:
                if len(self.buffer) >= self.CAPACITY:
                    raise ConfigurationError(
                        f"{self.name}: skid overflow — stop arrived too late"
                    )
                self.buffer.append(flit)
                active = True
        # Sampled at the same point the old ad-hoc peak counter was, so
        # the gauge's peak reproduces its numbers exactly — and adds the
        # time-weighted mean for free.
        self.occupancy.update(tick, len(self.buffer))
        # 2. Forward if downstream did not signal stop (sampled 1 cycle
        #    old). Receiving first models the combinational ready path of
        #    a real skid buffer: a flit can enter and claim the output
        #    register in the same cycle, keeping 1 cycle/hop latency.
        if self.buffer and not self.downstream.stop.value:
            flit = self.buffer.popleft()
            self.downstream.flit.set((flit, tick), tick)
            self.flits_passed += 1
            active = True
        # 3. Backpressure: stop while anything is held — by the time the
        #    producer sees it, exactly one more flit may arrive (skid).
        #    Written on change only, so an idle stage drives nothing.
        stop = len(self.buffer) >= self.CAPACITY - 1
        if stop != bool(self.upstream.stop.value):
            self.upstream.stop.set(stop, tick)
            active = True
        if not active:
            # Fixed point: nothing arrived, nothing moved (empty, or
            # blocked by a stop that only a signal change can lift).
            self.sleep_until(self.upstream.flit, self.downstream.stop)

    @property
    def peak_occupancy(self) -> int:
        """Deepest the skid buffer ever got (gauge-backed)."""
        return self.occupancy.peak


class SkidSource(ClockedComponent):
    """Injects flits into a skid pipeline, honouring stop."""

    def __init__(self, kernel: SimKernel, name: str,
                 downstream: SkidChannel):
        super().__init__(name, parity=0)
        self.downstream = downstream
        self.queue: deque[Flit] = deque()
        kernel.add_component(self)

    def send(self, flits: Iterable[Flit]) -> None:
        self.queue.extend(flits)
        self.wake()

    def on_edge(self, tick: int) -> None:
        if self.queue and not self.downstream.stop.value:
            self.downstream.flit.set((self.queue.popleft(), tick), tick)
        elif self.queue:
            # Blocked: only a change of the stop wire can unblock us.
            self.sleep_until(self.downstream.stop)
        else:
            # Drained: wait for the next send().
            self.sleep_until()


class SkidSink(ClockedComponent):
    """Consumes from a skid pipeline with an optional stall schedule."""

    def __init__(self, kernel: SimKernel, name: str, upstream: SkidChannel,
                 ready: Callable[[int], bool] | None = None):
        super().__init__(name, parity=0)
        self.upstream = upstream
        self._ready = ready if ready is not None else (lambda tick: True)
        self.buffer: deque[Flit] = deque()
        self.received: list[tuple[int, Flit]] = []
        kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        active = False
        payload = self.upstream.flit.value
        if payload is not None:
            flit, sent_tick = payload
            if sent_tick == tick - 2:
                if len(self.buffer) >= 2:
                    raise ConfigurationError(f"{self.name}: sink overflow")
                self.buffer.append(flit)
                active = True
        if self.buffer and self._ready(tick):
            self.received.append((tick, self.buffer.popleft()))
            active = True
        stop = len(self.buffer) >= 1
        if stop != bool(self.upstream.stop.value):
            self.upstream.stop.set(stop, tick)
            active = True
        if not active and not self.buffer:
            # Empty and nothing in flight; the ready schedule is only
            # consulted while data waits, so the next edge is a no-op
            # until the flit wire changes.
            self.sleep_until(self.upstream.flit)

    @property
    def flits(self) -> list[Flit]:
        return [flit for _, flit in self.received]


def build_skid_pipeline(kernel: SimKernel, name: str, stages: int,
                        ready: Callable[[int], bool] | None = None):
    """Source -> N skid stages -> sink, all clocked on the same edge."""
    if stages < 0:
        raise ConfigurationError("stage count must be >= 0")
    channels = [SkidChannel(kernel, f"{name}.ch{i}")
                for i in range(stages + 1)]
    source = SkidSource(kernel, f"{name}.src", channels[0])
    stage_list = [
        SkidBufferStage(kernel, f"{name}.s{i}", channels[i], channels[i + 1])
        for i in range(stages)
    ]
    sink = SkidSink(kernel, f"{name}.sink", channels[stages], ready=ready)
    return source, stage_list, sink
