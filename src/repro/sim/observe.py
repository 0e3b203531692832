"""Event-driven observability: probes that keep the fast path.

A callback fired on every tick would forbid the kernel's quiescent
fast-forward — an instrumented run would pay naive-loop speed for
visibility — so the kernel offers none. Instrumentation (``VCDWriter``,
the protocol monitors and watchdogs, the telemetry tap; a signal trace
is one probe callback, a flit count one event subscriber) stands on this
contract instead:

* **Probes subscribe to signals.** :meth:`Signal.attach_probe` callbacks
  run from the kernel's commit phase exactly when a commit changes the
  value. A fully quiescent network commits nothing, so a traced run still
  fast-forwards in O(1).
* **Dispatch is coalesced per tick.** A probe watching many signals marks
  itself pending via :meth:`SimKernel.request_flush`; the kernel calls
  ``flush(tick)`` once after all commits of the tick, so multi-signal
  records (a VCD ``#tick`` block, a handshake invariant check) see a
  consistent post-commit snapshot.
* **Time-outs are scheduled, not polled.** :meth:`SimKernel.call_at`
  timers fire at exact ticks across fast-forwarded gaps (the fast path
  stops at the earliest deadline), replacing every-tick watchdog polls.
* **Discrete occurrences are events.** Sinks emit ``"flit"`` and
  ``"packet"``, networks emit ``"inject"``, and the scheduler emits
  ``"wake"`` / ``"sleep"``; probes listen via :meth:`SimKernel.subscribe`.

Equivalence guarantee: because probes observe committed value *changes*
(identical in both kernel modes) and flush blocks are ordered by signal
registration index, an instrumented activity-driven run produces
bit-identical traces and metrics to ``activity_driven=False``.
``wake``/``sleep`` events are the one exception — they describe the
fast-path scheduler itself and never fire in naive mode.

Scope of the guarantee: *per-signal* probe streams and *per-router*
event sequences are mode-identical, but cross-signal dispatch order
within one tick is not. Aggregating consumers — the VCD writer, and
the :mod:`repro.telemetry` metrics registry and flit tracer built
entirely on these primitives — must therefore be order-independent
within a tick or sort by a mode-stable key before emitting.
"""

from __future__ import annotations

from typing import Any

from repro.sim.kernel import SimKernel, Timer
from repro.sim.signal import Signal

__all__ = ["Probe", "Timer"]


class Probe:
    """Base class for dirty-signal probes with a coalesced per-tick flush.

    Subclasses call :meth:`observe` on the signals they watch, override
    :meth:`on_change` to record individual value changes, and override
    :meth:`flush` to emit one consistent record per tick in which at
    least one watched signal changed. Between the two hooks the probe
    sees every change exactly once, in commit order, followed by a single
    flush with all commits of the tick visible.
    """

    def __init__(self, kernel: SimKernel):
        self._kernel = kernel
        self._flush_pending = False
        self._observed: list[Signal] = []

    @property
    def kernel(self) -> SimKernel:
        return self._kernel

    def observe(self, *signals: Signal) -> None:
        """Attach this probe to every given signal."""
        for sig in signals:
            sig.attach_probe(self._dispatch)
            self._observed.append(sig)

    def detach(self) -> None:
        """Stop observing all signals (pending flush still runs)."""
        for sig in self._observed:
            sig.detach_probe(self._dispatch)
        self._observed.clear()

    def _dispatch(self, tick: int, signal: Signal, old: Any, new: Any) -> None:
        self.on_change(tick, signal, old, new)
        self._kernel.request_flush(self)

    # -- subclass hooks ------------------------------------------------

    def on_change(self, tick: int, signal: Signal, old: Any, new: Any) -> None:
        """One watched signal's committed value changed this tick."""

    def flush(self, tick: int) -> None:
        """All commits of ``tick`` are visible; emit the tick's record."""
