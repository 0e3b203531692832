"""Double-buffered signals.

A :class:`Signal` holds the value committed at the end of the previous tick
(the plain attribute :attr:`value`) and a pending value written during the
current tick (via :meth:`set`). The kernel commits pending writes after all
components of the tick have fired, so evaluation order within a tick can
never matter — the key determinism property of the kernel.

Signals created through :meth:`repro.sim.kernel.SimKernel.signal` register
themselves on the kernel's dirty list at their first write of a tick, so
the commit phase touches only signals actually written (the activity-driven
fast path). Sleeping components may watch a signal: whenever a commit
changes its value, the kernel wakes every watcher. A commit compares old
and new values only for a signal someone listens to (a watcher or a
probe), identity before the tick tag before equality; every other commit
just moves the pending value into place.

Signals are also the anchor of the observability subsystem
(:mod:`repro.sim.observe`): probes attached via :meth:`Signal.attach_probe`
are called by the kernel's commit phase exactly when a commit changes the
value — in both execution modes — so instrumentation costs work only in
proportion to actual signal activity and never disables the quiescent
fast-forward.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.component import ClockedComponent


class Signal:
    """One named wire with next-tick write semantics."""

    __slots__ = ("name", "value", "_next", "_dirty", "_writer_tick",
                 "_queue", "_watchers", "_probes", "_index", "_kernel",
                 "_held")

    #: Class-wide generation counter, bumped on every probe attach/detach.
    #: Cached observer scans (the array backend's write-through detection)
    #: compare it instead of re-walking every wire per run call.
    probe_epoch: int = 0

    def __init__(self, name: str, initial: Any = None):
        self.name = name
        #: The value committed at the end of the previous tick. A plain
        #: slot, so a wire read is one attribute load; only
        #: :meth:`commit` writes it.
        self.value = initial
        self._next = initial
        self._dirty = False
        self._writer_tick: int | None = None
        # Dirty list of the owning kernel (None for standalone signals).
        self._queue: list[Signal] | None = None
        # Owning kernel, whose clock dates a hold (see :meth:`set`).
        self._kernel: Any = None
        self._held: int | None = None
        # Sleeping components to wake when a commit changes the value;
        # a dict keeps insertion order, so wake order is deterministic.
        self._watchers: dict["ClockedComponent", None] = {}
        # Probe callbacks (tick, signal, old, new), dispatched by the
        # kernel when a commit changes the value. None until first use so
        # the uninstrumented hot path pays one falsy check only.
        self._probes: list[Any] | None = None
        # Registration index within the owning kernel (-1 standalone) —
        # the canonical signal order probes sort by, so instrumented
        # output is identical no matter which mode produced it.
        self._index = -1

    def set(self, value: Any, tick: int | None = None) -> None:
        """Schedule ``value`` to become visible next tick.

        Passing the current ``tick`` enables multi-driver detection: two
        different writes to the same signal in one tick raise
        :class:`SimulationError`. A conflicting write involving an
        untracked driver (``tick=None``) on either side is rejected too —
        it is a double drive of the same uncommitted value regardless of
        which driver identified itself. Only tracked writes from
        *different* ticks may overwrite an uncommitted value (standalone
        signals whose owner commits less often than it writes).

        Write-on-change: on a kernel-owned signal with nothing pending, a
        drive of the object the wire already holds is a *hold*, dated with
        the kernel's tick: no dirty-list entry, no commit. Any different
        drive later in that tick still raises; :meth:`force` overrides.
        """
        if self._dirty:
            if value != self._next and (
                    tick is None or self._writer_tick is None
                    or self._writer_tick == tick):
                writer = self._writer_tick
                self._conflict(self._next, "untracked" if writer is None
                               else f"tick {writer}", value, tick)
        elif value is self.value and self._kernel is not None:
            self._held = self._kernel.tick
            return
        else:
            held = self._held
            if held is not None and held == self._kernel.tick \
                    and value != self.value:
                self._conflict(self.value, f"a hold at tick {held}",
                               value, tick)
            if self._queue is not None:
                self._queue.append(self)
        self._next = value
        self._dirty = True
        if tick is not None:
            self._writer_tick = tick

    def _conflict(self, first: Any, first_by: str, value: Any,
                  tick: int | None) -> None:
        raise SimulationError(
            f"signal {self.name!r} driven twice before commit "
            f"({first!r} from {first_by}, then {value!r} from "
            f"{'untracked' if tick is None else f'tick {tick}'})"
        )

    def force(self, value: Any) -> None:
        """Overwrite the pending value, bypassing multi-driver detection.

        For testbenches and fault injection only — a deliberate second
        driver (e.g. a corrupted register overriding the healthy logic's
        write). Normal components must use :meth:`set`.
        """
        if not self._dirty and self._queue is not None:
            self._queue.append(self)
        self._next = value
        self._dirty = True

    def commit(self, report: bool = True) -> bool:
        """Make the pending write visible.

        With ``report`` (the default), returns True if the value changed:
        identity first, so re-driving the committed object is unchanged
        without an ``__eq__`` call; then the tick tag, so two
        ``(x, tick)`` payloads whose int tags differ are changed without
        comparing ``x``; then ``!=``. Without it, returns False and
        compares nothing — the kernel's commit for a signal no watcher
        or probe listens to.
        """
        if not self._dirty:
            return False
        old = self.value
        self.value = new = self._next
        self._dirty = False
        self._writer_tick = None
        if not report or new is old:
            return False
        if type(new) is tuple and type(old) is tuple \
                and len(new) == 2 and len(old) == 2:
            tag, old_tag = new[1], old[1]
            if type(tag) is int and type(old_tag) is int and tag != old_tag:
                return True
        return new != old

    def watch(self, component: "ClockedComponent") -> None:
        """Register a sleeping component to wake on the next value change."""
        self._watchers[component] = None

    def attach_probe(self, callback: Any) -> None:
        """Register ``callback(tick, signal, old, new)`` to run whenever a
        kernel commit changes this signal's value.

        Probes are the dirty-signal observation primitive: they fire only
        on actual value changes, never keep components awake, and never
        disable the quiescent fast-forward. Only signals owned by a kernel
        (created via :meth:`SimKernel.signal`) are dispatched.
        """
        if self._probes is None:
            self._probes = []
        self._probes.append(callback)
        Signal.probe_epoch += 1

    def detach_probe(self, callback: Any) -> None:
        """Remove a previously attached probe callback (no-op if absent)."""
        if self._probes is not None and callback in self._probes:
            self._probes.remove(callback)
            if not self._probes:
                self._probes = None
            Signal.probe_epoch += 1

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self.value!r})"
