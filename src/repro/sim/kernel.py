"""The simulation kernel: tick loop, component scheduling, signal commits.

Two execution modes share one semantic contract:

* the **naive** mode (``activity_driven=False``) fires every component of
  the tick's parity and commits every signal, every tick — the reference
  behaviour;
* the **activity-driven** mode (the default) commits only signals written
  this tick (a dirty list) and skips components that declared themselves
  idle via :meth:`ClockedComponent.sleep_until`, waking them when a
  watched signal changes or on an explicit wake.

The two modes are bit-identical in every observable (signal values, ticks
of state changes, statistics including clock-gating edge counts); the
fast path only avoids work that would provably change nothing.

Observability hooks (see :mod:`repro.sim.observe`) share the same
principle — they cost work proportional to activity, never per tick:

* **signal probes** (:meth:`Signal.attach_probe`) fire from the commit
  phase exactly when a commit changes a value, in both modes;
* **flush requests** (:meth:`request_flush`) coalesce many probe hits
  into one end-of-tick call per probe object;
* **timers** (:meth:`call_at`) fire a callback at the end of an exact
  future tick; the quiescent fast-forward stops precisely at the next
  pending deadline, so scheduled events observe the same ticks the naive
  loop would deliver;
* **events** (:meth:`subscribe` / :meth:`emit`) broadcast discrete
  occurrences (flit delivered, packet injected, component wake/sleep) to
  interested probes. An emitter builds an event's payload only when
  that event has a listener (``event in kernel._event_subs``, behind
  one falsy test of the dict on an unobserved run).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.sim.component import ClockedComponent, latest_parity_tick
from repro.sim.signal import Signal
from repro.units import cycles_to_ticks

#: Sort key of an active list: components in registration order.
_kernel_index = attrgetter("_kernel_index")


class Timer:
    """Handle of one scheduled :meth:`SimKernel.call_at` callback."""

    __slots__ = ("tick", "callback", "cancelled", "fired")

    def __init__(self, tick: int, callback: Callable[[int], None]):
        self.tick = tick
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self.cancelled = True


class SimKernel:
    """Owns components and signals; advances time in half-cycle ticks.

    Components fire in registration order, but because all signal writes
    commit only after every component of the tick has fired, results are
    independent of that order.
    """

    def __init__(self, activity_driven: bool = True) -> None:
        self.tick = 0
        self.activity_driven = activity_driven
        #: Ticks actually stepped (excludes fast-forwarded ones) — the
        #: observable behind the fast-path tests and benchmarks.
        self.steps_executed = 0
        self._components: list[ClockedComponent] = []
        self._signals: list[Signal] = []
        self._names: set[str] = set()
        # Awake components per parity, sorted by registration index.
        self._active: tuple[list[ClockedComponent], list[ClockedComponent]] \
            = ([], [])
        self._need_compact = [False, False]
        self._dirty: list[Signal] = []
        # Probe objects awaiting their coalesced end-of-tick flush.
        self._flush: list[Any] = []
        # Scheduled timers: heap of (tick, seq, Timer).
        self._timers: list[tuple[int, int, Timer]] = []
        self._timer_seq = 0
        # Event subscribers by event name, one immutable tuple each; an
        # event without a listener has no key, so the dict is falsy on
        # an unobserved run.
        self._event_subs: dict[str, tuple[Callable, ...]] = {}
        # Iteration state, so a wake() during a step can splice the woken
        # component into the remainder of the current tick.
        self._step_parity: int | None = None
        self._cursor = 0

    # -- construction -------------------------------------------------

    def add_component(self, component: ClockedComponent) -> ClockedComponent:
        if component.name in self._names:
            raise ConfigurationError(f"duplicate component name {component.name!r}")
        self._names.add(component.name)
        component._kernel = self
        component._kernel_index = len(self._components)
        # Baseline for idle-edge accounting: the latest parity tick the
        # component could already have fired on (usually -1 or -2).
        component._accounted_tick = latest_parity_tick(self.tick,
                                                       component.parity)
        self._components.append(component)
        component._queued = True
        self._active[component.parity].append(component)
        return component

    def signal(self, name: str, initial: Any = None) -> Signal:
        sig = Signal(name, initial)
        sig._kernel = self
        if self.activity_driven:
            sig._queue = self._dirty
        sig._index = len(self._signals)
        self._signals.append(sig)
        return sig

    @property
    def components(self) -> list[ClockedComponent]:
        return list(self._components)

    # -- observability ------------------------------------------------

    def request_flush(self, probe: Any) -> None:
        """Queue ``probe.flush(tick)`` for the end of this tick's commit.

        A probe is queued at most once per tick no matter how many of its
        watched signals changed; ``probe`` must expose a ``_flush_pending``
        attribute (False initially) and a ``flush(tick)`` method. This is
        the coalescing half of the dirty-signal dispatch: per-signal
        callbacks record *what* changed, the flush emits it *once*.
        """
        if not probe._flush_pending:
            probe._flush_pending = True
            self._flush.append(probe)

    def call_at(self, tick: int, callback: Callable[[int], None]) -> Timer:
        """Schedule ``callback(tick)`` at the end of the given tick.

        The callback runs after that tick's commit, even across a
        fast-forwarded quiescent window — the fast path stops exactly at
        the earliest pending deadline. A deadline at or before the
        current tick fires at the end of the current tick. Returns a
        :class:`Timer` handle whose :meth:`Timer.cancel` revokes it.
        """
        timer = Timer(tick, callback)
        self._timer_seq += 1
        heappush(self._timers, (tick, self._timer_seq, timer))
        return timer

    def subscribe(self, event: str,
                  callback: Callable[[int, Any], None]) -> None:
        """Register ``callback(tick, data)`` for :meth:`emit` broadcasts.

        Well-known events emitted by the stock components: ``"flit"``
        (a sink consumed one flit), ``"packet"`` (a sink delivered a
        reassembled packet), ``"inject"`` (a network accepted a packet
        from the host), ``"wake"`` / ``"sleep"`` (a component changed
        scheduling state; activity-driven mode only, since the naive loop
        never sleeps).

        Callbacks run in subscription order. A subscription made during
        a dispatch replaces the event's tuple, so it takes effect at the
        next :meth:`emit`, not the one running.
        """
        subs = self._event_subs
        subs[event] = subs.get(event, ()) + (callback,)

    def unsubscribe(self, event: str,
                    callback: Callable[[int, Any], None]) -> None:
        """Remove a :meth:`subscribe` registration (no-op if absent); an
        event left without listeners leaves the subscriber dict."""
        subs = self._event_subs
        rest = tuple(cb for cb in subs.get(event, ()) if cb is not callback)
        if rest:
            subs[event] = rest
        else:
            subs.pop(event, None)

    def emit(self, event: str, data: Any = None) -> None:
        """Broadcast an event to subscribers (cheap no-op without any)."""
        subs = self._event_subs.get(event)
        if subs:
            tick = self.tick
            for callback in subs:
                callback(tick, data)

    # -- sleep / wake --------------------------------------------------

    def sleep(self, component: ClockedComponent,
              signals: Sequence[Signal] = ()) -> None:
        """Stop firing ``component`` until a watched signal changes value
        at a commit, or :meth:`wake` is called. No-op in naive mode."""
        if not self.activity_driven or component._asleep:
            return
        component._asleep = True
        self._need_compact[component.parity] = True
        for sig in signals:
            sig.watch(component)
        subs = self._event_subs
        if subs and "sleep" in subs:
            self.emit("sleep", component)

    def wake(self, component: ClockedComponent) -> None:
        """(Re-)schedule ``component`` from its next matching tick on.

        Waking during the component's parity step fires it this very tick
        if its registration slot has not been passed yet — exactly when
        the naive kernel would have fired it.
        """
        component._asleep = False
        if component._queued:
            return
        component._queued = True
        active = self._active[component.parity]
        index = component._kernel_index
        pos = bisect_left(active, index, key=_kernel_index)
        active.insert(pos, component)
        # During this parity's step, cursor points at the next unfired
        # slot. An insertion strictly before it belongs to the already
        # passed region (the naive loop would have fired the component
        # earlier this tick, as a no-op while it slept), so only shift the
        # cursor then; at pos == cursor the component fires this tick.
        if component.parity == self._step_parity and pos < self._cursor:
            self._cursor += 1
        subs = self._event_subs
        if subs and "wake" in subs:
            self.emit("wake", component)

    # -- execution ----------------------------------------------------

    def _compact(self, parity: int) -> None:
        """Drop asleep components from a parity's active list."""
        if not self._need_compact[parity]:
            return
        active = self._active[parity]
        kept = []
        for component in active:
            if component._asleep:
                component._queued = False
            else:
                kept.append(component)
        active[:] = kept
        self._need_compact[parity] = False

    def step(self) -> None:
        """Advance one half-cycle: fire matching-parity components, commit."""
        self.steps_executed += 1
        parity = self.tick % 2
        active = self._active[parity]
        self._compact(parity)
        self._step_parity = parity
        self._cursor = 0
        tick = self.tick
        while self._cursor < len(active):
            component = active[self._cursor]
            self._cursor += 1
            component.on_edge(tick)
            component._accounted_tick = tick
        self._step_parity = None
        if self.activity_driven:
            dirty = self._dirty
            if dirty:
                # A commit compares values only for its listeners: a
                # probe always, watchers while any sleep on the signal.
                for sig in dirty:
                    probes = sig._probes
                    watchers = sig._watchers
                    if probes is not None:
                        old = sig.value
                        if not sig.commit():
                            continue
                        for probe in probes:
                            probe(tick, sig, old, sig.value)
                    elif not watchers:
                        sig.commit(False)
                        continue
                    elif not sig.commit():
                        continue
                    if watchers:
                        woken = list(watchers)
                        watchers.clear()
                        for component in woken:
                            self.wake(component)
                dirty.clear()
        else:
            # The naive loop never sleeps, so only probes listen.
            for sig in self._signals:
                probes = sig._probes
                if probes is None:
                    sig.commit(False)
                else:
                    old = sig.value
                    if sig.commit():
                        for probe in probes:
                            probe(tick, sig, old, sig.value)
        if self._flush:
            pending = self._flush
            self._flush = []
            for probe in pending:
                probe._flush_pending = False
                probe.flush(tick)
        timers = self._timers
        while timers and timers[0][0] <= tick:
            _, _, timer = heappop(timers)
            if not timer.cancelled:
                timer.fired = True
                timer.callback(tick)
        self.tick += 1

    def _next_timer_tick(self) -> int | None:
        """Deadline of the earliest live timer (drops cancelled heads)."""
        timers = self._timers
        while timers and timers[0][2].cancelled:
            heappop(timers)
        return timers[0][0] if timers else None

    def run_ticks(self, ticks: int) -> None:
        if ticks < 0:
            raise ConfigurationError(f"ticks must be >= 0, got {ticks}")
        remaining = ticks
        while remaining > 0:
            if self.activity_driven and not self._dirty:
                self._compact(0)
                self._compact(1)
                active0, active1 = self._active
                if not active0 and not active1:
                    # Fully quiescent kernel: nothing can fire, write, or
                    # observe a tick — jump to the next scheduled
                    # deadline, or straight to the end of the window.
                    due = self._next_timer_tick()
                    if due is None:
                        self.tick += remaining
                        return
                    gap = due - self.tick
                    if gap > 0:
                        jump = min(gap, remaining)
                        self.tick += jump
                        remaining -= jump
                        if remaining == 0:
                            return
                    # A timer is due this very tick: fall through, step it.
                elif not active1 and len(active0) == 1:
                    # A single awake component that can execute whole
                    # windows itself (a vectorized fabric engine) runs
                    # batched, bounded by the next timer deadline.
                    batch = getattr(active0[0], "batch_ticks", None)
                    if batch is not None:
                        due = self._next_timer_tick()
                        window = remaining if due is None \
                            else min(remaining, due - self.tick)
                        if window > 0:
                            consumed = batch(window)
                            if consumed:
                                remaining -= consumed
                                continue
            self.step()
            remaining -= 1

    def run_cycles(self, cycles: float) -> None:
        """Advance a whole number of half-cycles given in clock cycles."""
        self.run_ticks(cycles_to_ticks(cycles))

    def run_until(self, predicate: Callable[[], bool], max_ticks: int) -> bool:
        """Step until ``predicate()`` is true or ``max_ticks`` elapse.

        Returns True if the predicate was satisfied.
        """
        if max_ticks < 0:
            raise ConfigurationError(f"max_ticks must be >= 0, got {max_ticks}")
        for _ in range(max_ticks):
            if predicate():
                return True
            self.step()
        return predicate()

    @property
    def cycles(self) -> float:
        """Elapsed time in clock cycles."""
        return self.tick / 2.0
