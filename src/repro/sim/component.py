"""Base class for clocked components."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim.kernel import SimKernel
    from repro.sim.signal import Signal


def latest_parity_tick(tick: int, parity: int) -> int:
    """The latest tick of ``parity`` strictly before ``tick`` (may be
    negative) — the baseline both the kernel's component registration and
    the idle-edge accounting must agree on."""
    latest = tick - 1
    if latest % 2 != parity:
        latest -= 1
    return latest


class ClockedComponent(abc.ABC):
    """Anything that fires on one edge of the clock.

    Attributes:
        name: unique identifier within the kernel.
        parity: 0 or 1 — which half-cycles this component fires on. In a
            well-formed IC-NoC, communicating neighbours have opposite
            parity (alternating clock edges); the kernel does not enforce
            this, the clock-tree construction does.

    Idle contract (the activity-driven fast path): a component whose next
    edge would change nothing — neither its own state nor any signal value
    it drives — may call :meth:`sleep_until` at the end of :meth:`on_edge`,
    naming every signal whose change could make its next edge act. The
    kernel then skips the component until a watched signal changes value at
    a commit, or :meth:`wake` is called (for out-of-band input such as a
    packet submitted from the host). Spurious wakes are harmless: the
    woken edge is a no-op and the component simply re-sleeps. Components
    that never sleep behave exactly as under the naive kernel.
    """

    def __init__(self, name: str, parity: int):
        if parity not in (0, 1):
            raise ConfigurationError(f"parity must be 0 or 1, got {parity}")
        self.name = name
        self.parity = parity
        self._kernel: "SimKernel | None" = None  # set by add_component
        self._kernel_index = -1
        self._asleep = False
        self._queued = False       # currently present in the active list
        self._accounted_tick = 0   # last parity tick accounted (see below)

    @abc.abstractmethod
    def on_edge(self, tick: int) -> None:
        """Called by the kernel on every tick with matching parity."""

    # -- activity-driven scheduling -----------------------------------

    def sleep_until(self, *signals: "Signal") -> None:
        """Declare this component idle until a signal changes or wake().

        Only valid per the idle contract above; with no signals the
        component sleeps until an explicit :meth:`wake`.
        """
        if self._kernel is not None:
            self._kernel.sleep(self, signals)

    def wake(self) -> None:
        """Ensure the component fires on its next matching tick."""
        if self._kernel is not None:
            self._kernel.wake(self)

    # -- skipped-edge accounting ---------------------------------------
    #
    # While asleep, the component misses clock edges the naive kernel
    # would have delivered (all of them no-ops). Statistics that count
    # edges (clock gating) must still see those edges, so the base class
    # tracks the last parity tick accounted for and backfills the gap —
    # lazily, on the next fire or on a stats read — via _on_idle_edges.

    def _settle_idle(self) -> None:
        """Account parity edges elapsed but not fired, as idle edges."""
        kernel = self._kernel
        if kernel is None:
            return
        latest = latest_parity_tick(kernel.tick, self.parity)
        pending = (latest - self._accounted_tick) // 2
        if pending > 0:
            self._accounted_tick = latest
            self._on_idle_edges(pending)

    def _on_idle_edges(self, edges: int) -> None:
        """Hook for subclasses that keep per-edge statistics."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, parity={self.parity})"


class GatedComponentMixin:
    """Gating bookkeeping for clocked components honouring the idle
    contract (mix in before :class:`ClockedComponent`).

    Edges skipped while the component sleeps are still clock edges its
    register bank would have seen gated; the mixin backfills them through
    the base class's :meth:`ClockedComponent._settle_idle` /
    :meth:`ClockedComponent._on_idle_edges` hooks, so fast-path gating
    statistics equal the naive loop's exactly. The component records each
    fired edge via ``self.record_edge(tick, enabled)`` — which settles
    only after a sleep, unlike a ``self.gating`` read — and must
    initialise ``self._gating = GatingStats()`` (see
    :class:`repro.clocking.gating.GatingStats`).

    Lives next to :class:`ClockedComponent` because the backfill is part
    of the kernel's idle-edge accounting contract, not of any one fabric;
    every register bank in every fabric shares this implementation.
    """

    @property
    def gating(self):
        self._settle_idle()
        return self._gating

    def record_edge(self, tick: int, enabled: bool) -> None:
        """Count the edge firing at ``tick`` (what ``GatingStats.record``
        counts, in place). Skipped edges are backfilled first — but only
        after a sleep: a component that also fired on its previous parity
        tick has nothing pending, and every register bank calls this on
        every fired edge."""
        if tick - 2 != self._accounted_tick:
            self._settle_idle()
        gating = self._gating
        gating.edges_total += 1
        if enabled:
            gating.edges_enabled += 1

    def _on_idle_edges(self, edges: int) -> None:
        self._gating.edges_total += edges
