"""Batched execution support for the kernel's tick loop.

PR 1 made the *idle* case fast: a fully quiescent activity-driven kernel
fast-forwards whole windows without stepping. This module names the
contract that makes the *busy* case fast the same way: a component may
implement :class:`BatchComponent` and execute many consecutive ticks
itself, vectorized, without the kernel stepping each one.

:meth:`SimKernel.run_ticks` consults the hook only when batching is
provably unobservable — activity-driven mode, no pending signal
commits, and exactly one awake component
(parity 0, with nothing awake on parity 1). The window handed to
``batch_ticks`` never crosses the next timer deadline, so
:meth:`SimKernel.call_at` observation points still fire on their exact
ticks. Everything else — naive mode, :meth:`SimKernel.run_until`
predicates, multiple awake components — falls back to the ordinary
per-tick :meth:`on_edge` dispatch, unchanged.

A batching component owns the full observability burden inside its
windows: it must decline (return 0) whenever stepping could be observed
mid-window — kernel event subscribers, signal probes on wires it drives —
because no signal commits and no event dispatch happen between batched
ticks. The vectorized fabric engine
(:mod:`repro.fabric.array_backend`) is the stock implementation.
"""

from __future__ import annotations

import abc

from repro.sim.component import ClockedComponent


class BatchComponent(ClockedComponent):
    """A clocked component that can execute whole tick windows itself.

    Subclasses implement :meth:`batch_ticks` in addition to the ordinary
    :meth:`on_edge`. The kernel calls ``batch_ticks(window)`` with the
    number of ticks it may consume (bounded by the run window and the
    next timer deadline); the component advances ``kernel.tick`` (and
    ``kernel.steps_executed`` for ticks it actually computed) itself and
    returns how many ticks it consumed. Returning 0 declines the batch —
    the kernel falls back to a normal :meth:`step` for that tick, so a
    component may decline dynamically (e.g. while observers are
    attached) without losing correctness.
    """

    @abc.abstractmethod
    def batch_ticks(self, window: int) -> int:
        """Consume up to ``window`` ticks; return the count consumed."""
