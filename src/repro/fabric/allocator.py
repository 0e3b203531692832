"""Pluggable two-stage allocation policies for the unified router.

The :class:`~repro.fabric.router.FabricRouter` separates *what moves*
(FIFOs, credits, links) from *who wins* (this module). An
:class:`Allocator` owns the router's arbitration state and answers two
questions per edge:

* **VC allocation** (:meth:`Allocator.vc_winner`) — which waiting head
  flit acquires a free output VC. Only consulted when ``n_vcs >= 2``;
  the single-VC (wormhole) regime has no VC allocation stage.
* **Switch allocation** (:meth:`Allocator.switch_winner`) — which
  requesting input (flat ``in_port * n_vcs + in_vc`` index) crosses the
  switch toward one output port this edge.

Each question has a lone-requester form (:meth:`Allocator.vc_lone`,
:meth:`Allocator.switch_lone`) that the router calls when exactly one
input VC asks: it must leave the allocator in the state the full form
leaves it in on the one-hot request vector, and the tests pin that per
policy.

State is deliberately plain — round-robin arbiters keyed by output port
(switch stage) and by ``(out_port, out_vc)`` pair (VC stage) — so every
allocator is introspectable and picklable, which the checkpointed sweep
path requires. At ``n_vcs=1`` the switch arbiters have exactly
``n_ports`` inputs: the historical wormhole router's per-output
round-robin arbiters, bit-identically (same initial pointer, same
rotation), which is what makes wormhole the degenerate case of the
unified router rather than a second implementation.

Policies:

* :class:`RoundRobinAllocator` (``"rr"``) — the historical fair policy.
* :class:`WeightedAllocator` (``"weighted"``) — per-flow bandwidth
  reservations at the switch stage (Even & Fais-style guaranteed QoS):
  an output VC carrying a reservation wins switch allocation whenever
  its measured share of the output's recent grants is below the reserved
  fraction; above it, allocation is plain round-robin among everyone.
  Shares are tracked per output port in deterministic epoch-halved
  windows (exponential decay, integer state, picklable), so isolation
  holds under sustained adversarial load without unbounded counters.
* :class:`EscapeReentryAllocator` (``"escape-reentry"``) — grant-wise
  identical to round-robin, but flags ``wants_reentry``: the escape-VC
  routing policy then lets packets that fell back to the escape
  subnetwork request adaptive VCs again at later hops. Legal under
  Duato's extended theorem: the escape subfunction stays connected and
  deadlock-free and remains requestable at every hop, so every packet
  can always reach a draining channel regardless of how often it leaves
  and re-enters the adaptive set.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.noc.arbiter import RoundRobinArbiter

__all__ = ["Allocator", "RoundRobinAllocator", "WeightedAllocator",
           "EscapeReentryAllocator", "ALLOCATOR_NAMES", "make_allocator"]

#: Registered allocator policy names (CLI ``--allocator`` values).
ALLOCATOR_NAMES = ("rr", "weighted", "escape-reentry")


class Allocator:
    """Base class: round-robin two-stage allocation, keyed state.

    :meth:`bind` is called once by the owning router with its shape;
    until then the allocator is a plain picklable spec. One allocator
    instance serves exactly one router (arbitration state is per
    router), so assembling networks construct a fresh instance per node.
    """

    name = "rr"
    #: Escape-VC policies consult this: may packets on an escape VC
    #: request adaptive VCs again at later hops?
    wants_reentry = False

    def __init__(self) -> None:
        self.n_ports = 0
        self.n_vcs = 0
        #: Switch-stage arbiter per output port, over the flat
        #: ``n_ports * n_vcs`` input-VC request lines. At ``n_vcs=1``
        #: this is the historical wormhole per-output arbiter.
        self.sa_arbiters: list[RoundRobinArbiter] = []
        #: VC-stage arbiter per ``(out_port, out_vc)`` pair — keyed, not
        #: a flat list, so allocator state is introspectable and the
        #: checkpointed sweep path can pickle and compare it per pair.
        self.va_arbiters: dict[tuple[int, int], RoundRobinArbiter] = {}

    def bind(self, n_ports: int, n_vcs: int) -> "Allocator":
        if self.sa_arbiters:
            raise ConfigurationError(
                f"{type(self).__name__} already bound: one allocator "
                f"instance per router"
            )
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        flat = n_ports * n_vcs
        self.sa_arbiters = [RoundRobinArbiter(flat) for _ in range(n_ports)]
        if n_vcs >= 2:
            self.va_arbiters = {
                (out_port, out_vc): RoundRobinArbiter(flat)
                for out_port in range(n_ports)
                for out_vc in range(n_vcs)
            }
        return self

    def vc_winner(self, out_port: int, out_vc: int,
                  requests: Sequence[bool]) -> int | None:
        """Grant the output VC to one requesting input VC (flat index)."""
        return self.va_arbiters[out_port, out_vc].grant(requests)

    def vc_lone(self, out_port: int, out_vc: int, flat: int) -> int:
        """:meth:`vc_winner` when input VC ``flat`` is the only requester."""
        return self.va_arbiters[out_port, out_vc].grant_only(flat)

    def switch_winner(self, out_port: int, requests: Sequence[bool],
                      out_vc_of: Sequence[int]) -> int | None:
        """Grant the switch toward ``out_port`` to one requester.

        ``requests[flat]`` marks input VC ``flat`` as requesting;
        ``out_vc_of[flat]`` names the output VC that request targets
        (all zeros in the single-VC regime). Base policy: round-robin.
        """
        return self.sa_arbiters[out_port].grant(requests)

    def switch_lone(self, out_port: int, flat: int, out_vc: int) -> int:
        """:meth:`switch_winner` when input VC ``flat``, targeting output
        VC ``out_vc``, is the only requester."""
        return self.sa_arbiters[out_port].grant_only(flat)


class RoundRobinAllocator(Allocator):
    """The historical fair policy under its explicit name."""

    name = "rr"


class EscapeReentryAllocator(Allocator):
    """Round-robin grants plus Duato-legal escape-to-adaptive re-entry.

    The grant behaviour is exactly round-robin (so the array backend
    lowers it unchanged); the policy knob rides on ``wants_reentry``,
    which :class:`~repro.fabric.routing.EscapeVcAdaptive` reads when the
    assembling network builds the candidate functions. See the module
    docstring for the legality argument.
    """

    name = "escape-reentry"
    wants_reentry = True


class WeightedAllocator(Allocator):
    """Switch allocation with per-VC bandwidth reservations.

    ``reservations`` maps output VCs to reserved fractions of each
    output port's grant bandwidth (``((vc, fraction), ...)``; fractions
    sum to <= 1). Per output port the allocator tracks recent grants in
    an epoch-halved window: every :data:`EPOCH` grants, the total and
    every per-VC share are halved (integer floor), giving a
    deterministic exponential-decay estimate of each VC's current share
    with bounded, picklable state.

    Grant rule per edge: requesters whose target output VC holds a
    reservation *and* whose measured share is below ``fraction * total``
    are **entitled**; when any requester is entitled, round-robin runs
    over the entitled subset only (the reservation preempts), otherwise
    over all requesters (spare bandwidth is shared fairly — reserved
    flows are not capped at their reservation, they just stop
    preempting). A reserved-but-idle VC therefore costs nothing: with no
    entitled requester the output serves everyone round-robin.

    VC allocation stays round-robin: reservations meter *switch*
    bandwidth, which is what per-flow throughput guarantees need; the VC
    stage only assigns buffers.
    """

    name = "weighted"

    #: Grants per output port between halvings of the share window.
    EPOCH = 64

    def __init__(self,
                 reservations: Sequence[tuple[int, float]] = ()) -> None:
        super().__init__()
        if not reservations:
            raise ConfigurationError(
                "weighted allocation needs at least one (vc, fraction) "
                "reservation"
            )
        total = 0.0
        self.reservations: dict[int, float] = {}
        for vc, fraction in reservations:
            if vc in self.reservations:
                raise ConfigurationError(
                    f"duplicate reservation for vc{vc}"
                )
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"reservation fraction must be in (0, 1], got "
                    f"{fraction} for vc{vc}"
                )
            self.reservations[int(vc)] = float(fraction)
            total += fraction
        if total > 1.0 + 1e-9:
            raise ConfigurationError(
                f"reservations sum to {total:.3f} > 1 of an output's "
                f"bandwidth"
            )
        # Per-output grant window: total grants and per-VC share counts.
        self._sa_total: list[int] = []
        self._sa_share: list[dict[int, int]] = []

    def bind(self, n_ports: int, n_vcs: int) -> "Allocator":
        super().bind(n_ports, n_vcs)
        for vc in self.reservations:
            if not 0 <= vc < n_vcs:
                raise ConfigurationError(
                    f"reservation names vc{vc} but the router has "
                    f"{n_vcs} VCs"
                )
        self._sa_total = [0] * n_ports
        self._sa_share = [{vc: 0 for vc in self.reservations}
                          for _ in range(n_ports)]
        return self

    def switch_winner(self, out_port: int, requests: Sequence[bool],
                      out_vc_of: Sequence[int]) -> int | None:
        res = self.reservations
        total = self._sa_total[out_port]
        share = self._sa_share[out_port]
        entitled = [
            on and out_vc_of[flat] in res
            and share[out_vc_of[flat]] < res[out_vc_of[flat]] * total
            for flat, on in enumerate(requests)
        ]
        pool = entitled if any(entitled) else requests
        winner = self.sa_arbiters[out_port].grant(pool)
        if winner is not None:
            self._count_grant(out_port, out_vc_of[winner])
        return winner

    def switch_lone(self, out_port: int, flat: int, out_vc: int) -> int:
        # A one-hot pool is the same vector whether or not its requester
        # is entitled, so only the share window needs updating.
        self.sa_arbiters[out_port].grant_only(flat)
        self._count_grant(out_port, out_vc)
        return flat

    def _count_grant(self, out_port: int, vc: int) -> None:
        """Add one grant on output VC ``vc`` to ``out_port``'s window."""
        share = self._sa_share[out_port]
        total = self._sa_total[out_port] + 1
        if vc in share:
            share[vc] += 1
        if total >= self.EPOCH:
            total //= 2
            for key in share:
                share[key] //= 2
        self._sa_total[out_port] = total


def make_allocator(name: str,
                   reservations: Sequence[tuple[int, float]] = (),
                   ) -> Allocator:
    """One fresh (unbound) allocator instance for one router."""
    if name == "rr":
        if reservations:
            raise ConfigurationError(
                "reservations need allocator='weighted'"
            )
        return RoundRobinAllocator()
    if name == "escape-reentry":
        if reservations:
            raise ConfigurationError(
                "reservations need allocator='weighted'"
            )
        return EscapeReentryAllocator()
    if name == "weighted":
        return WeightedAllocator(reservations)
    raise ConfigurationError(
        f"unknown allocator {name!r}; known: {', '.join(ALLOCATOR_NAMES)}"
    )
