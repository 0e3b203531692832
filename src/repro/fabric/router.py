"""The shared credit-based fabric router.

One router implementation serves every synchronously clocked fabric (mesh,
torus, ring, and whatever the registry grows next), across both
flow-control regimes: an N-port credit router with input FIFOs, wormhole
locks, and a pluggable two-stage :class:`~repro.fabric.allocator.Allocator`
(VC allocation + switch allocation). ``n_vcs=1`` is the wormhole
degenerate case — bit-identical to every build before virtual channels
existed: one FIFO per port, no VC-allocation stage, the allocator's
per-output switch arbiters are exactly the historical round-robin
arbiters, and state keeps the historical flat layout (``fifos[port]``,
``credits[port]``, ``locks[port]``). ``n_vcs=V >= 2`` runs the
virtual-channel regime: per-(port, VC) FIFOs, per-VC credit counters and
wormhole locks, and policy-driven VC allocation ahead of switch
allocation. What differs between fabrics — where the ports lead and which
output (and VCs) a flit wants — lives in the
:mod:`~repro.fabric.routing` strategy supplied at construction.

Single-edge clocking (all routers share parity 0 in the kernel: one firing
per clock cycle). Each input FIFO holds ``buffer_depth`` flits — the
stall buffers the IC-NoC architecture avoids. A router may only forward a
flit toward a neighbour when it holds a credit for that neighbour's input
FIFO; the neighbour returns a credit when it dequeues. Per-port FIFO
depths follow the attached link's ``capacity`` when the assembling
network sized one (segmented links and pipelined routers need
``pipeline_depth + 2 * segments`` credits to stream — see docs/fabric.md).

**One edge** is input-first (docs/fabric.md, "One router edge"): drain
the stage registers, [allocate VCs,] look at each occupied input once
and bucket it under the output it wants, then one pass over the
connected outputs in ascending order collects each one's credit return
and grants it if wanted, and one pass over the connected inputs takes
arrivals and returns credits. Only connected ports are polled; their
wires are laid out once, at the first edge after wiring, and read and
driven directly under :class:`~repro.fabric.link.CreditLink`'s wire
protocol. Single-VC routes are memoised per destination
(:class:`~repro.fabric.routing.RouteMemo`), VC candidates per input VC
and flow (:class:`~repro.fabric.routing.VcCandidateMemo`).

**Pipelined router.** ``pipeline_depth=1`` (the default) is the
historical single-cycle router: route, arbitrate, and traverse all happen
on the grant edge, bit-identically to every build before the knob
existed. ``pipeline_depth=N`` models an RC/VA/SA/ST-style staged
microarchitecture at cycle accuracy: arbitration, credit accounting, and
wormhole-lock updates still happen on the grant edge (stage one — the
decision), but the flit spends ``N - 1`` further cycles in stage
registers before the link sees it. In-flight stage state keeps the
router awake (the idle/sleep contract extends to the stage registers:
a router never sleeps with a flit between grant and link). The payoff is
clock frequency, priced in :mod:`repro.timing.frequency` — each of the N
stages covers ``1/N`` of the router logic plus one register overhead.

Routers honour the idle-component contract (docs/kernel.md): a wire is
driven only to send something (a credit wire, like a flit wire, keeps
its last tick-tagged return and is never reset), so an edge that
receives nothing, forwards nothing, and has nothing buffered is a fixed
point — the router sleeps watching its input flit wires and output
credit wires, and fabric-heavy sweeps benefit from the kernel's
activity-driven fast path. Skipped edges are backfilled into
the gating statistics via the shared
:class:`~repro.sim.component.GatedComponentMixin`.

**Bubble rule.** When the routing strategy flags ``needs_bubble`` (ring-
closing topologies: torus, ring) and the router runs single-VC, a head
flit may only *enter* a ring — from the local port or by turning out of
another dimension — while the target FIFO keeps a free slot afterwards
(``credits >= 2``); same-ring transit is exempt. See
:mod:`repro.fabric.routing` for the argument. The VC regime replaces the
bubble rule (and its packet-length bound) with dateline/escape policies.

**Kernel events.** The router emits congestion-diagnosis events, each
built only when a :meth:`~repro.sim.kernel.SimKernel.subscribe` listener
waits for that event (an unobserved edge pays one falsy test of the
kernel's subscriber dict, so the fast path never pays for unobserved
visibility):

* ``"arbitration_grant"`` — an output port granted an input; data is a
  dict with ``router``, ``output``, ``vc``, ``input``, ``input_vc``, and
  the ``flit``. Single-VC routers emit ``vc=0``/``input_vc=0``.
* ``"credit_exhausted"`` — a flit wants an output (VC) whose credits just
  ran dry. Edge-triggered on *entering* starvation (cleared when credits
  return), so both kernel modes emit the identical event sequence even
  though the naive loop re-fires starved routers every cycle.
* ``"lock_acquire"`` / ``"lock_release"`` — a multi-flit packet's head
  took an output('s VC) wormhole lock / its tail released it; data
  carries ``router``, ``output``, ``vc``, ``input``, ``input_vc``, and
  the ``packet_id``. Single-flit packets never hold the lock, so they
  emit neither. Acquisitions and releases are discrete state
  transitions, hence edge-triggered and mode-identical by construction.
* ``"vc_allocated"`` (VC regime only) — the allocator granted an output
  VC to a head flit; data carries ``router``, ``output``, ``vc``,
  ``input``, ``input_vc``, and the ``flit``.

The ``output``/``input`` fields are port *indices*; consumers label
them via :meth:`FabricRouter.port_name`. These payloads are a stable
contract: the :mod:`repro.telemetry` metrics registry and flit tracer
key grant counts, stall episodes, and hop records off them (always
VC-suffixed, ``:vc0`` for single-VC), and the telemetry equivalence
suite pins the emitted sequences across both kernel modes on every
registered topology.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError, RoutingError
from repro.fabric.allocator import Allocator, RoundRobinAllocator
from repro.fabric.link import LINK_LATENCY_TICKS, CreditLink
from repro.fabric.routing import (
    RouteFn,
    RouteMemo,
    RoutingStrategy,
    VcCandidateFn,
    VcCandidateMemo,
)
from repro.noc.flit import Flit
from repro.sim.component import ClockedComponent, GatedComponentMixin
from repro.sim.kernel import SimKernel
from repro.sim.signal import Signal


def port_label(port_names: Sequence[str] | None, port: int) -> str:
    """A router port's label: its structure's name, else ``portN``."""
    if port_names is not None and port < len(port_names):
        return port_names[port]
    return f"port{port}"


def _va_walk_order(pair: tuple[int, int]) -> tuple[int, int]:
    """VC allocation serves output VCs port ascending, VC descending."""
    return pair[0], -pair[1]


def _collect_requests(slots: tuple) -> tuple[list, dict]:
    """One pass over a VC router's input slots (``(in_port, in_vc, fifo,
    allocation row)``, ascending): the occupied input VCs without an
    output VC (``pending``), and the rest bucketed as ``(in_port, in_vc,
    out_vc)`` under the output port they hold (``wants``)."""
    pending = []
    wants: dict[int, list[tuple[int, int, int]]] = {}
    for slot in slots:
        if slot[2]:
            in_port, in_vc, _fifo, row = slot
            held = row[in_vc]
            if held is None:
                pending.append(slot)
            else:
                wants.setdefault(held[0], []).append(
                    (in_port, in_vc, held[1]))
    return pending, wants


class FabricRouter(GatedComponentMixin, ClockedComponent):
    """N-port credit router, wormhole at ``n_vcs=1``, VCs above.

    Single-VC routers take a ``route`` function (flit -> output port);
    multi-VC routers take a ``candidates`` function (the
    :class:`~repro.fabric.routing.VcPolicy` product: input port, input
    VC, head flit -> preferred/(escape) ``(out_port, out_vc)`` lists).
    Who wins contended outputs is the ``allocator``'s business
    (:mod:`repro.fabric.allocator`); the default round-robin reproduces
    the historical arbitration bit-identically in both regimes.
    """

    def __init__(self, kernel: SimKernel, name: str, n_ports: int,
                 route: RouteFn | None = None, buffer_depth: int = 4,
                 ring_transit: RoutingStrategy | None = None,
                 port_names: Sequence[str] | None = None,
                 pipeline_depth: int = 1, register: bool = True,
                 n_vcs: int = 1,
                 candidates: VcCandidateFn | None = None,
                 allocator: Allocator | None = None):
        super().__init__(name, parity=0)
        if n_ports < 2:
            raise ConfigurationError("a router needs at least 2 ports")
        if n_vcs < 1:
            raise ConfigurationError("a router needs >= 1 VC")
        if buffer_depth < 2:
            raise ConfigurationError("credit flow control needs depth >= 2")
        if pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        if n_vcs == 1 and route is None:
            raise ConfigurationError(
                "a single-VC router needs a route function"
            )
        if n_vcs >= 2 and candidates is None:
            raise ConfigurationError(
                "a VC router needs a candidates function (VC policy)"
            )
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        self.buffer_depth = buffer_depth
        self.pipeline_depth = pipeline_depth
        # Flits between grant and link traversal, as (ready_tick,
        # out flit wire, wire payload). Grants are issued in tick order
        # with a constant stage delay, so ready ticks are monotone and
        # one queue suffices.
        self._stage_queue: deque[tuple[int, Signal, object]] = deque()
        # Single-VC routes, memoised per destination (a route reads only
        # the flit's destination).
        self._route = RouteMemo(route) if route is not None else None
        # VC candidates, memoised per (in_port, in_vc, dest, src).
        self._candidates = (VcCandidateMemo(candidates)
                            if candidates is not None else None)
        # Bubble flow control (single-VC only): the strategy deciding
        # which in->out pairs are same-ring transit; None disables the
        # rule (acyclic fabrics, and every VC regime — dateline/escape
        # policies replace it).
        self._ring_transit = (ring_transit
                              if n_vcs == 1 and ring_transit is not None
                              and ring_transit.needs_bubble else None)
        self._port_names = port_names
        # in_links[p]: flits arriving on port p; out_links[p]: flits leaving.
        self.in_links: list[CreditLink | None] = [None] * n_ports
        self.out_links: list[CreditLink | None] = [None] * n_ports
        # Per-port FIFO depth (shared by a port's VCs): buffer_depth
        # unless the attached link was sized for a longer credit loop
        # (see connect()).
        self.fifo_depths = [buffer_depth] * n_ports
        self.allocator = (allocator if allocator is not None
                          else RoundRobinAllocator())
        self.allocator.bind(n_ports, n_vcs)
        if n_vcs == 1:
            # The historical wormhole state layout, flat per port.
            self.fifos: list[deque[Flit]] = [deque()
                                             for _ in range(n_ports)]
            self.credits: list[int] = [0] * n_ports
            self.locks: list[int | None] = [None] * n_ports
            self._starved: list[bool] = [False] * n_ports
            # Switch requests all target "VC 0" of the output.
            self._zero_vc_of = [0] * n_ports
        else:
            # Indexed [port][vc]; flattened index = port * n_vcs + vc.
            self.fifos = [[deque() for _ in range(n_vcs)]
                          for _ in range(n_ports)]
            self.credits = [[0] * n_vcs for _ in range(n_ports)]
            #: Which input VC owns each output VC (per-VC wormhole lock).
            self.vc_owner: list[list[tuple[int, int] | None]] = [
                [None] * n_vcs for _ in range(n_ports)
            ]
            #: The (out_port, out_vc) each input VC's packet was allocated.
            self.allocation: list[list[tuple[int, int] | None]] = [
                [None] * n_vcs for _ in range(n_ports)
            ]
            self._starved = [[False] * n_vcs for _ in range(n_ports)]
        self._gating = GatingStats()
        self.flits_forwarded = 0
        self.vcs_allocated = 0
        # (inputs, outputs, watch list, input VC slots) of the connected
        # ports, laid out at the first edge after a connect() (see
        # _lay_out_wires); None = not yet.
        self._wires: tuple | None = None
        # register=False leaves the router unscheduled (an array backend
        # executes its semantics instead); state and wiring are identical.
        if register:
            kernel.add_component(self)

    # The allocator owns arbitration state; these are its views.

    @property
    def sa_arbiters(self):
        """Per-output switch arbiters."""
        return self.allocator.sa_arbiters

    @property
    def va_arbiters(self):
        """VC-allocation arbiters, keyed by ``(out_port, out_vc)``."""
        return self.allocator.va_arbiters

    def port_name(self, port: int) -> str:
        return port_label(self._port_names, port)

    def connect(self, port: int, in_link: CreditLink | None,
                out_link: CreditLink | None) -> None:
        for link in (in_link, out_link):
            if link is not None and link.n_vcs != self.n_vcs:
                raise ConfigurationError(
                    f"{self.name}: {link!r} carries {link.n_vcs} VCs, "
                    f"the router {self.n_vcs}"
                )
        self.in_links[port] = in_link
        self.out_links[port] = out_link
        if in_link is not None and in_link.capacity is not None:
            self.fifo_depths[port] = in_link.capacity
        if out_link is not None:
            # Initial credits mirror the consumer's FIFO depth — the link
            # carries the agreed capacity so the two cannot disagree.
            per_vc = (out_link.capacity if out_link.capacity is not None
                      else self.buffer_depth)
            if self.n_vcs == 1:
                self.credits[port] = per_vc
            else:
                self.credits[port] = [per_vc] * self.n_vcs
        self._wires = None

    def _lay_out_wires(self) -> tuple:
        """What on_edge reads and drives every edge, connected ports
        only: (port, arriving-flit wire, credit-return wires) per input,
        (port, departing-flit wire, (vc, credit wire) pairs) per output,
        the signals to watch while asleep, and (VC regime) one
        ``(in_port, in_vc, fifo, allocation row)`` slot per input VC.
        ``sync_back`` refills FIFOs and rows in place, so the slots stay
        valid. Deferred to the first edge so unscheduled routers (array
        backend) and the connect() calls before the last one pay
        nothing."""
        inputs = tuple(
            (p, link.flit, tuple(link.credits_out))
            for p, link in enumerate(self.in_links) if link is not None)
        outputs = tuple(
            (p, link.flit_in, tuple(enumerate(link.credits)))
            for p, link in enumerate(self.out_links) if link is not None)
        # Anything arriving (flits in, credits back) makes the next edge
        # act again.
        watch = tuple(flit_wire for _p, flit_wire, _c in inputs) + \
            tuple(wire for _p, _f, pairs in outputs for _vc, wire in pairs)
        slots = () if self.n_vcs == 1 else tuple(
            (p, vc, self.fifos[p][vc], self.allocation[p])
            for p, _f, _c in inputs for vc in range(self.n_vcs))
        self._wires = (inputs, outputs, watch, slots)
        return self._wires

    def _drain_stages(self, tick: int) -> bool:
        """Phase 0 of a pipelined router's edge: flits granted
        ``pipeline_depth - 1`` cycles ago finish stage traversal and hit
        the link. True if any did."""
        queue = self._stage_queue
        drained = False
        while queue and queue[0][0] <= tick:
            _ready, wire, payload = queue.popleft()
            wire.set((payload, tick), tick)
            drained = True
        return drained

    # -- the single-VC (wormhole) edge -----------------------------------

    def on_edge(self, tick: int) -> None:
        """One router edge (docs/fabric.md, "One router edge"). The
        single-VC edge runs right here, one call per router and cycle
        on the loaded path; the VC regime's edge is :meth:`_edge_vc`."""
        inputs, outputs, watch, slots = self._wires or self._lay_out_wires()
        if self.n_vcs != 1:
            self._edge_vc(tick, inputs, outputs, watch, slots)
            return
        enabled = False   # register-bank activity (gating statistics)
        active = False    # anything at all happened (sleep decision)
        # Event name -> listeners; truthy iff any event has one.
        observed = self._kernel._event_subs
        due = tick - LINK_LATENCY_TICKS   # sent-tag of payloads landing now
        credits, fifos, locks = self.credits, self.fifos, self.locks
        if self._stage_queue:
            enabled = self._drain_stages(tick)
            # In-flight stage state: never sleep on it.
            active = bool(self._stage_queue)
        # 1. Request collection: route each FIFO head once (memoised by
        # destination), bucket the inputs under the output they want.
        routes = self._route
        wants: dict[int, list[int]] = {}
        for in_port, fifo in enumerate(fifos):
            if fifo:
                wants.setdefault(routes[fifo[0].dest], []).append(in_port)
        # 2. One pass over the connected outputs, ascending: collect the
        # output's credit return, then grant it if anyone wants it. Runs
        # before arrivals are enqueued, so a flit spends at least one
        # full cycle in the router (head latency 2 cycles/hop incl. the
        # wire). Credits, lock and bubble state are read as each output's
        # turn comes.
        returned = [0] * self.n_ports
        ring = self._ring_transit
        allocator = self.allocator
        for out_port, out_wire, ((_vc, credit_wire),) in outputs:
            # Tick-tagged credits: consumed exactly once.
            payload = credit_wire.value
            if payload and payload[1] == due and payload[0]:
                credits[out_port] += payload[0]
                active = True
                # Starvation ends exactly when credits return — clear the
                # event latch so a later observer sees the next episode.
                self._starved[out_port] = False
            requesters = wants.get(out_port)
            if requesters is None:
                continue
            if credits[out_port] <= 0:
                if observed and "credit_exhausted" in observed \
                        and not self._starved[out_port]:
                    self._note_starvation_single(out_port, requesters)
                continue
            lock = locks[out_port]
            if lock is not None:
                if lock not in requesters:
                    continue
                winner = allocator.switch_lone(out_port, lock, 0)
            else:
                # Bubble rule: a head may enter a ring only while a slot
                # stays free behind it; same-ring transit is exempt.
                bubble = ring is not None and credits[out_port] < 2
                eligible = []
                for in_port in requesters:
                    if fifos[in_port][0].is_head and (
                            not bubble
                            or ring.ring_transit(in_port, out_port)):
                        eligible.append(in_port)
                if not eligible:
                    continue
                if len(eligible) == 1:
                    winner = allocator.switch_lone(out_port, eligible[0], 0)
                else:
                    requests = [False] * self.n_ports
                    for in_port in eligible:
                        requests[in_port] = True
                    winner = allocator.switch_winner(out_port, requests,
                                                     self._zero_vc_of)
            fifo = fifos[winner]
            flit = fifo.popleft()
            returned[winner] += 1
            if fifo:
                # The pop exposed a new head. Outputs are served in
                # ascending order, so it can still be granted this edge
                # iff it wants a later one.
                later = routes[fifo[0].dest]
                if later > out_port:
                    wants.setdefault(later, []).append(winner)
            if self.pipeline_depth == 1:
                out_wire.set((flit, tick), tick)
            else:
                # Grant now (credits, locks, arbiter state — the decision
                # stage), traverse after the remaining stage registers.
                self._stage_queue.append(
                    (tick + 2 * (self.pipeline_depth - 1), out_wire, flit))
            credits[out_port] -= 1
            self.flits_forwarded += 1
            enabled = True
            if observed and "arbitration_grant" in observed:
                self._kernel.emit("arbitration_grant", {
                    "router": self.name, "output": out_port, "vc": 0,
                    "input": winner, "input_vc": 0, "flit": flit,
                })
            if flit.is_tail:
                locks[out_port] = None
                if observed and not flit.is_head \
                        and "lock_release" in observed:
                    self._kernel.emit("lock_release", {
                        "router": self.name, "output": out_port, "vc": 0,
                        "input": winner, "input_vc": 0,
                        "packet_id": flit.packet_id,
                    })
            elif flit.is_head:
                locks[out_port] = winner
                if observed and "lock_acquire" in observed:
                    self._kernel.emit("lock_acquire", {
                        "router": self.name, "output": out_port, "vc": 0,
                        "input": winner, "input_vc": 0,
                        "packet_id": flit.packet_id,
                    })
        # 3. Accept arrivals (the credit scheme guarantees FIFO space) and
        # return credits upstream for dequeued flits. A credit wire keeps
        # its last return, so an edge without a dequeue drives nothing.
        for port, flit_wire, (credit_wire,) in inputs:
            payload = flit_wire.value
            if payload is not None and payload[1] == due:
                fifo = fifos[port]
                if len(fifo) >= self.fifo_depths[port]:
                    raise RoutingError(f"{self.name}: FIFO overflow on "
                                       f"{self.port_name(port)} "
                                       f"(credit violation)")
                fifo.append(payload[0])
                enabled = True
            if returned[port]:
                credit_wire.set((returned[port], tick), tick)
        self.record_edge(tick, enabled)
        if not enabled and not active:
            # Fixed point: nothing arrived, nothing moved, every wire we
            # drive already holds its committed value. Forwarding (even
            # with buffered flits) can only resume after a credit return
            # or a new arrival — both are watched signal changes.
            self.sleep_until(*watch)

    def _note_starvation_single(self, out_port: int,
                                requesters: list[int]) -> None:
        """Emit ``credit_exhausted`` on the edge starvation begins. Called
        only while the event has a listener and the ``_starved`` latch is
        clear; the latch is kept only then.

        ``requesters`` are the inputs whose head wants the creditless
        output. The transition (a buffered flit wants the output, no
        credits) is a function of committed state only, so the event
        sequence is identical in both kernel modes: the naive loop's
        re-fired starved edges are suppressed by the ``_starved`` latch,
        and the fast path is always awake on the entering edge (a flit
        arrival or the credit-consuming forward immediately precedes it).
        """
        lock = self.locks[out_port]
        if lock is None:
            in_port = min(requesters)
        elif lock in requesters:
            in_port = lock
        else:
            return
        self._starved[out_port] = True
        self._kernel.emit("credit_exhausted", {
            "router": self.name, "output": out_port, "vc": 0,
            "input": in_port, "input_vc": 0,
        })

    # -- the virtual-channel edge ----------------------------------------

    def _edge_vc(self, tick: int, inputs, outputs, watch, slots) -> None:
        enabled = False   # register-bank activity (gating statistics)
        active = False    # anything at all happened (sleep decision)
        # Event name -> listeners; truthy iff any event has one.
        observed = self._kernel._event_subs
        due = tick - LINK_LATENCY_TICKS   # sent-tag of payloads landing now
        n_vcs = self.n_vcs
        credits, fifos, allocation = self.credits, self.fifos, self.allocation
        starved = self._starved
        delay = 2 * (self.pipeline_depth - 1)   # stage registers, in ticks
        if self._stage_queue:
            enabled = self._drain_stages(tick)
            # In-flight stage state: never sleep on it.
            active = bool(self._stage_queue)
        # 1. One pass over the occupied input VCs: those without an output
        # VC go to VC allocation, the rest are bucketed under the output
        # port they hold. 2. An allocation changes the buckets, so they
        # are collected again, keeping them ascending by (in_port, in_vc)
        # — the order starvation reports keep.
        pending, wants = _collect_requests(slots)
        if pending and self._allocate_vcs(pending, observed):
            enabled = True
            _pending, wants = _collect_requests(slots)
        # 3. One pass over the connected outputs, ascending: collect the
        # output's per-VC credit returns, then switch-allocate it if
        # anyone wants it. One crossbar pass per input port and edge:
        # in_port -> the in_vc that crossed (so at most one credit to
        # return per port).
        popped: dict[int, int] = {}
        allocator = self.allocator
        for out_port, out_wire, credit_wires in outputs:
            port_credits = credits[out_port]
            for vc, credit_wire in credit_wires:
                payload = credit_wire.value
                if payload and payload[1] == due and payload[0]:
                    port_credits[vc] += payload[0]
                    active = True
                    starved[out_port][vc] = False
            requesters = wants.get(out_port)
            if requesters is None:
                continue
            eligible = []
            for request in requesters:
                in_port, _in_vc, out_vc = request
                if in_port in popped:
                    continue
                if port_credits[out_vc] <= 0:
                    # Every starved VC reports, even while sibling VCs
                    # keep the physical port busy — per-VC starvation is
                    # exactly what the event exists to expose.
                    if observed and "credit_exhausted" in observed:
                        self._note_starvation_vc(out_port, out_vc)
                    continue
                eligible.append(request)
            if not eligible:
                continue
            if len(eligible) == 1:
                in_port, in_vc, out_vc = eligible[0]
                allocator.switch_lone(out_port, in_port * n_vcs + in_vc,
                                      out_vc)
            else:
                requests = [False] * (self.n_ports * n_vcs)
                out_vc_of = [0] * (self.n_ports * n_vcs)
                for in_port, in_vc, out_vc in eligible:
                    requests[in_port * n_vcs + in_vc] = True
                    out_vc_of[in_port * n_vcs + in_vc] = out_vc
                winner = allocator.switch_winner(out_port, requests,
                                                 out_vc_of)
                in_port, in_vc = divmod(winner, n_vcs)
                out_vc = out_vc_of[winner]
            flit = fifos[in_port][in_vc].popleft()
            popped[in_port] = in_vc
            if delay:
                # Grant now (credits, VC locks, arbiter state — the
                # decision stage), traverse after the stage registers.
                self._stage_queue.append(
                    (tick + delay, out_wire, (flit, out_vc)))
            else:
                out_wire.set(((flit, out_vc), tick), tick)
            port_credits[out_vc] -= 1
            self.flits_forwarded += 1
            enabled = True
            if observed and "arbitration_grant" in observed:
                self._kernel.emit("arbitration_grant", {
                    "router": self.name, "output": out_port, "vc": out_vc,
                    "input": in_port, "input_vc": in_vc, "flit": flit,
                })
            if flit.is_tail:
                # Tail releases the per-VC lock and the allocation.
                self.vc_owner[out_port][out_vc] = None
                allocation[in_port][in_vc] = None
                if observed and not flit.is_head \
                        and "lock_release" in observed:
                    self._kernel.emit("lock_release", {
                        "router": self.name, "output": out_port,
                        "vc": out_vc, "input": in_port, "input_vc": in_vc,
                        "packet_id": flit.packet_id,
                    })
        # 4. Accept arrivals into the per-VC FIFOs and return credits
        # upstream: one drive, on the popped VC's wire (credit wires keep
        # their last return, so the other VCs' wires are left alone).
        for port, flit_wire, return_wires in inputs:
            payload = flit_wire.value
            if payload is not None and payload[1] == due:
                flit, vc = payload[0]
                if len(fifos[port][vc]) >= self.fifo_depths[port]:
                    raise RoutingError(
                        f"{self.name}: FIFO overflow on "
                        f"{self.port_name(port)} vc{vc} (credit violation)"
                    )
                fifos[port][vc].append(flit)
                enabled = True
            if port in popped:
                return_wires[popped[port]].set((1, tick), tick)
        self.record_edge(tick, enabled)
        if not enabled and not active:
            # Fixed point: ownership only changes when a tail is
            # forwarded (this edge would have been enabled), so progress
            # can only resume with an arrival or a credit return — both
            # watched signal changes.
            self.sleep_until(*watch)

    # -- VC allocation ---------------------------------------------------

    def _allocate_vcs(self, pending: list[tuple], observed: dict) -> bool:
        """Stage one: grant free output VCs to waiting head flits.

        Requests are collected per ``pending`` input slot (an occupied
        input VC with no allocation yet; ascending) from its policy
        candidates, memoised per ``(in_port, in_vc, dest, src)`` —
        preferred pairs while any is free, escape fallback otherwise —
        then the requested output VCs are walked in a fixed order (port
        ascending, VC descending) granting via the allocator's VC stage
        among the requesting input VCs. Single pass, deterministic, at
        most one allocation per input VC per edge. ``observed`` is the
        kernel's event-subscriber dict.
        """
        n_vcs = self.n_vcs
        vc_owner, out_links = self.vc_owner, self.out_links
        candidates = self._candidates
        want: dict[tuple[int, int], list[int]] = {}
        for in_port, in_vc, fifo, _row in pending:
            head = fifo[0]
            if not head.is_head:
                raise RoutingError(
                    f"{self.name}: body flit {head} without an "
                    f"allocation on {self.port_name(in_port)} "
                    f"vc{in_vc}"
                )
            preferred, fallback = candidates[in_port, in_vc, head.dest,
                                             head.src]
            requested = [
                pair for pair in preferred
                if vc_owner[pair[0]][pair[1]] is None
                and out_links[pair[0]] is not None
            ]
            if not requested:
                requested = [
                    pair for pair in fallback
                    if vc_owner[pair[0]][pair[1]] is None
                    and out_links[pair[0]] is not None
                ]
            for pair in requested:
                want.setdefault(pair, []).append(in_port * n_vcs + in_vc)
        allocated_inputs: set[int] = set()
        allocator = self.allocator
        # A lone requested output VC needs no walk order.
        walk = sorted(want, key=_va_walk_order) if len(want) > 1 else want
        for out_port, out_vc in walk:
            eligible = [flat for flat in want[out_port, out_vc]
                        if flat not in allocated_inputs]
            if not eligible:
                continue
            if len(eligible) == 1:
                winner = allocator.vc_lone(out_port, out_vc, eligible[0])
            else:
                requests = [False] * (self.n_ports * n_vcs)
                for flat in eligible:
                    requests[flat] = True
                winner = allocator.vc_winner(out_port, out_vc, requests)
            in_port, in_vc = divmod(winner, n_vcs)
            vc_owner[out_port][out_vc] = (in_port, in_vc)
            self.allocation[in_port][in_vc] = (out_port, out_vc)
            allocated_inputs.add(winner)
            self.vcs_allocated += 1
            if observed:
                head = self.fifos[in_port][in_vc][0]
                if "vc_allocated" in observed:
                    self._kernel.emit("vc_allocated", {
                        "router": self.name, "output": out_port,
                        "vc": out_vc, "input": in_port, "input_vc": in_vc,
                        "flit": head,
                    })
                if not head.is_tail and "lock_acquire" in observed:
                    self._kernel.emit("lock_acquire", {
                        "router": self.name, "output": out_port,
                        "vc": out_vc, "input": in_port,
                        "input_vc": in_vc,
                        "packet_id": head.packet_id,
                    })
        return bool(allocated_inputs)

    def _note_starvation_vc(self, out_port: int, out_vc: int) -> None:
        """Emit ``credit_exhausted`` on the edge starvation begins."""
        if self._starved[out_port][out_vc]:
            return
        self._starved[out_port][out_vc] = True
        in_port, in_vc = self.vc_owner[out_port][out_vc]
        self._kernel.emit("credit_exhausted", {
            "router": self.name, "output": out_port, "vc": out_vc,
            "input": in_port, "input_vc": in_vc,
        })

    @property
    def buffered_flits(self) -> int:
        if self.n_vcs == 1:
            return sum(len(fifo) for fifo in self.fifos)
        return sum(len(fifo) for port in self.fifos for fifo in port)

    @property
    def buffer_capacity(self) -> int:
        """Total FIFO capacity: per-port depth x VCs over ports in use."""
        return sum(self.fifo_depths[port] * self.n_vcs
                   for port, link in enumerate(self.in_links)
                   if link is not None)
