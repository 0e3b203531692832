"""Vectorized array execution backend for the credit fabrics.

``backend="array"`` lowers a built :class:`~repro.fabric.network
.CreditFabricNetwork` into struct-of-arrays numpy state — per-(router,
port, vc) FIFO occupancy rings of interned flit ids, head caches,
credit counters, wormhole locks / VC allocations, round-robin pointers —
and executes the whole fabric's commit + arbitrate + credit-return inner
loop as whole-network array operations, one step per clock edge. The
routers and endpoints are still built with their full state and wiring
(``register=False`` keeps them off the kernel schedule); one engine
component replaces them all.

**One lowering path.** :class:`ArrayEngine` mirrors the unified
:class:`~repro.fabric.router.FabricRouter`: every state array carries a
VC axis, and ``n_vcs=1`` is the wormhole degenerate case — the routing
table, the bubble rule, and the per-output wormhole locks replace the
VC-allocation stage, exactly as the dispatch router's single-VC edge
does. The two grant phases (:meth:`ArrayEngine._grants_single` /
:meth:`ArrayEngine._grants_vc`) are the array transcription of
``FabricRouter.on_edge`` / ``_edge_vc``; arrivals, sources, sinks,
and the scheduling plumbing are shared. Routing and VC candidates come
from the strategies' array forms
(:meth:`~repro.fabric.routing.RoutingStrategy.route_array`,
:meth:`~repro.fabric.routing.VcPolicy.candidate_masks`), so a policy
without a numpy override still lowers through the mapped default.

**The VC phases work on what is occupied, not on dense (R, P, V)
arrays.** VC allocation takes ``(pending head, output VC)`` request
pairs from the policy's masks and walks the requested output VCs in the
dispatch walk order, one round-robin round each, skipping heads an
earlier round allocated. Switch allocation gathers **one candidate list
per edge** — the flat indices of occupied input VCs that hold an
allocation, router-sorted — and checks credits once for all of them.
That is sound because ``credits[r, o, ov]`` changes only in output
``o``'s round, a popped input port is masked for the rest of the edge by
the crossbar rule (one pass per input port), and the tail release and
head refresh touch only popped inputs. The ``P`` output rounds then only
pick winners — per router, the requester nearest after the arbiter
pointer, one ``np.minimum.reduceat`` over the router-sorted list — and
one batched pass applies every pop, head refresh, credit return,
launch, credit decrement and tail release. A router can win several
outputs (and output VCs) in one edge, so its counters add with
``bincount``. Events and write-through come from the same phase: per
router in ascending output order, ``credit_exhausted`` for creditless
candidates whose input port was still free at that output's round, then
the round's ``arbitration_grant`` and ``lock_release``.

**Equivalence is the contract.** Every observable the dispatch backend
produces is reproduced exactly:

* delivered packets, delivery order, latencies, hop counts, and
  per-router statistics (``flits_forwarded``, allocator arbiter grant
  counts, FIFO/credit/lock state — written back by :meth:`sync_back`);
* ``kernel.tick`` — the engine is an ordinary registered component, so
  runs advance the clock identically and drains stop on the same tick;
* gating statistics — ``enabled`` edges are accumulated per router with
  the same definition (grant | arrival | VC allocation), totals use the
  same closed-form idle backfill as
  :class:`~repro.sim.component.GatedComponentMixin`;
* kernel events — with a subscriber attached, ``arbitration_grant``,
  ``credit_exhausted``, ``vc_allocated``, ``lock_acquire``,
  ``lock_release``, ``flit`` and ``packet`` fire edge-triggered in the
  dispatch backend's exact global order (routers node-ascending, then
  sinks node-ascending, each in its internal phase order), carrying the
  same always-suffixed ``vc``/``input_vc`` fields (0 on single-VC
  fabrics);
* signal probes — when any flit wire carries a probe, the engine enters
  *write-through* mode and drives the real link wires alongside its
  arrays, so :mod:`repro.telemetry` sees identical commits. Probed
  credit wires have no cheap write-through and raise
  :class:`~repro.errors.ConfigurationError` — loud, never silently
  wrong.

Links between routers are modelled as double-buffered id arrays: a value
produced at step ``t`` is consumed at step ``t + 2`` — exactly
:data:`~repro.fabric.link.LINK_LATENCY_TICKS` — so flit timing is
bit-identical to the tick-tagged wires.

When nothing is observed the engine implements
:class:`~repro.sim.batch.BatchComponent` and consumes whole tick windows
from :meth:`SimKernel.run_ticks` without per-tick kernel dispatch; with
subscribers or probes attached it declines the batch and steps tick by
tick so event and probe timing stay exact.

Not lowerable (``FabricConfig._array_refusal`` states the rule once; the
config validates with it and :func:`make_engine` re-checks through it):
pipelined routers (``pipeline_depth > 1``), segmented links, the
``weighted`` allocator (its windowed reservation counters have no array
transcription yet), and the tree fabrics' handshake pipeline.
``backend="auto"`` falls back to dispatch for those; ``backend="array"``
raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError, RoutingError
from repro.fabric.router import _va_walk_order
from repro.fabric.routing import LOCAL
from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.sim.batch import BatchComponent
from repro.sim.component import latest_parity_tick
from repro.sim.signal import Signal

if TYPE_CHECKING:
    from repro.fabric.network import CreditFabricNetwork

__all__ = ["make_engine", "ArrayEngine"]


def make_engine(net: "CreditFabricNetwork"):
    """Lower a built fabric into its vectorized engine component."""
    refusal = net.config._array_refusal
    if refusal:
        raise ConfigurationError(
            f"backend='array' {refusal}; use backend='dispatch' (or "
            f"'auto' to fall back)"
        )
    return ArrayEngine(net)


def _rr_winners(routers: np.ndarray, flat: np.ndarray, last: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """One round-robin round in every router at once.

    ``routers`` is sorted, so each router's requests are contiguous;
    ``flat`` names each request's input (VC) and ``last`` the router's
    arbiter pointer, per request. The winner is the requester nearest
    after the pointer. Returns the routers and their winners."""
    first = np.empty(routers.size, dtype=bool)
    first[0] = True
    np.not_equal(routers[1:], routers[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    best = np.minimum.reduceat((flat - last - 1) % size, starts)
    return routers[starts], (best + last[starts] + 1) % size


class _FlitStore:
    """Interning table: flit object <-> small integer id, with the hot
    per-flit fields (src, dest, head/tail) mirrored into numpy arrays."""

    def __init__(self) -> None:
        cap = 1024
        self.objs: list[Flit] = []
        self.src = np.zeros(cap, dtype=np.int64)
        self.dest = np.zeros(cap, dtype=np.int64)
        self.is_head = np.zeros(cap, dtype=bool)
        self.is_tail = np.zeros(cap, dtype=bool)

    def intern(self, flit: Flit) -> int:
        fid = len(self.objs)
        if fid == len(self.dest):
            for field in ("src", "dest", "is_head", "is_tail"):
                column = getattr(self, field)
                setattr(self, field,
                        np.concatenate([column, np.zeros_like(column)]))
        self.objs.append(flit)
        self.src[fid] = flit.src
        self.dest[fid] = flit.dest
        self.is_head[fid] = flit.is_head
        self.is_tail[fid] = flit.is_tail
        return fid


class ArrayEngine(BatchComponent):
    """Whole-fabric vectorized execution of the unified credit routers.

    Credit/arrival handling, sources, and sinks are fully array-level in
    both regimes. ``n_vcs=1`` runs the wormhole grant phase (routing
    table, bubble rule, per-output locks); ``n_vcs >= 2`` runs two-stage
    allocation, both stages as one round-robin round per output (VC)
    across every router at once, over sparse request lists — VC
    allocation over the policy's candidate masks in
    :meth:`FabricRouter._allocate_vcs`'s port-ascending, VC-descending
    walk order, then switch allocation over the edge's one candidate
    list."""

    def __init__(self, net: "CreditFabricNetwork") -> None:
        super().__init__(f"{net._node_prefix}.engine", parity=0)
        self.net = net
        self.kernel = net.kernel
        self._store = _FlitStore()
        self._quiet = False
        # Arrivals land after the grant/allocation phase of their step,
        # so a head they expose has not seen an arbitration pass yet.
        # This flag keeps the engine awake one more step for that pass;
        # without it a lone in-flight flit (single-flit packets between
        # bursts) would be declared quiet mid-route and never granted.
        self._fresh_heads = False
        self._write_through = False
        self._probe_epoch_seen = -1

        topo = net.topology
        self._R = R = topo.nodes
        self._P = P = topo.max_ports
        self._V = V = net.n_vcs
        self._iota = np.arange(P, dtype=np.int64)
        self._names = [router.name for router in net.routers]

        # Connectivity: for every (router, out port) the consuming
        # (router, in port), flat as router * P + port; LOCAL out ports
        # feed the node's sink. The upstream map inverts it for credit
        # returns.
        in_map: dict[int, tuple[int, int]] = {}
        out_map: dict[int, tuple[int, int]] = {}
        for r, router in enumerate(net.routers):
            for p, link in enumerate(router.in_links):
                if link is not None:
                    in_map[id(link)] = (r, p)
            for p, link in enumerate(router.out_links):
                if link is not None:
                    out_map[id(link)] = (r, p)
        self._conn_out = np.zeros((R, P), dtype=bool)
        self._conn_in = np.zeros((R, P), dtype=bool)
        self._dst = np.zeros((R, P), dtype=np.int64)
        self._up = np.zeros((R, P), dtype=np.int64)
        for r, router in enumerate(net.routers):
            for p, link in enumerate(router.out_links):
                if link is None:
                    continue
                self._conn_out[r, p] = True
                consumer = in_map.get(id(link))
                if consumer is not None:
                    self._dst[r, p] = consumer[0] * P + consumer[1]
                elif p != LOCAL or id(link) != id(net.sinks[r].link):
                    raise ConfigurationError(
                        "backend='array' cannot lower this fabric wiring: "
                        f"{router.name} output {router.port_name(p)} "
                        f"drives neither a router nor the node's sink"
                    )
            for p, link in enumerate(router.in_links):
                if link is None:
                    continue
                self._conn_in[r, p] = True
                producer = out_map.get(id(link))
                if producer is not None:
                    self._up[r, p] = producer[0] * P + producer[1]
                elif p != LOCAL or id(link) != id(net.sources[r].link):
                    raise ConfigurationError(
                        "backend='array' cannot lower this fabric wiring: "
                        f"{router.name} input {router.port_name(p)} is "
                        f"driven by neither a router nor the node's source"
                    )

        # Per-router FIFO depths (per port; VCs of a port share one) and
        # the ring-buffer capacity.
        self._fifo_depth = np.zeros((R, P), dtype=np.int64)
        for r, router in enumerate(net.routers):
            self._fifo_depth[r] = router.fifo_depths
        self._C = C = max(2, int(self._fifo_depth.max()))

        # Per-(router, port, vc) state mirrors FabricRouter exactly —
        # the single-VC regime simply never indexes past vc 0.
        self._fifo_buf = np.full((R, P, V, C), -1, dtype=np.int64)
        self._fifo_start = np.zeros((R, P, V), dtype=np.int64)
        self._fifo_len = np.zeros((R, P, V), dtype=np.int64)
        self._head_fid = np.full((R, P, V), -1, dtype=np.int64)
        self._head_is_head = np.zeros((R, P, V), dtype=bool)
        self._credits = np.zeros((R, P, V), dtype=np.int64)
        self._starved = np.zeros((R, P, V), dtype=bool)
        # Switch-allocation arbiter state (the allocator's sa_arbiters):
        # flat input index in_port * V + in_vc, exactly the dispatch
        # round-robin at every VC count.
        self._sa_last = np.full((R, P), P * V - 1, dtype=np.int64)
        self._sa_grants = np.zeros((R, P), dtype=np.int64)
        self._sa_grant_counts = np.zeros((R, P, P * V), dtype=np.int64)

        if V == 1:
            # Wormhole regime: routing lowers to one [node, dest] table
            # (route functions are pure in flit.dest — the strategies
            # guarantee it), heads cache their output port, and
            # per-output locks replace the VC-allocation stage.
            nodes = np.arange(R, dtype=np.int64)
            self._route_tab = net.routing.route_array(nodes[:, None],
                                                      nodes[None, :])
            self._head_out = np.full((R, P), -1, dtype=np.int64)
            self._locks = np.full((R, P), -1, dtype=np.int64)
            # Bubble rule (ring-closing topologies, wormhole only).
            self._needs_bubble = net.routing.needs_bubble
            self._transit = np.zeros((P, P), dtype=bool)
            if self._needs_bubble:
                for in_p in range(P):
                    for out_p in range(P):
                        self._transit[in_p, out_p] = \
                            net.routing.ring_transit(in_p, out_p)
            for r, router in enumerate(net.routers):
                self._credits[r, :, 0] = router.credits
        else:
            # VC regime: the (out_port, out_vc) each input VC's packet
            # holds (-1: none), and the owning input VC per output VC
            # (the per-VC lock), plus the VC-allocation arbiters.
            self._alloc_out = np.full((R, P, V), -1, dtype=np.int64)
            self._alloc_vc = np.full((R, P, V), -1, dtype=np.int64)
            self._owner_in = np.full((R, P, V), -1, dtype=np.int64)
            self._owner_vc = np.full((R, P, V), -1, dtype=np.int64)
            self._va_last = np.full((R, P * V), P * V - 1, dtype=np.int64)
            self._va_grants = np.zeros((R, P * V), dtype=np.int64)
            self._va_grant_counts = np.zeros((R, P * V, P * V),
                                             dtype=np.int64)
            self._vcs_allocated = np.zeros(R, dtype=np.int64)
            # Each output VC's place in the VC-allocation walk.
            walk = sorted(range(P * V),
                          key=lambda arb: _va_walk_order(divmod(arb, V)))
            self._va_rank = np.empty(P * V, dtype=np.int64)
            self._va_rank[walk] = np.arange(P * V)
            # Routers whose VA inputs changed since their last walk (a
            # new head flit or a released output VC). A failed walk is
            # pure — no arbiter/event side effects in dispatch either —
            # so a router with unchanged inputs can skip re-walking.
            self._va_dirty = np.ones(R, dtype=bool)
            for r, router in enumerate(net.routers):
                self._credits[r] = router.credits
            if net.vc_policy.n_ports != P:
                raise ConfigurationError(
                    f"backend='array': the {net.vc_policy.name} VC policy "
                    f"indexes {net.vc_policy.n_ports} ports but the "
                    f"routers have {P}; set the policy's n_ports"
                )

        self._inj_vc = np.asarray([src.vc for src in net.sources],
                                  dtype=np.int64)

        # Source state: contiguous interned-id window of the unpacked
        # packet, credit counter, host-submitted backlog flag.
        self._src_next = np.zeros(R, dtype=np.int64)
        self._src_end = np.zeros(R, dtype=np.int64)
        self._src_credits = np.asarray(
            [src.credits for src in net.sources], dtype=np.int64)
        self._has_pkts = np.asarray(
            [bool(src.packets) for src in net.sources], dtype=bool)

        # Gating: enabled edges accumulate here; totals are closed-form.
        self._edges_enabled = np.zeros(R, dtype=np.int64)
        self._flits_fwd = np.zeros(R, dtype=np.int64)

        # Buffered event replay (observed mode): per-router lists plus
        # one list for the sinks, flushed node-ascending each step.
        self._events: dict[int, list[tuple[str, dict]]] = {}
        self._sink_events: list[tuple[str, Any]] = []

        # Double-buffered links: produced at step t, consumed at t + 2.
        self._arrive = [np.full((R, P), -1, dtype=np.int64)
                        for _ in range(2)]
        self._arrive_vc = [np.zeros((R, P), dtype=np.int64)
                           for _ in range(2)]
        self._credit_in = [np.zeros((R, P, V), dtype=np.int64)
                           for _ in range(2)]
        self._sink_in = [np.full(R, -1, dtype=np.int64) for _ in range(2)]
        self._sink_vc = [np.zeros(R, dtype=np.int64) for _ in range(2)]
        self._src_credit_in = [np.zeros(R, dtype=np.int64)
                               for _ in range(2)]
        self._flip = 0

        self.kernel.add_component(self)

    # -- scheduling -----------------------------------------------------

    def on_submit(self, node: int) -> None:
        """A packet was submitted to ``node``'s source (host-side)."""
        self._has_pkts[node] = True
        self._quiet = False
        self.wake()

    def on_edge(self, tick: int) -> None:
        if self._quiet:
            if self.kernel.activity_driven:
                self.sleep_until()
            return
        self._step(tick)
        if self._is_quiet():
            self._quiet = True
            if self.kernel.activity_driven:
                self.sleep_until()

    def batch_ticks(self, window: int) -> int:
        if self._write_through or self.kernel._event_subs:
            return 0  # observed: per-tick dispatch keeps timing exact
        kernel = self.kernel
        consumed = 0
        while consumed < window:
            if kernel.tick % 2 == 0:
                if self._quiet:
                    break
                kernel.steps_executed += 1
                self._step(kernel.tick)
                if self._is_quiet():
                    self._quiet = True
                    kernel.tick += 1
                    consumed += 1
                    self.sleep_until()
                    break
            kernel.tick += 1
            consumed += 1
        return consumed

    def refresh_observers(self) -> None:
        """Re-scan link wires for probes (cached by the probe epoch).

        Probed flit wires switch the engine to write-through (it drives
        the real wires so probes fire identically to dispatch); probed
        credit wires are refused loudly — the engine never drives them.
        """
        epoch = Signal.probe_epoch
        if epoch == self._probe_epoch_seen:
            return
        self._probe_epoch_seen = epoch
        probed = False
        for link in self.net.links:
            if link.flit._probes:
                probed = True
            for wire in link.credits:
                if wire._probes:
                    raise ConfigurationError(
                        f"backend='array' cannot drive the probed credit "
                        f"wire {wire.name!r}; use backend='dispatch' for "
                        f"credit-wire probes"
                    )
        self._write_through = probed

    # -- observables ----------------------------------------------------

    def gating_stats(self) -> GatingStats:
        total = GatingStats()
        total.edges_total = self._R * self._edges_per_router()
        total.edges_enabled = int(self._edges_enabled.sum())
        return total

    def _edges_per_router(self) -> int:
        latest = latest_parity_tick(self.kernel.tick, 0)
        return latest // 2 + 1 if latest >= 0 else 0

    def _sync_back_sources(self) -> None:
        store = self._store
        for n, src in enumerate(self.net.sources):
            src.credits = int(self._src_credits[n])
            src.flits.clear()
            src.flits.extend(store.objs[i]
                             for i in range(self._src_next[n],
                                            self._src_end[n]))

    def _replay_events(self) -> None:
        emit = self.kernel.emit
        for r in sorted(self._events):
            for name, payload in self._events[r]:
                emit(name, payload)
        self._events.clear()
        for name, payload in self._sink_events:
            emit(name, payload)
        self._sink_events.clear()

    def _event(self, r: int, name: str, payload: dict) -> None:
        self._events.setdefault(r, []).append((name, payload))

    # -- VC allocation (VC regime only) ----------------------------------

    def _allocate_vcs(self, rs: np.ndarray, ps: np.ndarray, vs: np.ndarray,
                      observed: bool, enabled: np.ndarray) -> None:
        """Stage one for the pending heads ``(rs, ps, vs)`` (row-major, so
        sorted by router): the array form of
        :meth:`FabricRouter._allocate_vcs`."""
        store = self._store
        V = self._V
        size = self._P * V
        fids = self._head_fid[rs, ps, vs]
        heads = store.is_head[fids]
        if not heads.all():
            j = int(np.nonzero(~heads)[0][0])
            router = self.net.routers[int(rs[j])]
            raise RoutingError(
                f"{router.name}: body flit {store.objs[int(fids[j])]} "
                f"without an allocation on "
                f"{router.port_name(int(ps[j]))} vc{int(vs[j])}"
            )
        preferred, fallback = self.net.vc_policy.candidate_masks(
            rs, ps, vs, store.dest[fids], store.src[fids])
        # Preferred pairs while any is free (and wired), else fallback.
        free = (self._owner_in[rs] < 0) & self._conn_out[rs][:, :, None]
        requested = preferred & free
        requested |= (fallback & free
                      & ~requested.any(axis=(1, 2), keepdims=True))
        # (pending head, output VC) request pairs, regrouped by output VC
        # in the dispatch router's walk order; the stable sort keeps each
        # group router-sorted, as the heads are.
        head, arb = np.nonzero(requested.reshape(rs.size, size))
        order = np.argsort(self._va_rank[arb], kind="stable")
        head, arb = head[order], arb[order]
        bounds = np.flatnonzero(arb[1:] != arb[:-1]) + 1
        in_flat = ps * V + vs
        head_key = rs * size + in_flat   # ascending: rs, ps, vs row-major
        allocated = np.zeros(rs.size, dtype=bool)
        # One round-robin round per requested output VC, over the heads
        # no earlier round allocated; the rounds only pick winners.
        w_rows, w_win, w_arb = [], [], []
        for lo, group in zip([0] + bounds.tolist(), np.split(head, bounds)):
            live = group[~allocated[group]]
            if live.size == 0:
                continue
            a = arb[lo]
            r_req = rs[live]
            rows, win = _rr_winners(r_req, in_flat[live],
                                    self._va_last[r_req, a], size)
            allocated[np.searchsorted(head_key, rows * size + win)] = True
            w_rows.append(rows)
            w_win.append(win)
            w_arb.append(np.full(rows.size, a, dtype=np.int64))
        if not w_rows:
            return
        # One batched pass applies them, in walk order.
        rows = np.concatenate(w_rows)
        win = np.concatenate(w_win)
        arbs = np.concatenate(w_arb)
        self._va_last[rows, arbs] = win
        self._va_grants[rows, arbs] += 1
        self._va_grant_counts[rows, arbs, win] += 1
        in_p, in_vc = np.divmod(win, V)
        out_p, out_vc = np.divmod(arbs, V)
        self._owner_in[rows, out_p, out_vc] = in_p
        self._owner_vc[rows, out_p, out_vc] = in_vc
        self._alloc_out[rows, in_p, in_vc] = out_p
        self._alloc_vc[rows, in_p, in_vc] = out_vc
        # A router can win several output VCs in one edge.
        self._vcs_allocated += np.bincount(rows, minlength=self._R)
        enabled[rows] = True
        # A grant takes an output VC, which can reroute another pending
        # head (preferred -> fallback) next edge.
        self._va_dirty[rows] = True
        if observed:
            grants = zip(rows.tolist(), out_p.tolist(), out_vc.tolist(),
                         in_p.tolist(), in_vc.tolist())
            for r, o_p, o_vc, i_p, i_vc in grants:
                flit = store.objs[int(self._head_fid[r, i_p, i_vc])]
                self._event(r, "vc_allocated", {
                    "router": self._names[r], "output": o_p, "vc": o_vc,
                    "input": i_p, "input_vc": i_vc, "flit": flit,
                })
                if not flit.is_tail:
                    self._event(r, "lock_acquire", {
                        "router": self._names[r], "output": o_p,
                        "vc": o_vc, "input": i_p, "input_vc": i_vc,
                        "packet_id": flit.packet_id,
                    })

    # -- the switch-allocation phase, single-VC (wormhole) regime --------

    def _grants_single(self, tick: int, observed: bool, wt: bool,
                       enabled: np.ndarray, arrive_nxt: np.ndarray,
                       credit_nxt: np.ndarray, sink_nxt: np.ndarray,
                       srccr_nxt: np.ndarray) -> None:
        P, C = self._P, self._C
        store = self._store
        # Views into the vc-0 plane: the single-VC regime's whole state.
        head_fid = self._head_fid[:, :, 0]
        head_is_head = self._head_is_head[:, :, 0]
        fifo_buf = self._fifo_buf[:, :, 0, :]
        fifo_start = self._fifo_start[:, :, 0]
        fifo_len = self._fifo_len[:, :, 0]
        starved = self._starved[:, :, 0]
        # Per output port (sequential, like the dispatch router's
        # out-port loop — a pop at port A exposes a new head to port B
        # the same edge), vectorized across every router.
        for out_p in range(P):
            conn = self._conn_out[:, out_p]
            credits_col = self._credits[:, out_p, 0]
            base = (head_fid >= 0) & (self._head_out == out_p)
            lock = self._locks[:, out_p]
            locked = lock >= 0
            if self._needs_bubble:
                free_req = head_is_head & (
                    self._transit[:, out_p][None, :]
                    | (credits_col >= 2)[:, None])
            else:
                free_req = head_is_head
            in_is_lock = self._iota[None, :] == lock[:, None]
            req = base & np.where(locked[:, None], in_is_lock, free_req)

            if observed:
                # Starvation scan before the grant, exactly as dispatch
                # handles the credits<=0 continue: candidate = first
                # buffered head wanting this output (lock honoured, no
                # head/bubble filter).
                starv = conn & (credits_col <= 0) & ~starved[:, out_p]
                if starv.any():
                    s_req = base & np.where(locked[:, None], in_is_lock,
                                            True)
                    cand = starv & s_req.any(axis=1)
                    for r in np.nonzero(cand)[0]:
                        starved[r, out_p] = True
                        self._event(int(r), "credit_exhausted", {
                            "router": self._names[r], "output": out_p,
                            "vc": 0, "input": int(np.argmax(s_req[r])),
                            "input_vc": 0,
                        })

            grantable = conn & (credits_col > 0) & req.any(axis=1)
            rows = np.nonzero(grantable)[0]
            if rows.size == 0:
                continue
            key = (self._iota[None, :]
                   - self._sa_last[rows, out_p][:, None] - 1) % P
            key = np.where(req[rows], key, P)
            win = np.argmin(key, axis=1)
            self._sa_last[rows, out_p] = win
            self._sa_grants[rows, out_p] += 1
            self._sa_grant_counts[rows, out_p, win] += 1
            fid = head_fid[rows, win]
            # Pop + head refresh.
            start = (fifo_start[rows, win] + 1) % C
            length = fifo_len[rows, win] - 1
            fifo_start[rows, win] = start
            fifo_len[rows, win] = length
            refill = length > 0
            new_fid = np.where(refill, fifo_buf[rows, win, start], -1)
            head_fid[rows, win] = new_fid
            safe = new_fid.clip(min=0)
            self._head_out[rows, win] = np.where(
                refill, self._route_tab[rows, store.dest[safe]], -1)
            head_is_head[rows, win] = np.where(
                refill, store.is_head[safe], False)
            # Credit return upstream (LOCAL inputs credit the source).
            local_in = win == LOCAL
            other = ~local_in
            credit_nxt.reshape(-1)[self._up[rows[other], win[other]]] += 1
            srccr_nxt[rows[local_in]] += 1
            # Launch toward the consumer (LOCAL outputs feed the sink).
            if out_p == LOCAL:
                sink_nxt[rows] = fid
            else:
                arrive_nxt.reshape(-1)[self._dst[rows, out_p]] = fid
            credits_col[rows] -= 1
            self._flits_fwd[rows] += 1
            enabled[rows] = True
            # Wormhole lock transitions.
            f_tail = store.is_tail[fid]
            f_head = store.is_head[fid]
            self._locks[rows, out_p] = np.where(
                f_tail, -1, np.where(f_head, win, self._locks[rows, out_p]))
            if observed or wt:
                for i, r in enumerate(rows):
                    r = int(r)
                    flit = store.objs[int(fid[i])]
                    if wt:
                        self.net.routers[r].out_links[out_p].send_flit(
                            flit, 0, tick)
                    if observed:
                        self._event(r, "arbitration_grant", {
                            "router": self._names[r], "output": out_p,
                            "vc": 0, "input": int(win[i]), "input_vc": 0,
                            "flit": flit,
                        })
                        if flit.is_tail:
                            if not flit.is_head:
                                self._event(r, "lock_release", {
                                    "router": self._names[r],
                                    "output": out_p, "vc": 0,
                                    "input": int(win[i]), "input_vc": 0,
                                    "packet_id": flit.packet_id,
                                })
                        elif flit.is_head:
                            self._event(r, "lock_acquire", {
                                "router": self._names[r], "output": out_p,
                                "vc": 0, "input": int(win[i]),
                                "input_vc": 0,
                                "packet_id": flit.packet_id,
                            })

    # -- the switch-allocation phase, VC regime --------------------------

    def _grants_vc(self, tick: int, observed: bool, wt: bool,
                   enabled: np.ndarray, arrive_nxt: np.ndarray,
                   arrvc_nxt: np.ndarray, credit_nxt: np.ndarray,
                   sink_nxt: np.ndarray, sinkvc_nxt: np.ndarray,
                   srccr_nxt: np.ndarray) -> None:
        """One candidate list per edge (see the module docstring): the
        output rounds only pick winners, one batched pass moves them."""
        R, P, C, V = self._R, self._P, self._C, self._V
        size = P * V
        store = self._store
        # The candidates, router-sorted: occupied input VCs that hold an
        # allocation (always to a wired output), as flat indices.
        alloc_out = self._alloc_out.reshape(-1)
        alloc_vc = self._alloc_vc.reshape(-1)
        head_fid = self._head_fid.reshape(-1)
        cand = np.flatnonzero((alloc_out >= 0) & (head_fid >= 0))
        if cand.size == 0:
            return
        c_r, c_in = np.divmod(cand, size)
        c_port = cand // V                  # flat (router, in port)
        c_out = alloc_out[cand]
        c_ovc = (c_r * P + c_out) * V + alloc_vc[cand]   # flat output VC
        credits = self._credits.reshape(-1)
        ok = credits[c_ovc] > 0
        # taken[router, in port]: the output whose grant used the port's
        # one crossbar pass this edge (P: none yet).
        taken = np.full(R * P, P, dtype=np.int64)
        go = np.flatnonzero(ok)
        go = go[np.argsort(c_out[go], kind="stable")]
        bounds = np.searchsorted(c_out[go], np.arange(P + 1)).tolist()
        w_hv, w_out = [], []
        for out_p in range(P):
            sel = go[bounds[out_p]:bounds[out_p + 1]]
            if out_p and sel.size:
                sel = sel[taken[c_port[sel]] == P]
            if sel.size == 0:
                continue
            r_req = c_r[sel]
            rows, win = _rr_winners(r_req, c_in[sel],
                                    self._sa_last[r_req, out_p], size)
            hv = rows * size + win
            taken[hv // V] = out_p
            w_hv.append(hv)
            w_out.append(np.full(hv.size, out_p, dtype=np.int64))
        if w_hv:
            hv = np.concatenate(w_hv)       # winning input VCs, flat
            outs = np.concatenate(w_out)
        else:
            hv = outs = np.zeros(0, dtype=np.int64)
        rows, win = np.divmod(hv, size)
        in_port = hv // V                   # flat (router, in port)
        in_vc = hv % V
        r_out = rows * P + outs             # flat (router, out port)
        out_vc = alloc_vc[hv]
        ovc = r_out * V + out_vc            # flat output VC
        fid = head_fid[hv]
        self._sa_last.reshape(-1)[r_out] = win
        self._sa_grants.reshape(-1)[r_out] += 1
        self._sa_grant_counts.reshape(-1)[r_out * size + win] += 1
        # Pop + head refresh.
        fifo_start = self._fifo_start.reshape(-1)
        fifo_len = self._fifo_len.reshape(-1)
        start = (fifo_start[hv] + 1) % C
        length = fifo_len[hv] - 1
        fifo_start[hv] = start
        fifo_len[hv] = length
        refill = length > 0
        new_fid = np.where(refill, self._fifo_buf.reshape(-1)[hv * C + start],
                           -1)
        head_fid[hv] = new_fid
        self._head_is_head.reshape(-1)[hv] = refill & store.is_head[new_fid]
        # Credit return upstream on the input VC.
        local_in = in_port % P == LOCAL
        other = ~local_in
        credit_nxt.reshape(-1)[self._up.reshape(-1)[in_port[other]] * V
                               + in_vc[other]] += 1
        srccr_nxt[rows[local_in & (in_vc == self._inj_vc[rows])]] += 1
        # Launch toward the consumer, VC-tagged.
        to_sink = outs == LOCAL
        sink_nxt[rows[to_sink]] = fid[to_sink]
        sinkvc_nxt[rows[to_sink]] = out_vc[to_sink]
        on = ~to_sink
        dst = self._dst.reshape(-1)[r_out[on]]
        arrive_nxt.reshape(-1)[dst] = fid[on]
        arrvc_nxt.reshape(-1)[dst] = out_vc[on]
        credits[ovc] -= 1
        # A router can win several outputs: fancy += would drop repeats.
        self._flits_fwd += np.bincount(rows, minlength=R)
        enabled[rows] = True
        # Tail releases the per-VC lock and the allocation.
        f_tail = store.is_tail[fid]
        self._owner_in.reshape(-1)[ovc[f_tail]] = -1
        self._owner_vc.reshape(-1)[ovc[f_tail]] = -1
        alloc_out[hv[f_tail]] = -1
        alloc_vc[hv[f_tail]] = -1
        self._va_dirty[rows[f_tail]] = True
        if not (observed or wt):
            return
        # Events and wire writes, output by output: a creditless
        # candidate reports if its input port was still free at that
        # output's round, before the round's grant.
        blocked = []
        if observed:
            b = np.flatnonzero(~ok)
            b = b[taken[c_port[b]] >= c_out[b]]
            b = b[np.argsort(c_out[b], kind="stable")]
            blocked = list(zip(c_out[b].tolist(), c_r[b].tolist(),
                               (c_ovc[b] % V).tolist(),
                               (c_port[b] % P).tolist(),
                               (c_in[b] % V).tolist()))
        j = 0
        for out_p, r, f, vc, i_p, i_vc in zip(
                outs.tolist(), rows.tolist(), fid.tolist(), out_vc.tolist(),
                (in_port % P).tolist(), in_vc.tolist()):
            while j < len(blocked) and blocked[j][0] <= out_p:
                self._note_starvation(*blocked[j])
                j += 1
            flit = store.objs[f]
            if wt:
                self.net.routers[r].out_links[out_p].send_flit(flit, vc, tick)
            if observed:
                self._event(r, "arbitration_grant", {
                    "router": self._names[r], "output": out_p, "vc": vc,
                    "input": i_p, "input_vc": i_vc, "flit": flit,
                })
                if flit.is_tail and not flit.is_head:
                    self._event(r, "lock_release", {
                        "router": self._names[r], "output": out_p,
                        "vc": vc, "input": i_p, "input_vc": i_vc,
                        "packet_id": flit.packet_id,
                    })
        for item in blocked[j:]:
            self._note_starvation(*item)

    def _note_starvation(self, out_p: int, r: int, vc: int, in_p: int,
                         in_vc: int) -> None:
        """``credit_exhausted`` on the edge output VC ``(out_p, vc)`` of
        router ``r`` starves its owner ``(in_p, in_vc)``."""
        if self._starved[r, out_p, vc]:
            return
        self._starved[r, out_p, vc] = True
        self._event(r, "credit_exhausted", {
            "router": self._names[r], "output": out_p, "vc": vc,
            "input": in_p, "input_vc": in_vc,
        })

    # -- one clock edge --------------------------------------------------

    def _step(self, tick: int) -> None:
        R, P, C, V = self._R, self._P, self._C, self._V
        self._fresh_heads = False
        k = self._flip
        arrive_cur, arrive_nxt = self._arrive[k], self._arrive[1 - k]
        arrvc_cur, arrvc_nxt = self._arrive_vc[k], self._arrive_vc[1 - k]
        credit_cur, credit_nxt = self._credit_in[k], self._credit_in[1 - k]
        sink_cur, sink_nxt = self._sink_in[k], self._sink_in[1 - k]
        sinkvc_cur, sinkvc_nxt = self._sink_vc[k], self._sink_vc[1 - k]
        srccr_cur, srccr_nxt = (self._src_credit_in[k],
                                self._src_credit_in[1 - k])
        observed = bool(self.kernel._event_subs)
        wt = self._write_through
        store = self._store
        head_fid = self._head_fid
        enabled = np.zeros(R, dtype=bool)

        # 1. Credit returns end starvation episodes.
        np.add(self._credits, credit_cur, out=self._credits)
        self._starved &= credit_cur == 0

        # 2. VC allocation (VC regime), only where head flits wait
        # unallocated — and only in routers whose VA inputs changed.
        if V > 1:
            pending = ((head_fid >= 0) & (self._alloc_out < 0)
                       & self._va_dirty[:, None, None])
            if pending.any():
                rs, ps, vs = np.nonzero(pending)
                self._va_dirty[rs] = False
                self._allocate_vcs(rs, ps, vs, observed, enabled)

        # 3. Switch allocation + traversal, per regime.
        if V == 1:
            self._grants_single(tick, observed, wt, enabled, arrive_nxt,
                                credit_nxt, sink_nxt, srccr_nxt)
        else:
            self._grants_vc(tick, observed, wt, enabled, arrive_nxt,
                            arrvc_nxt, credit_nxt, sink_nxt, sinkvc_nxt,
                            srccr_nxt)

        # 4. Arrivals into the per-VC FIFOs (credit scheme guarantees
        # space; violations raise in the dispatch router's scan order).
        amask = arrive_cur >= 0
        if amask.any():
            rr, pp = np.nonzero(amask)
            vv = arrvc_cur[rr, pp]
            full = self._fifo_len[rr, pp, vv] >= self._fifo_depth[rr, pp]
            if full.any():
                j = int(np.nonzero(full)[0][0])
                router = self.net.routers[int(rr[j])]
                where = router.port_name(int(pp[j]))
                if V > 1:
                    where += f" vc{int(vv[j])}"
                raise RoutingError(f"{router.name}: FIFO overflow on "
                                   f"{where} (credit violation)")
            fids = arrive_cur[rr, pp]
            slot = (self._fifo_start[rr, pp, vv]
                    + self._fifo_len[rr, pp, vv]) % C
            self._fifo_buf[rr, pp, vv, slot] = fids
            was_empty = self._fifo_len[rr, pp, vv] == 0
            self._fifo_len[rr, pp, vv] += 1
            enabled[rr] = True
            er, ep, ev = rr[was_empty], pp[was_empty], vv[was_empty]
            ef = fids[was_empty]
            head_fid[er, ep, ev] = ef
            self._head_is_head[er, ep, ev] = store.is_head[ef]
            if V == 1:
                self._head_out[er, ep] = self._route_tab[er, store.dest[ef]]
            else:
                self._va_dirty[er] = True
            self._fresh_heads = bool(er.size)

        # 5. Sources: collect credits, unpack at most one packet per
        # edge, inject at most one flit per edge under credits (on the
        # policy's injection VC — 0 on single-VC fabrics).
        np.add(self._src_credits, srccr_cur, out=self._src_credits)
        if self._has_pkts.any():
            for n in np.nonzero((self._src_next >= self._src_end)
                                & self._has_pkts)[0]:
                n = int(n)
                src = self.net.sources[n]
                packet = src.packets.popleft()
                if not src.packets:
                    self._has_pkts[n] = False
                packet.inject_tick = tick
                start = len(store.objs)
                for flit in packet.to_flits():
                    store.intern(flit)
                self._src_next[n] = start
                self._src_end[n] = len(store.objs)
        send = (self._src_next < self._src_end) & (self._src_credits > 0)
        sn = np.nonzero(send)[0]
        if sn.size:
            arrive_nxt[sn, LOCAL] = self._src_next[sn]
            arrvc_nxt[sn, LOCAL] = self._inj_vc[sn]
            if wt:
                for n in sn:
                    n = int(n)
                    self.net.sources[n].link.send_flit(
                        store.objs[int(self._src_next[n])],
                        int(self._inj_vc[n]), tick)
            self._src_next[sn] += 1
            self._src_credits[sn] -= 1

        # 6. Sinks: drain, reassemble, deliver; credit the arriving VC.
        for n in np.nonzero(sink_cur >= 0)[0]:
            n = int(n)
            flit = store.objs[int(sink_cur[n])]
            sink = self.net.sinks[n]
            sink.flits_received += 1
            if observed:
                self._sink_events.append(("flit", flit))
            buffer = sink._assembly.setdefault(flit.packet_id, [])
            buffer.append(flit)
            if flit.is_tail:
                del sink._assembly[flit.packet_id]
                packet = Packet.from_flits(buffer)
                packet.eject_tick = tick
                sink.on_packet(packet, tick)
                if observed:
                    self._sink_events.append(("packet", packet))
            credit_nxt[n, LOCAL, int(sinkvc_cur[n])] += 1

        if observed:
            self._replay_events()
        np.add(self._edges_enabled, enabled, out=self._edges_enabled)

        # Recycle the consumed buffers as the next production targets.
        arrive_cur.fill(-1)
        arrvc_cur.fill(0)
        credit_cur.fill(0)
        sink_cur.fill(-1)
        sinkvc_cur.fill(0)
        srccr_cur.fill(0)
        self._flip = 1 - k

    def _is_quiet(self) -> bool:
        # With every link buffer empty, no source backlog, and no head
        # still owed its first arbitration pass (_fresh_heads), the next
        # edge is a fixed point: grants need credits or heads that only
        # in-flight traffic can change. (Buffered-but-blocked flits are
        # exactly the dispatch routers' sleep-with-buffered-flits case.)
        k = self._flip
        return not (self._fresh_heads
                    or (self._arrive[k] >= 0).any()
                    or self._credit_in[k].any()
                    or (self._sink_in[k] >= 0).any()
                    or self._src_credit_in[k].any()
                    or (self._src_next < self._src_end).any()
                    or self._has_pkts.any())

    def sync_back(self) -> None:
        """Write the array state back into the (unscheduled) routers and
        endpoints so post-run inspection sees dispatch-identical state.
        Each state array is read one router row at a time (``tolist``),
        and only occupied FIFOs are materialised."""
        objs, C, V = self._store.objs, self._C, self._V
        per_router = self._edges_per_router()
        for r, router in enumerate(self.net.routers):
            lens = self._fifo_len[r].tolist()
            starts = self._fifo_start[r].tolist()
            credits = self._credits[r].tolist()
            starved = self._starved[r].tolist()
            for p in range(self._P):
                for vc in range(V):
                    fifo = router.fifos[p] if V == 1 else router.fifos[p][vc]
                    fifo.clear()
                    n = lens[p][vc]
                    if n:
                        ring = self._fifo_buf[r, p, vc].tolist()
                        first = starts[p][vc]
                        fifo.extend(objs[ring[(first + i) % C]]
                                    for i in range(n))
            if V == 1:
                router.credits[:] = [c for c, in credits]
                router._starved[:] = [s for s, in starved]
                router.locks[:] = [None if lock < 0 else lock
                                   for lock in self._locks[r].tolist()]
            else:
                for p, (owner_in, owner_vc, alloc_out, alloc_vc) in \
                        enumerate(zip(self._owner_in[r].tolist(),
                                      self._owner_vc[r].tolist(),
                                      self._alloc_out[r].tolist(),
                                      self._alloc_vc[r].tolist())):
                    router.credits[p][:] = credits[p]
                    router._starved[p][:] = starved[p]
                    router.vc_owner[p][:] = [
                        None if i < 0 else (i, v)
                        for i, v in zip(owner_in, owner_vc)]
                    router.allocation[p][:] = [
                        None if o < 0 else (o, v)
                        for o, v in zip(alloc_out, alloc_vc)]
                rows = zip(self._va_last[r].tolist(),
                           self._va_grants[r].tolist(),
                           self._va_grant_counts[r].tolist())
                for a, (last, grants, counts) in enumerate(rows):
                    va = router.va_arbiters[divmod(a, V)]
                    va._last, va.grants, va.grant_counts = \
                        last, grants, counts
                router.vcs_allocated = int(self._vcs_allocated[r])
            rows = zip(router.sa_arbiters, self._sa_last[r].tolist(),
                       self._sa_grants[r].tolist(),
                       self._sa_grant_counts[r].tolist())
            for sa, last, grants, counts in rows:
                sa._last, sa.grants, sa.grant_counts = last, grants, counts
            router.flits_forwarded = int(self._flits_fwd[r])
            router._gating.edges_total = per_router
            router._gating.edges_enabled = int(self._edges_enabled[r])
        self._sync_back_sources()
