"""Vectorized array execution backend for the credit fabrics.

``backend="array"`` lowers a :class:`~repro.fabric.network
.CreditFabricNetwork`'s structure and config — ``topology.links()``, the
local ports, the link capacity and buffer depth, the VC policy's
injection VC, the node and port names — into struct-of-arrays numpy
state: per-(router, port, vc) FIFO occupancy rings of interned flit ids,
head caches, credit counters, wormhole locks / VC allocations,
round-robin pointers, the sources' packet backlog and the sinks'
per-packet counts. It executes the whole fabric's commit + arbitrate +
credit-return inner loop as whole-network array operations, one step
per clock edge, and delivers through the network. One engine component
replaces every router and endpoint, which are never built for it: the
network's datapath (``routers``, ``links``, ``sources``, ``sinks``) is a
view, built unregistered on first read and filled by :meth:`sync_back`
then and at every later ``drain()``.

**Packets, not flits.** Each packet is interned as one contiguous
flit-id range, its hot per-flit fields in numpy columns. A
:class:`~repro.noc.flit.Flit` exists only once something reads it (an
event, a probed wire, an error message, the datapath view), which builds
its packet's flits once, so a flit keeps one identity. The sinks are
array operations: a flit whose sequence number is not its packet's count
of flits received raises :class:`~repro.errors.ProtocolError` naming
it, as reassembly does on dispatch, and a tail delivers ``Packet(src,
dest, payload or [0], packet_id)``, what ``Packet.from_flits`` builds.

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
pairs from the policy's masks: one round-robin round per output VC, in
the dispatch walk order. Switch allocation gathers **one candidate list
per edge** (occupied input VCs that hold an allocation) and checks
credits once for all of them: ``credits[r, o, ov]`` changes only in
output ``o``'s round, and the tail release and head refresh touch only
popped inputs. Its rounds are the output ports, ascending. Both phases
solve every router's rounds at once, as one fixed point
(:func:`_sequential_rounds`). Each pass picks every ``(router, round)``
winner — the live requester nearest after the arbiter pointer — in one
``np.minimum.reduceat``; an *owner* (a pending head; an input port,
which crosses once per edge) that won an earlier round is dead in the
later ones, and passes repeat until the live set stops changing. After
pass k the first k rounds of every router are the sequential ones, and
the sequential recurrence has one solution, so the result is exact. One
batched pass applies every grant; a router can win several outputs (and
output VCs) per edge, so its counters add with ``bincount``. Events and
write-through follow per router in ascending output order:
``credit_exhausted`` for a creditless candidate whose input port was
still free at that output's round (``taken``, the port's earliest
winning output, is not below it), then ``arbitration_grant`` and
``lock_release``.

**Equivalence is the contract.** Every observable the dispatch backend
produces is reproduced exactly:

* delivered packets, delivery order, latencies, hop counts, and
  per-router statistics (``flits_forwarded``, allocator arbiter grant
  counts, FIFO/credit/lock state — in the datapath view, as of its
  first read or the last ``drain()``);
* ``kernel.tick`` — the engine is an ordinary registered component, so
  runs advance the clock identically and drains stop on the same tick;
* gating statistics — ``enabled`` edges are accumulated per router with
  the same definition (grant | arrival | VC allocation), totals use the
  same closed-form idle backfill as
  :class:`~repro.sim.component.GatedComponentMixin`;
* kernel events — ``arbitration_grant``, ``credit_exhausted``,
  ``vc_allocated``, ``lock_acquire``, ``lock_release``, ``flit`` and
  ``packet``, each built only while it has a subscriber, fire
  edge-triggered in the dispatch backend's exact global order (routers
  node-ascending, then sinks node-ascending, each in its internal phase
  order), carrying the same always-suffixed ``vc``/``input_vc`` fields
  (0 on single-VC fabrics);
* signal probes — when any flit wire carries a probe, the engine enters
  *write-through* mode and drives the real link wires alongside its
  arrays, so :mod:`repro.telemetry` sees identical commits (probing
  reads ``flit_wires()``, which builds the datapath; an unbuilt one has
  no wire to probe). Probed
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

from collections import deque
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError, ProtocolError, RoutingError
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


_NEVER = np.iinfo(np.int64).max


def _sequential_rounds(group: np.ndarray, stage: np.ndarray,
                       owner: np.ndarray, key: np.ndarray, n_owners: int,
                       none: int) -> tuple[np.ndarray, np.ndarray]:
    """Every router's round-robin rounds, in sequence, solved at once.

    Per request: its ``group`` (its ``(router, round)``, numbered
    router-major, rounds in order), its round's ``stage``, the ``owner``
    it arbitrates for (one router's) and its arbiter ``key`` (distance
    after the pointer, distinct within a group). A round's winner is its
    live request of least key; an owner dies in the rounds after its
    first win. Passes repeat until the live set stops changing (exact:
    see the module docstring). Returns the winning requests, in group
    order, and each owner's earliest winning stage (``none``: no win)."""
    # Requests arrive router-sorted, so timsort only merges runs; the
    # default quicksort's SIMD kernel also costs ~0.2 MiB of peak RSS.
    order, n = np.argsort(group, kind="stable"), key.size
    group, stage, owner = group[order], stage[order], owner[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(group[1:], group[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    least = key[order] * n + np.arange(n)   # names its request
    live = None
    while True:
        best = np.minimum.reduceat(
            least if live is None else np.where(live, least, _NEVER), starts)
        win = best[best != _NEVER] % n
        won = np.full(n_owners, none, dtype=np.int64)
        np.minimum.at(won, owner[win], stage[win])
        if live is None and (won[owner[win]] == stage[win]).all():
            return order[win], won      # no owner won twice: none drops
        again = stage <= won[owner]
        if live is not None and (again == live).all():
            return order[win], won
        live = again


class _FlitStore:
    """Interned flits: each packet is one contiguous range of flit ids.

    Per flit id the hot fields (``src``, ``dest``, head/tail, owning
    packet ``pkt``) are numpy columns; per packet its ``first`` id, flit
    ``count`` and flits ``received`` so far. A :class:`Flit` object is
    built only when something reads one (:meth:`flit`)."""

    FLIT_COLUMNS = {"src": np.int64, "dest": np.int64, "is_head": bool,
                    "is_tail": bool, "pkt": np.int64}
    PACKET_COLUMNS = {"first": np.int64, "count": np.int64,
                      "received": np.int64}

    def __init__(self) -> None:
        for name, dtype in {**self.FLIT_COLUMNS,
                            **self.PACKET_COLUMNS}.items():
            setattr(self, name, np.zeros(1024, dtype=dtype))
        self.packets: list[Packet] = []
        self.n_flits = 0
        # Packet index -> its flits, built on first read and dropped at
        # delivery, so a flit keeps one identity while it is in flight.
        self._built: dict[int, list[Flit]] = {}

    def _grow(self, columns: dict, size: int) -> None:
        for name in columns:
            column = getattr(self, name)
            if size > column.size:
                grown = np.zeros(2 ** size.bit_length(), dtype=column.dtype)
                grown[:column.size] = column
                setattr(self, name, grown)

    def add(self, packets: list[Packet]) -> tuple[np.ndarray, np.ndarray]:
        """Intern ``packets``; returns each one's first and end flit id."""
        base, lo = self.n_flits, len(self.packets)
        counts = np.array([len(p.payload) or 1 for p in packets])
        ends = base + np.cumsum(counts)
        firsts = ends - counts
        top, hi = int(ends[-1]), lo + len(packets)
        self._grow(self.FLIT_COLUMNS, top)
        self._grow(self.PACKET_COLUMNS, hi)
        self.src[base:top] = np.repeat([p.src for p in packets], counts)
        self.dest[base:top] = np.repeat([p.dest for p in packets], counts)
        self.pkt[base:top] = np.repeat(np.arange(lo, hi), counts)
        self.is_head[firsts] = True
        self.is_tail[ends - 1] = True
        self.first[lo:hi] = firsts
        self.count[lo:hi] = counts
        self.packets.extend(packets)
        self.n_flits = top
        return firsts, ends

    def flit(self, fid: int) -> Flit:
        """Flit ``fid``; its packet's flits are built on first use."""
        pkt = int(self.pkt[fid])
        flits = self._built.get(pkt)
        if flits is None:
            flits = self._built[pkt] = self.packets[pkt].to_flits()
        return flits[int(fid) - int(self.first[pkt])]

    def deliver(self, pkt: int, tick: int) -> Packet:
        """Packet ``pkt`` reassembled, as ``Packet.from_flits`` does."""
        self._built.pop(pkt, None)
        orig = self.packets[pkt]
        packet = Packet(orig.src, orig.dest, list(orig.payload) or [0],
                        orig.packet_id)
        packet.eject_tick = tick
        return packet


class ArrayEngine(BatchComponent):
    """Whole-fabric vectorized execution of the unified credit routers.

    Credit/arrival handling, sources, and sinks are fully array-level in
    both regimes. ``n_vcs=1`` runs the wormhole grant phase (routing
    table, bubble rule, per-output locks); ``n_vcs >= 2`` runs two-stage
    allocation over sparse request lists — VC allocation over the
    policy's candidate masks, one round per output VC in
    :meth:`FabricRouter._allocate_vcs`'s port-ascending, VC-descending
    walk order, then switch allocation, one round per output port over
    the edge's one candidate list. Each stage solves its sequential
    rounds in every router at once, as one fixed point
    (:func:`_sequential_rounds`)."""

    def __init__(self, net: "CreditFabricNetwork") -> None:
        super().__init__(f"{net.topology.prefix}.engine", parity=0)
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
        self._names = [f"{topo.prefix}{node}" for node in range(R)]

        # Connectivity, lowered from the structure as _build wires it:
        # every (router, out port) feeds the consuming (router, in port),
        # flat as router * P + port, and the upstream map inverts it for
        # credit returns. LOCAL ports are wired at every node: the
        # source feeds LOCAL in, LOCAL out feeds the sink.
        ends = np.asarray(list(topo.links()), dtype=np.int64).reshape(-1, 4)
        a = ends[:, 0] * P + ends[:, 1]
        b = ends[:, 2] * P + ends[:, 3]
        producer = np.concatenate([a, b])
        consumer = np.concatenate([b, a])
        self._conn_out = np.zeros((R, P), dtype=bool)
        self._dst = np.zeros((R, P), dtype=np.int64)
        self._up = np.zeros((R, P), dtype=np.int64)
        self._conn_out.reshape(-1)[producer] = True
        self._dst.reshape(-1)[producer] = consumer
        self._up.reshape(-1)[consumer] = producer
        self._conn_out[:, LOCAL] = True

        # One FIFO depth everywhere (VCs of a port share it): segmented
        # links are not lowerable, so every link is one segment and
        # _link_capacity(1) sizes it (None: buffer_depth).
        depth = net._link_capacity(1) or net.config.buffer_depth
        self._fifo_depth = depth
        self._C = C = max(2, depth)

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
        # Every wired output starts with the consumer FIFO's depth.
        self._credits[self._conn_out] = depth

        self._inj_vc = np.zeros(R, dtype=np.int64)
        if net.vc_enabled:
            self._inj_vc[:] = [net.vc_policy.injection_vc(node)
                               for node in range(R)]

        # Source state: the host-submitted packet backlog, the contiguous
        # interned-id window of the unpacked packet, the credit counter,
        # and a backlog flag.
        self._backlog = [deque() for _ in range(R)]
        self._src_next = np.zeros(R, dtype=np.int64)
        self._src_end = np.zeros(R, dtype=np.int64)
        self._src_credits = np.full(R, depth, dtype=np.int64)
        self._has_pkts = np.zeros(R, dtype=bool)
        # Per-sink flits received (the store counts each packet's).
        self._flits_received = np.zeros(R, dtype=np.int64)

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

    def submit(self, packet: Packet) -> None:
        """Queue a host-submitted packet at its source node."""
        self._backlog[packet.src].append(packet)
        self._has_pkts[packet.src] = True
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
        # An unbuilt datapath has no wire to carry a probe.
        for link in self.net._links:
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

    def _sync_back_endpoints(self) -> None:
        store = self._store
        for n, (src, sink) in enumerate(zip(self.net._sources,
                                            self.net._sinks)):
            src.credits = int(self._src_credits[n])
            src.flits.clear()
            src.flits.extend(map(store.flit, range(self._src_next[n],
                                                   self._src_end[n])))
            src.packets.clear()
            src.packets.extend(self._backlog[n])
            sink.flits_received = int(self._flits_received[n])
            sink._assembly.clear()
        # A packet is in reassembly once some but not all of its flits
        # have arrived (listed in packet order, not first-arrival order).
        received = store.received[:len(store.packets)]
        for pkt in np.flatnonzero((received > 0) & (
                received < store.count[:received.size])).tolist():
            first = int(store.first[pkt])
            packet = store.packets[pkt]
            self.net._sinks[packet.dest]._assembly[packet.packet_id] = [
                store.flit(f) for f in range(first, first + received[pkt])]

    def _replay_events(self) -> None:
        emit = self.kernel.emit
        for r in sorted(self._events):
            for name, payload in self._events[r]:
                emit(name, payload)
        self._events.clear()
        for name, payload in self._sink_events:
            emit(name, payload)
        self._sink_events.clear()

    def _event(self, r: int, name: str, output: int, vc: int, in_p: int,
               in_vc: int, **extra: Any) -> None:
        """Buffer router ``r``'s event ``name`` on the (output, input)
        VC pair it names; ``extra`` carries its flit or packet id."""
        self._events.setdefault(r, []).append((name, {
            "router": self._names[r], "output": output, "vc": vc,
            "input": in_p, "input_vc": in_vc, **extra}))

    # -- VC allocation (VC regime only) ----------------------------------

    def _allocate_vcs(self, rs: np.ndarray, ps: np.ndarray, vs: np.ndarray,
                      observed: dict, enabled: np.ndarray) -> None:
        """Stage one for the pending heads ``(rs, ps, vs)`` (row-major, so
        sorted by router): the array form of
        :meth:`FabricRouter._allocate_vcs`. ``observed`` is the kernel's
        event-subscriber dict."""
        store = self._store
        V = self._V
        size = self._P * V
        fids = self._head_fid[rs, ps, vs]
        heads = store.is_head[fids]
        if not heads.all():
            j = int(np.nonzero(~heads)[0][0])
            raise RoutingError(
                f"{self._names[int(rs[j])]}: body flit "
                f"{store.flit(fids[j])} without an allocation on "
                f"{self.net.port_labels[int(ps[j])]} vc{int(vs[j])}"
            )
        preferred, fallback = self.net.vc_policy.candidate_masks(
            rs, ps, vs, store.dest[fids], store.src[fids])
        # Preferred pairs while any is free (and wired), else fallback.
        free = (self._owner_in[rs] < 0) & self._conn_out[rs][:, :, None]
        requested = preferred & free
        requested |= (fallback & free
                      & ~requested.any(axis=(1, 2), keepdims=True))
        # (pending head, output VC) request pairs: per router, one round
        # per output VC in the walk order; a head allocated in an earlier
        # round drops out of the later ones.
        head, arb = np.nonzero(requested.reshape(rs.size, size))
        if head.size == 0:
            return
        rank = self._va_rank[arb]
        rows, in_flat = rs[head], (ps * V + vs)[head]
        wins, _ = _sequential_rounds(
            rows * size + rank, rank, head,
            (in_flat - self._va_last[rows, arb] - 1) % size, rs.size, size)
        # One batched pass applies them, per router in walk order.
        rows, win, arbs = rows[wins], in_flat[wins], arb[wins]
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
        on_alloc = "vc_allocated" in observed
        on_acquire = "lock_acquire" in observed
        if on_alloc or on_acquire:
            grants = zip(rows.tolist(), out_p.tolist(), out_vc.tolist(),
                         in_p.tolist(), in_vc.tolist())
            for r, o_p, o_vc, i_p, i_vc in grants:
                flit = store.flit(self._head_fid[r, i_p, i_vc])
                if on_alloc:
                    self._event(r, "vc_allocated", o_p, o_vc, i_p, i_vc,
                                flit=flit)
                if on_acquire and not flit.is_tail:
                    self._event(r, "lock_acquire", o_p, o_vc, i_p, i_vc,
                                packet_id=flit.packet_id)

    # -- the switch-allocation phase, single-VC (wormhole) regime --------

    def _grants_single(self, tick: int, observed: dict, wt: bool,
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
        on_stall = "credit_exhausted" in observed
        on_grant = "arbitration_grant" in observed
        on_release = "lock_release" in observed
        on_acquire = "lock_acquire" in observed
        per_flit = wt or on_grant or on_release or on_acquire
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

            if on_stall:
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
                        self._event(int(r), "credit_exhausted", out_p, 0,
                                    int(np.argmax(s_req[r])), 0)

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
            if per_flit:
                for i, r in enumerate(rows.tolist()):
                    flit = store.flit(fid[i])
                    if wt:
                        self.net.routers[r].out_links[out_p].send_flit(
                            flit, 0, tick)
                    in_p = int(win[i])
                    if on_grant:
                        self._event(r, "arbitration_grant", out_p, 0, in_p,
                                    0, flit=flit)
                    if flit.is_tail:
                        if on_release and not flit.is_head:
                            self._event(r, "lock_release", out_p, 0, in_p,
                                        0, packet_id=flit.packet_id)
                    elif on_acquire and flit.is_head:
                        self._event(r, "lock_acquire", out_p, 0, in_p, 0,
                                    packet_id=flit.packet_id)

    # -- the switch-allocation phase, VC regime --------------------------

    def _grants_vc(self, tick: int, observed: dict, wt: bool,
                   enabled: np.ndarray, arrive_nxt: np.ndarray,
                   arrvc_nxt: np.ndarray, credit_nxt: np.ndarray,
                   sink_nxt: np.ndarray, sinkvc_nxt: np.ndarray,
                   srccr_nxt: np.ndarray) -> None:
        """One candidate list per edge (see the module docstring): the
        fixed point picks the winners, one batched pass moves them."""
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
        c_rout = c_r * P + c_out            # flat (router, out port)
        c_ovc = c_rout * V + alloc_vc[cand]     # flat output VC
        credits = self._credits.reshape(-1)
        ok = credits[c_ovc] > 0
        # One round per (router, output port), outputs ascending; an input
        # port that won a round has used its one crossbar pass and drops
        # out of the later ones. taken[router, in port]: the output its
        # pass went to, its earliest win (P: none).
        go = np.flatnonzero(ok)
        r_out = c_rout[go]
        wins, taken = _sequential_rounds(
            r_out, c_out[go], c_port[go],
            (c_in[go] - self._sa_last.reshape(-1)[r_out] - 1) % size,
            R * P, P)
        go, r_out = go[wins], r_out[wins]
        hv, outs = cand[go], c_out[go]      # hv: winning input VCs, flat
        rows, win = np.divmod(hv, size)
        in_port = hv // V                   # flat (router, in port)
        in_vc = hv % V
        out_vc = alloc_vc[hv]
        ovc = c_ovc[go]                     # flat output VC
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
        on_grant = "arbitration_grant" in observed
        on_release = "lock_release" in observed
        if not (wt or on_grant or on_release
                or "credit_exhausted" in observed):
            return
        # Events and wire writes, output by output: a creditless
        # candidate reports if its input port was still free at that
        # output's round, before the round's grant.
        blocked = []
        if "credit_exhausted" in observed:
            b = np.flatnonzero(~ok)
            b = b[taken[c_port[b]] >= c_out[b]]
            b = b[np.argsort(c_out[b], kind="stable")]
            blocked = list(zip(c_out[b].tolist(), c_r[b].tolist(),
                               (c_ovc[b] % V).tolist(),
                               (c_port[b] % P).tolist(),
                               (c_in[b] % V).tolist()))
        # The grants are router-major: walk them output-major.
        o = np.argsort(outs, kind="stable")
        j = 0
        for out_p, r, f, vc, i_p, i_vc in zip(
                outs[o].tolist(), rows[o].tolist(), fid[o].tolist(),
                out_vc[o].tolist(), (in_port[o] % P).tolist(),
                in_vc[o].tolist()):
            while j < len(blocked) and blocked[j][0] <= out_p:
                self._note_starvation(*blocked[j])
                j += 1
            flit = store.flit(f)
            if wt:
                self.net.routers[r].out_links[out_p].send_flit(flit, vc, tick)
            if on_grant:
                self._event(r, "arbitration_grant", out_p, vc, i_p, i_vc,
                            flit=flit)
            if on_release and flit.is_tail and not flit.is_head:
                self._event(r, "lock_release", out_p, vc, i_p, i_vc,
                            packet_id=flit.packet_id)
        for item in blocked[j:]:
            self._note_starvation(*item)

    def _note_starvation(self, out_p: int, r: int, vc: int, in_p: int,
                         in_vc: int) -> None:
        """``credit_exhausted`` on the edge output VC ``(out_p, vc)`` of
        router ``r`` starves its owner ``(in_p, in_vc)``."""
        if self._starved[r, out_p, vc]:
            return
        self._starved[r, out_p, vc] = True
        self._event(r, "credit_exhausted", out_p, vc, in_p, in_vc)

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
        # Event name -> listeners; truthy iff any event has one.
        observed = self.kernel._event_subs
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
            full = self._fifo_len[rr, pp, vv] >= self._fifo_depth
            if full.any():
                j = int(np.nonzero(full)[0][0])
                where = self.net.port_labels[int(pp[j])]
                if V > 1:
                    where += f" vc{int(vv[j])}"
                raise RoutingError(f"{self._names[int(rr[j])]}: FIFO "
                                   f"overflow on {where} (credit "
                                   f"violation)")
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

        # 5. Sources: collect credits, unpack at most one packet per edge
        # (one interning call for all), inject at most one flit per edge
        # under credits (on the policy's injection VC, 0 on one VC).
        np.add(self._src_credits, srccr_cur, out=self._src_credits)
        if self._has_pkts.any():
            ns = np.flatnonzero((self._src_next >= self._src_end)
                                & self._has_pkts)
            if ns.size:
                backlogs = [self._backlog[n] for n in ns.tolist()]
                packets = [backlog.popleft() for backlog in backlogs]
                self._has_pkts[ns] = [bool(backlog) for backlog in backlogs]
                for packet in packets:
                    packet.inject_tick = tick
                self._src_next[ns], self._src_end[ns] = store.add(packets)
        send = (self._src_next < self._src_end) & (self._src_credits > 0)
        sn = np.nonzero(send)[0]
        if sn.size:
            arrive_nxt[sn, LOCAL] = self._src_next[sn]
            arrvc_nxt[sn, LOCAL] = self._inj_vc[sn]
            if wt:
                for n in sn.tolist():
                    self.net.sources[n].link.send_flit(
                        store.flit(self._src_next[n]),
                        int(self._inj_vc[n]), tick)
            self._src_next[sn] += 1
            self._src_credits[sn] -= 1

        # 6. Sinks (see _drain_sinks); credit the arriving VC.
        sn = np.flatnonzero(sink_cur >= 0)
        if sn.size:
            self._drain_sinks(tick, sn, sink_cur[sn], observed)
            credit_nxt[sn, LOCAL, sinkvc_cur[sn]] += 1

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

    def _drain_sinks(self, tick: int, sn: np.ndarray, fids: np.ndarray,
                     observed: dict) -> None:
        """Sinks ``sn`` (ascending) take flits ``fids``: one each, and a
        packet's flits all reach one sink, so no packet repeats."""
        store = self._store
        pkts = store.pkt[fids]
        expected = store.received[pkts]
        bad = np.flatnonzero(fids - store.first[pkts] != expected)
        if bad.size:
            j = int(bad[0])
            flit = store.flit(fids[j])
            raise ProtocolError(
                f"{self._names[int(sn[j])]}.sink: flit {flit} out of "
                f"order: expected seq {int(expected[j])}, got {flit.seq}")
        store.received[pkts] = expected + 1
        self._flits_received[sn] += 1
        tails = store.is_tail[fids]
        on_flit, on_packet = "flit" in observed, "packet" in observed
        if on_flit or on_packet:
            # Per sink, node ascending, ``flit`` then ``packet``.
            arrivals = zip(fids.tolist(), pkts.tolist(), tails.tolist())
        else:   # unobserved: only the tails, which deliver
            arrivals = ((None, pkt, True) for pkt in pkts[tails].tolist())
        for fid, pkt, tail in arrivals:
            if on_flit:
                self._sink_events.append(("flit", store.flit(fid)))
            if tail:
                packet = store.deliver(pkt, tick)
                self.net._deliver(packet, tick)
                if on_packet:
                    self._sink_events.append(("packet", packet))

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
        """Write the array state into the built (unscheduled) datapath,
        so inspecting it shows dispatch-identical state. Each state
        array is read one router row at a time (``tolist``), and only
        occupied FIFOs are materialised."""
        flit, C, V = self._store.flit, self._C, self._V
        per_router = self._edges_per_router()
        for r, router in enumerate(self.net._routers):
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
                        fifo.extend(flit(ring[(first + i) % C])
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
        self._sync_back_endpoints()
