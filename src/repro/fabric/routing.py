"""Pluggable routing strategies for the fabric layer.

A routing strategy turns a topology's structure into per-node routing
functions: :meth:`RoutingStrategy.for_node` returns the ``flit -> output
port`` callable a router evaluates at its edge. The strategies here are
deliberately small — the whole point of the shared fabric layer is that a
new topology is a ~30-line routing function plus a structure description,
not a second router implementation:

* :class:`XYRouting` — dimension-order routing on a 2-D mesh (X fully
  resolved, then Y); acyclic channel dependencies, deadlock-free.
* :class:`TorusXYRouting` — dimension-order with shortest-direction
  wraparound. Wrap links close rings, so the strategy flags itself as
  needing the router's bubble rule (see below).
* :class:`RingRouting` — shortest direction around a bidirectional ring;
  also ring-closing, also bubble-ruled.
* :class:`TreeUpDownRouting` — the paper's deterministic up*/down* tree
  routing (descend through the child covering the destination leaf, else
  go to the parent), shared by the 3x3/5x5 tree routers and the
  concentrated tree's leaf-sharing variant.

**Bubble rule.** Wormhole routing around a closed ring has a cyclic
channel-dependency graph, so a ring can deadlock when every FIFO on the
cycle fills. Strategies with ``needs_bubble`` make the
:class:`~repro.fabric.router.FabricRouter` apply localised bubble flow
control: a *head* flit may only enter a ring (from the local port or by
turning out of another dimension) while the target FIFO keeps at least
one slot free afterwards (``credits >= 2``); flits already travelling
within the same ring — identified by :meth:`RoutingStrategy.ring_transit`
— are exempt and keep the ring draining. This guarantees every ring
always retains a free slot, so some flit can always advance:
deadlock-free for packets short enough to sit in one FIFO
(``flits <= buffer_depth - 1``), the virtual cut-through condition bubble
flow control assumes.

Directions are monotone along a path (the shortest wrap direction cannot
flip mid-route, ties break toward the positive direction), so no strategy
ever produces a U-turn.

**VC-assignment policies.** Fabrics built with ``flow_control="vc"``
replace the bubble rule with virtual channels (the ``n_vcs >= 2``
shape of :class:`~repro.fabric.router.FabricRouter`). Which output VC a head flit may be allocated is
a pluggable policy, mirroring the routing strategies:

* :class:`DatelineVc` (torus, ring) — dateline deadlock avoidance: every
  ring's channels are split into class-0 and class-1 VCs, and a packet
  switches to class 1 after crossing the ring's dateline (the wrap
  link). The class is a purely local function of the current and
  destination coordinates (see :func:`dateline_class`), each class's
  channel-dependency subgraph is acyclic, so wormhole switching is
  deadlock-free with **no packet-length bound** — the limitation bubble
  flow control carries.
* :class:`EscapeVcAdaptive` (mesh, torus) — Duato-style minimal-adaptive
  routing: head flits may be allocated any *adaptive* VC on any
  productive (distance-reducing) output, and fall back to a
  deterministic-XY *escape* VC when every adaptive candidate is busy.
  The escape subnetwork is deadlock-free on its own (XY on the mesh;
  XY over a dateline VC pair on the torus), and once a packet enters it,
  it stays there until delivery — the classic escape-channel guarantee.

**Array forms.** Strategies and policies also answer for whole index
arrays at once (:meth:`RoutingStrategy.route_array`,
:meth:`VcPolicy.candidate_masks`) — what ``backend="array"`` evaluates.
The base classes map the scalar functions, so defining ``for_node`` is
enough; the stock classes override with numpy arithmetic, checked
against that mapped default in ``tests/fabric/test_routing.py``. Only
the array forms use numpy, and each imports it itself, so routing a
dispatch-backend run never loads it.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError, RoutingError
from repro.noc.flit import Flit, FlitKind
from repro.noc.topology import TreeTopology, PARENT_PORT

if TYPE_CHECKING:
    import numpy as np

#: Canonical port indices of the 5-port grid fabrics (mesh, torus).
LOCAL, NORTH, EAST, SOUTH, WEST = range(5)
PORT_NAMES = ("local", "north", "east", "south", "west")

#: Port indices of the 3-port ring fabric.
RING_CW, RING_CCW = 1, 2
RING_PORT_NAMES = ("local", "cw", "ccw")

#: Signature of a per-node routing function.
RouteFn = Callable[[Flit], int]


def _head_flit(src: int, dest: int) -> Flit:
    """The head flit the mapped array-form defaults hand to the scalar
    route / candidate functions (which read only ``src`` and ``dest``)."""
    return Flit(FlitKind.HEAD, src, dest, packet_id=0, seq=0)


class RouteMemo(dict):
    """One router's route function, memoised per destination.

    A route function reads only the flit's destination (the contract
    :meth:`RoutingStrategy.route_array` already maps), so ``memo[dest]``
    (or ``memo(flit)``) answers from the dict after the first flit to
    ``dest``. A miss asks ``route`` with the head flit the array-form
    default builds; a destination it rejects
    (:class:`~repro.errors.RoutingError`) is never stored and raises on
    every lookup. The memo holds no flit or FIFO state, so nothing
    written into a router from outside can make it stale.
    """

    __slots__ = ("route",)

    def __init__(self, route: RouteFn):
        super().__init__()
        self.route = route

    def __missing__(self, dest: int) -> int:
        port = self[dest] = self.route(_head_flit(0, dest))
        return port

    def __call__(self, flit: Flit) -> int:
        """The memoised route function: ``flit``'s output port."""
        return self[flit.dest]


class VcCandidateMemo(dict):
    """One VC router's candidate function, memoised per head.

    A candidate function reads the input port and VC and the head's
    ``dest`` and ``src`` — exactly the arguments
    :meth:`VcPolicy.candidate_masks` maps, priority flows included — so
    ``memo[in_port, in_vc, dest, src]`` answers from the dict after the
    first head with that key, as :class:`RouteMemo` does for routes. A
    miss asks ``candidates`` with the head flit the array-form default
    builds; a call that raises is never stored. Answers are stored as
    ``(preferred, fallback)`` tuples, one copy per distinct answer, so a
    flow costs the memo a key and a dict slot.
    """

    __slots__ = ("candidates", "_answers")

    def __init__(self, candidates: VcCandidateFn):
        super().__init__()
        self.candidates = candidates
        self._answers: dict = {}

    def __missing__(self, key: tuple[int, int, int, int]):
        in_port, in_vc, dest, src = key
        preferred, fallback = self.candidates(in_port, in_vc,
                                              _head_flit(src, dest))
        pairs = (tuple(preferred), tuple(fallback))
        pairs = self[key] = self._answers.setdefault(pairs, pairs)
        return pairs


class RoutingStrategy:
    """Base class: structure-aware routing, one route function per node.

    Every strategy has a scalar form (:meth:`for_node`, what a dispatch
    router evaluates per flit) and an array form (:meth:`route_array`,
    what the array backend evaluates per fabric). A strategy only has to
    supply the scalar form; overriding the array form with numpy
    arithmetic is a speed-up that must agree with the mapped default.
    """

    #: Whether routers must apply the bubble rule on ring entry.
    needs_bubble = False

    def for_node(self, node: int) -> RouteFn:
        raise NotImplementedError

    def route_array(self, nodes: np.ndarray,
                    dests: np.ndarray) -> np.ndarray:
        """Output ports for broadcastable ``nodes`` / ``dests`` arrays.

        The default maps the scalar route functions, so it is correct
        for any strategy and is the oracle the overrides are tested
        against.
        """
        import numpy as np
        nodes, dests = np.broadcast_arrays(nodes, dests)
        routes = {node: self.for_node(node)
                  for node in np.unique(nodes).tolist()}
        ports = [routes[node](_head_flit(0, dest))
                 for node, dest in zip(nodes.ravel().tolist(),
                                       dests.ravel().tolist())]
        return np.array(ports, dtype=np.int64).reshape(nodes.shape)

    def ring_transit(self, in_port: int, out_port: int) -> bool:
        """Is ``in_port -> out_port`` a same-ring pass-through (exempt
        from the bubble rule)? Only consulted when ``needs_bubble``."""
        return False


class XYRouting(RoutingStrategy):
    """Dimension-order routing on a ``cols x rows`` mesh."""

    def __init__(self, cols: int, rows: int):
        self.cols = cols
        self.rows = rows

    def for_node(self, node: int) -> RouteFn:
        cols = self.cols
        x, y = node % cols, node // cols

        def route(flit: Flit) -> int:
            dx = flit.dest % cols
            dy = flit.dest // cols
            if dx > x:
                return EAST
            if dx < x:
                return WEST
            if dy > y:
                return SOUTH
            if dy < y:
                return NORTH
            return LOCAL

        return route

    def route_array(self, nodes: np.ndarray,
                    dests: np.ndarray) -> np.ndarray:
        import numpy as np
        cols = self.cols
        x, y = nodes % cols, nodes // cols
        dx, dy = dests % cols, dests // cols
        return np.where(dx > x, EAST, np.where(dx < x, WEST, np.where(
            dy > y, SOUTH, np.where(dy < y, NORTH, LOCAL))))


#: Same-ring pass-throughs of the 5-port grid fabrics: a flit keeps its
#: direction when it leaves through the port opposite its arrival.
_GRID_TRANSIT = frozenset({
    (WEST, EAST), (EAST, WEST), (NORTH, SOUTH), (SOUTH, NORTH),
})


class TorusXYRouting(RoutingStrategy):
    """Dimension-order routing with shortest-direction wraparound."""

    needs_bubble = True

    def __init__(self, cols: int, rows: int):
        self.cols = cols
        self.rows = rows

    def for_node(self, node: int) -> RouteFn:
        cols, rows = self.cols, self.rows
        x, y = node % cols, node // cols

        def route(flit: Flit) -> int:
            dx = (flit.dest % cols - x) % cols
            if dx:
                return EAST if dx <= cols // 2 else WEST
            dy = (flit.dest // cols - y) % rows
            if dy:
                return SOUTH if dy <= rows // 2 else NORTH
            return LOCAL

        return route

    def route_array(self, nodes: np.ndarray,
                    dests: np.ndarray) -> np.ndarray:
        import numpy as np
        cols, rows = self.cols, self.rows
        dx = (dests % cols - nodes % cols) % cols
        dy = (dests // cols - nodes // cols) % rows
        return np.where(dx > 0, np.where(dx <= cols // 2, EAST, WEST),
                        np.where(dy > 0,
                                 np.where(dy <= rows // 2, SOUTH, NORTH),
                                 LOCAL))

    def ring_transit(self, in_port: int, out_port: int) -> bool:
        return (in_port, out_port) in _GRID_TRANSIT


class RingRouting(RoutingStrategy):
    """Shortest direction around a bidirectional ring of ``nodes``."""

    needs_bubble = True

    def __init__(self, nodes: int):
        self.nodes = nodes

    def for_node(self, node: int) -> RouteFn:
        nodes = self.nodes

        def route(flit: Flit) -> int:
            d = (flit.dest - node) % nodes
            if d == 0:
                return LOCAL
            return RING_CW if d <= nodes // 2 else RING_CCW

        return route

    def route_array(self, nodes: np.ndarray,
                    dests: np.ndarray) -> np.ndarray:
        import numpy as np
        d = (dests - nodes) % self.nodes
        return np.where(d == 0, LOCAL,
                        np.where(d <= self.nodes // 2, RING_CW, RING_CCW))

    def ring_transit(self, in_port: int, out_port: int) -> bool:
        # Clockwise traffic arrives on the CCW port and leaves CW;
        # counter-clockwise the other way around.
        return ((in_port, out_port) in ((RING_CCW, RING_CW),
                                        (RING_CW, RING_CCW)))


class TreeUpDownRouting(RoutingStrategy):
    """The paper's deterministic up*/down* routing on a tree.

    At each router, descend through the child whose leaf range covers
    the destination's leaf (``dest // tree.concentration``: the
    destination itself on a plain tree), else exit through the parent
    port. Up*/down* routing in a tree has an acyclic channel-dependency
    graph, so wormhole switching needs no bubble rule.
    """

    def __init__(self, tree: TreeTopology):
        self.tree = tree

    def for_node(self, node: int) -> RouteFn:
        tree, concentration = self.tree, self.tree.concentration
        router = tree.router(node)

        def route(flit: Flit) -> int:
            port = tree.child_port_for_leaf(router, flit.dest // concentration)
            if port == PARENT_PORT and router.parent is None:
                raise RoutingError(
                    f"r{node}: destination {flit.dest} not under the root"
                )
            return port

        return route

    @cached_property
    def _leaf_ranges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per router: first leaf, end leaf, leaves per child port."""
        import numpy as np
        first, end = np.array([router.leaf_range
                               for router in self.tree.routers]).T
        return first, end, (end - first) // self.tree.arity

    def route_array(self, nodes: np.ndarray,
                    dests: np.ndarray) -> np.ndarray:
        import numpy as np
        first, end, span = self._leaf_ranges
        leaf = dests // self.tree.concentration
        lo = first[nodes]
        return np.where((lo <= leaf) & (leaf < end[nodes]),
                        1 + (leaf - lo) // span[nodes], PARENT_PORT)


# -- virtual-channel assignment policies ----------------------------------

#: One VC-allocation candidate: (output port, output VC).
VcCandidate = tuple[int, int]

#: Per-node candidate function: ``(in_port, in_vc, head_flit) ->
#: (preferred, fallback)``. The VC allocator requests the preferred pairs
#: while any of them is free, and falls back (escape channels) only when
#: every preferred output VC is held by another packet.
VcCandidateFn = Callable[[int, int, Flit], tuple[Sequence[VcCandidate],
                                                 Sequence[VcCandidate]]]


def dateline_class(position: int, dest: int, increasing: bool) -> int:
    """The dateline VC class of the *next* link along a ring.

    The dateline sits on the ring's wrap link (index ``N-1 -> 0`` for the
    increasing direction, ``0 -> N-1`` for the decreasing one). A packet
    that still has to cross the wrap travels on class 0 — the wrap link
    itself is its last class-0 hop — and switches to class 1 after
    crossing; "still has to cross" is a purely local comparison: moving
    in the increasing direction, the remaining path wraps iff
    ``position > dest``. Class-0 channels therefore exclude the first
    post-wrap link and class-1 channels exclude the wrap link itself,
    so both subgraphs are acyclic chains:
    deadlock-free wormhole routing with no packet-length bound, even when
    (minimal-adaptive) routing interleaves ring traversals.
    """
    if increasing:
        return 0 if position > dest else 1
    return 0 if position < dest else 1


def dateline_class_array(position: np.ndarray, dest: np.ndarray,
                         increasing: np.ndarray) -> np.ndarray:
    """Array form of :func:`dateline_class`, elementwise."""
    import numpy as np
    return np.where(increasing, position <= dest,
                    position >= dest).astype(np.int64)


class VcPolicy:
    """Base class: per-node VC-assignment candidate functions.

    ``min_vcs`` is the smallest VC count the policy is correct with;
    constructors validate ``n_vcs`` against it. ``injection_vc`` is the
    VC sources inject on (the local input port is not part of any ring,
    so class restrictions never apply there).

    Like the routing strategies, a policy has a scalar form
    (:meth:`for_node`) and an array form (:meth:`candidate_masks`) that
    defaults to mapping the scalar one. Both routers consume candidates
    as *sets* — the allocation walk order and the arbiter pointer pick
    the winner, never a pair's position in the list — so boolean masks
    lose nothing.
    """

    name = "?"
    min_vcs = 2
    #: Router port count the candidates index (the masks' port axis).
    n_ports = len(PORT_NAMES)

    def __init__(self, n_vcs: int):
        if n_vcs < self.min_vcs:
            raise ConfigurationError(
                f"{self.name} VC policy needs >= {self.min_vcs} virtual "
                f"channels, got {n_vcs}"
            )
        self.n_vcs = n_vcs

    def for_node(self, node: int) -> VcCandidateFn:
        raise NotImplementedError

    def injection_vc(self, node: int) -> int:
        return 0

    def candidate_masks(self, nodes: np.ndarray, in_ports: np.ndarray,
                        in_vcs: np.ndarray, dests: np.ndarray,
                        srcs: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Candidates of N head flits as ``(preferred, fallback)`` boolean
        masks of shape ``(N, n_ports, n_vcs)``; the arguments are equal-
        length index arrays, one entry per head.

        The default maps the scalar candidate functions, so it is correct
        for any policy and is the oracle the overrides are tested
        against.
        """
        import numpy as np
        shape = (len(nodes), self.n_ports, self.n_vcs)
        preferred = np.zeros(shape, dtype=bool)
        fallback = np.zeros(shape, dtype=bool)
        candidates = {node: self.for_node(node)
                      for node in np.unique(nodes).tolist()}
        heads = zip(nodes.tolist(), in_ports.tolist(), in_vcs.tolist(),
                    dests.tolist(), srcs.tolist())
        for i, (node, in_port, in_vc, dest, src) in enumerate(heads):
            pairs = candidates[node](in_port, in_vc, _head_flit(src, dest))
            for mask, wanted in zip((preferred, fallback), pairs):
                for port, vc in wanted:
                    mask[i, port, vc] = True
        return preferred, fallback

    @staticmethod
    def _ejection(n_vcs: int) -> tuple[list[VcCandidate], list[VcCandidate]]:
        """At the destination, any VC on the local port delivers."""
        return [(LOCAL, vc) for vc in range(n_vcs)], []


class DatelineVc(VcPolicy):
    """Dateline VC assignment over a deterministic ring-closing route.

    The route function (torus shortest-wrap XY, ring shortest-direction)
    stays deterministic; the policy only picks the VC class for each hop
    via :func:`dateline_class`. ``n_vcs`` must be even: the lower half of
    the VCs carries class 0, the upper half class 1 (with the default
    ``n_vcs=2``, one VC per class).
    """

    name = "dateline"

    def __init__(self, routing: RoutingStrategy, n_vcs: int):
        super().__init__(n_vcs)
        if n_vcs % 2:
            raise ConfigurationError(
                f"dateline VC classes need an even VC count, got {n_vcs}"
            )
        self.routing = routing
        self._half = n_vcs // 2

    def class_vcs(self, vc_class: int) -> list[int]:
        base = vc_class * self._half
        return list(range(base, base + self._half))

    def _link_class(self, node: int, out_port: int, flit: Flit) -> int:
        raise NotImplementedError

    def _link_class_array(self, nodes: np.ndarray, out_ports: np.ndarray,
                          dests: np.ndarray) -> np.ndarray:
        """Array form of :meth:`_link_class` (entries whose ``out_ports``
        is LOCAL are never read)."""
        raise NotImplementedError

    def for_node(self, node: int) -> VcCandidateFn:
        route = self.routing.for_node(node)

        def candidates(in_port: int, in_vc: int, flit: Flit):
            out_port = route(flit)
            if out_port == LOCAL:
                return self._ejection(self.n_vcs)
            vc_class = self._link_class(node, out_port, flit)
            return [(out_port, vc) for vc in self.class_vcs(vc_class)], []

        return candidates

    def candidate_masks(self, nodes, in_ports, in_vcs, dests, srcs):
        import numpy as np
        out_ports = self.routing.route_array(nodes, dests)
        vc_class = self._link_class_array(nodes, out_ports, dests)
        # Ejection takes any VC, a ring hop the VCs of its dateline class.
        vc_ok = ((np.arange(self.n_vcs) // self._half == vc_class[:, None])
                 | (out_ports == LOCAL)[:, None])
        on_port = out_ports[:, None] == np.arange(self.n_ports)
        preferred = on_port[:, :, None] & vc_ok[:, None, :]
        return preferred, np.zeros_like(preferred)


class TorusDatelineVc(DatelineVc):
    """Dateline classes for the torus: one dateline per row and column."""

    def __init__(self, cols: int, rows: int, n_vcs: int,
                 routing: RoutingStrategy | None = None):
        super().__init__(routing or TorusXYRouting(cols, rows), n_vcs)
        self.cols = cols
        self.rows = rows

    def _link_class(self, node: int, out_port: int, flit: Flit) -> int:
        x, y = node % self.cols, node // self.cols
        dx, dy = flit.dest % self.cols, flit.dest // self.cols
        if out_port == EAST:
            return dateline_class(x, dx, increasing=True)
        if out_port == WEST:
            return dateline_class(x, dx, increasing=False)
        if out_port == SOUTH:
            return dateline_class(y, dy, increasing=True)
        return dateline_class(y, dy, increasing=False)

    def _link_class_array(self, nodes, out_ports, dests):
        import numpy as np
        cols = self.cols
        along_x = (out_ports == EAST) | (out_ports == WEST)
        return dateline_class_array(
            np.where(along_x, nodes % cols, nodes // cols),
            np.where(along_x, dests % cols, dests // cols),
            (out_ports == EAST) | (out_ports == SOUTH))


class RingDatelineVc(DatelineVc):
    """Dateline classes for the bidirectional ring."""

    n_ports = len(RING_PORT_NAMES)

    def __init__(self, nodes: int, n_vcs: int):
        super().__init__(RingRouting(nodes), n_vcs)
        self.nodes = nodes

    def _link_class(self, node: int, out_port: int, flit: Flit) -> int:
        return dateline_class(node, flit.dest,
                              increasing=(out_port == RING_CW))

    def _link_class_array(self, nodes, out_ports, dests):
        return dateline_class_array(nodes, dests, out_ports == RING_CW)


class EscapeVcAdaptive(VcPolicy):
    """Minimal-adaptive routing over free VCs with a deterministic escape.

    Head flits may be allocated any *adaptive* VC on any productive
    output port (every port that reduces the remaining distance — the
    source of the adaptivity). When every adaptive candidate VC is held,
    the flit falls back to the *escape* VC on the deterministic XY
    output. The escape subnetwork is deadlock-free on its own:

    * mesh (``wrap=False``) — VC 0 under XY routing (acyclic turns);
    * torus (``wrap=True``) — VCs 0 and 1 under shortest-wrap XY with
      dateline classes (so ``n_vcs >= 3`` leaves at least one adaptive
      VC).

    By default a packet that enters the escape stays on it until
    delivery, so escape channels never depend on adaptive ones —
    Duato's (basic) condition for deadlock freedom of the adaptive
    whole. ``reentry=True`` relaxes this to Duato's *extended*
    condition: a packet on an escape VC may request adaptive VCs again
    at later hops, because legality only needs the escape subfunction
    to stay a connected, deadlock-free routing subfunction that every
    packet can fall back to at every hop — which it does regardless of
    how often packets leave and re-enter it. The knob rides on the
    allocator (:class:`~repro.fabric.allocator.EscapeReentryAllocator`
    sets ``wants_reentry``); the assembling network threads it here.

    ``priority_flows`` reserves the top VC as a priority lane for the
    named ``(src, dest)`` flows: their heads prefer the top VC along
    the deterministic XY output (falling back to escape like everyone
    else — including *re-entering* the lane from escape at later hops,
    legal by the same extended-Duato argument), and no other traffic
    ever requests that VC, so a
    :class:`~repro.fabric.allocator.WeightedAllocator` reservation on
    it meters exactly the priority flows' bandwidth. The lane itself is
    deadlock-free standalone (one VC class over acyclic XY turns),
    which is why it is mesh-only: on the wrapped torus a single VC
    along a ring is cyclic, so ``wrap=True`` with priority flows is a
    configuration error.
    """

    name = "escape"

    def __init__(self, cols: int, rows: int, n_vcs: int, wrap: bool,
                 reentry: bool = False,
                 priority_flows: Sequence[tuple[int, int]] = ()):
        self.wrap = wrap
        self.reentry = reentry
        self.priority_flows = frozenset(
            (int(src), int(dest)) for src, dest in priority_flows
        )
        if self.priority_flows and wrap:
            raise ConfigurationError(
                "priority flows need an acyclic priority lane: the "
                "escape policy only reserves one on the mesh (wrap-free "
                "XY); use the mesh topology or drop priority_flows"
            )
        # Escape class(es), at least one adaptive VC, plus the reserved
        # priority lane when flows are named.
        self.min_vcs = (3 if wrap else 2) + (1 if self.priority_flows else 0)
        super().__init__(n_vcs)
        self.cols = cols
        self.rows = rows
        self.escape_vcs = (0, 1) if wrap else (0,)
        self.priority_vc = n_vcs - 1 if self.priority_flows else None
        top = n_vcs - (1 if self.priority_flows else 0)
        self.adaptive_vcs = tuple(range(len(self.escape_vcs), top))
        self._xy = (TorusXYRouting(cols, rows) if wrap
                    else XYRouting(cols, rows))
        self._dateline = (TorusDatelineVc(cols, rows, 2) if wrap else None)

    @cached_property
    def _flows(self) -> np.ndarray:
        """The priority flows as an (F, 2) array, for the array form."""
        import numpy as np
        return np.array(sorted(self.priority_flows),
                        dtype=np.int64).reshape(-1, 2)

    def _productive_ports(self, node: int, dest: int) -> list[int]:
        """Output ports that reduce the remaining distance (minimal)."""
        cols, rows = self.cols, self.rows
        x, y = node % cols, node // cols
        dx, dy = dest % cols, dest // cols
        ports: list[int] = []
        if self.wrap:
            ex = (dx - x) % cols
            if ex:
                if ex <= cols - ex:
                    ports.append(EAST)
                if cols - ex <= ex:
                    ports.append(WEST)
            ey = (dy - y) % rows
            if ey:
                if ey <= rows - ey:
                    ports.append(SOUTH)
                if rows - ey <= ey:
                    ports.append(NORTH)
        else:
            if dx > x:
                ports.append(EAST)
            elif dx < x:
                ports.append(WEST)
            if dy > y:
                ports.append(SOUTH)
            elif dy < y:
                ports.append(NORTH)
        return ports

    def _escape_candidate(self, node: int, flit: Flit,
                          out_port: int) -> VcCandidate:
        if self._dateline is None:
            return (out_port, 0)
        return (out_port, self._dateline._link_class(node, out_port, flit))

    def for_node(self, node: int) -> VcCandidateFn:
        route = self._xy.for_node(node)

        def candidates(in_port: int, in_vc: int, flit: Flit):
            xy_port = route(flit)
            if xy_port == LOCAL:
                if self.priority_vc is None:
                    return self._ejection(self.n_vcs)
                # The lane stays exclusive end-to-end — ejection
                # included — so a weighted reservation on it meters
                # only the priority flows. Background ejects on the
                # other VCs; priority flows prefer the lane and fall
                # back to the shared VCs.
                shared = [(LOCAL, vc) for vc in range(self.priority_vc)]
                if (flit.src, flit.dest) in self.priority_flows:
                    return [(LOCAL, self.priority_vc)], shared
                return shared, []
            escape = [self._escape_candidate(node, flit, xy_port)]
            if (self.priority_vc is not None
                    and (flit.src, flit.dest) in self.priority_flows):
                # Priority flows prefer their reserved lane at every
                # hop — including hops reached on an escape VC (lane
                # re-entry is extended-Duato legal; see class docs).
                return [(xy_port, self.priority_vc)], escape
            if (in_port != LOCAL and in_vc in self.escape_vcs
                    and not self.reentry):
                # Committed to the escape subnetwork: deterministic XY
                # until delivery (what makes escape self-sufficient
                # under the basic Duato condition).
                return [], escape
            adaptive = [(port, vc)
                        for port in self._productive_ports(node, flit.dest)
                        for vc in self.adaptive_vcs]
            return adaptive, escape

        return candidates

    def _productive_mask(self, nodes: np.ndarray,
                         dests: np.ndarray) -> np.ndarray:
        """Array form of :meth:`_productive_ports`: ``(N, n_ports)``."""
        import numpy as np
        cols, rows = self.cols, self.rows
        x, y = nodes % cols, nodes // cols
        dx, dy = dests % cols, dests // cols
        mask = np.zeros((len(nodes), self.n_ports), dtype=bool)
        if self.wrap:
            ex, ey = (dx - x) % cols, (dy - y) % rows
            mask[:, EAST] = (ex > 0) & (ex <= cols - ex)
            mask[:, WEST] = (ex > 0) & (cols - ex <= ex)
            mask[:, SOUTH] = (ey > 0) & (ey <= rows - ey)
            mask[:, NORTH] = (ey > 0) & (rows - ey <= ey)
        else:
            mask[:, EAST] = dx > x
            mask[:, WEST] = dx < x
            mask[:, SOUTH] = dy > y
            mask[:, NORTH] = dy < y
        return mask

    def candidate_masks(self, nodes, in_ports, in_vcs, dests, srcs):
        import numpy as np
        vcs = np.arange(self.n_vcs)
        xy_port = self._xy.route_array(nodes, dests)
        eject = (xy_port == LOCAL)[:, None, None]
        # (N, ports, 1): the deterministic XY output (LOCAL at the
        # destination), which carries the escape and the priority lane.
        on_xy = (xy_port[:, None] == np.arange(self.n_ports))[:, :, None]
        escape_vc = (0 if self._dateline is None else
                     self._dateline._link_class_array(
                         nodes, xy_port, dests)[:, None, None])
        escape = on_xy & (vcs == escape_vc)
        adaptive = (self._productive_mask(nodes, dests)[:, :, None]
                    & np.isin(vcs, self.adaptive_vcs))
        if not self.reentry:
            committed = (in_ports != LOCAL) & np.isin(in_vcs,
                                                      self.escape_vcs)
            adaptive &= ~committed[:, None, None]
        shared = vcs < (self.n_vcs if self.priority_vc is None
                        else self.priority_vc)
        preferred = np.where(eject, on_xy & shared, adaptive)
        fallback = escape & ~eject
        if self.priority_vc is not None:
            # Priority flows prefer the lane at every hop, ejection
            # included, and fall back to what everyone else gets there.
            priority = (
                (srcs[:, None] == self._flows[:, 0])
                & (dests[:, None] == self._flows[:, 1])
            ).any(axis=1)[:, None, None]
            fallback = np.where(priority & eject, preferred, fallback)
            preferred = np.where(priority, on_xy & (vcs == self.priority_vc),
                                 preferred)
        return preferred, fallback
