"""Generic assembly of credit-based fabrics.

:class:`CreditFabricNetwork` builds a complete runnable network from a
structure description (:mod:`repro.fabric.topologies`) plus a routing
strategy (:mod:`repro.fabric.routing`): one :class:`FabricRouter` per
node, two directed :class:`CreditLink` wires per neighbour pair, and a
:class:`FabricSource`/:class:`FabricSink` pair on every local port. The
run-time API (``send`` / ``run_ticks`` / ``run_cycles`` / ``drain`` /
``stats``) is the :class:`~repro.noc.network.Network` base's, shared
with the handshake tree, so every fabric runs through the same sweep
engine, saturation searches, and CLI.

Build order is deterministic — routers in node order, links in the
topology's ``links()`` order, local ports in node order — which fixes the
kernel's component and signal registration order and therefore makes the
activity-driven fast path bit-identical to the naive reference loop for
every fabric assembled here.

**Pipelining knobs.** The config may carry ``pipeline_depth`` (staged
routers, default 1), ``segment_links`` (floorplan-driven link
segmentation at ``max_segment_mm``, default off), and ``credit_sizing``
(``"auto"`` grows FIFOs/credit loops to the ``pipeline_depth +
2 * segments`` round trip; ``"strict"`` demands ``buffer_depth`` already
covers it and raises :class:`~repro.errors.ConfigurationError` at build
time otherwise — a too-small credit loop throttles or wedges silently,
so it is a build error, never a run-time surprise). With the defaults
every link keeps the historical single-segment, default-capacity shape
and the build is bit-identical to pre-knob versions.

The concrete fabrics (:class:`MeshNetwork`, :class:`TorusNetwork`,
:class:`RingNetwork`) are the registry's builders: each pairs a structure
with its routing strategy and takes the same
:class:`~repro.fabric.registry.FabricConfig`, under either flow control.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError
from repro.fabric.allocator import make_allocator
from repro.fabric.endpoint import FabricSink, FabricSource
from repro.fabric.link import CreditLink
from repro.fabric.router import FabricRouter
from repro.fabric.routing import (
    LOCAL,
    PORT_NAMES,
    RING_PORT_NAMES,
    EscapeVcAdaptive,
    RingDatelineVc,
    RingRouting,
    RoutingStrategy,
    TorusDatelineVc,
    TorusXYRouting,
    VcPolicy,
    XYRouting,
)
from repro.fabric.topologies import (
    MeshTopology,
    RingTopology,
    TorusTopology,
    square_side,
)
from repro.noc.floorplan import (
    LOCAL_PORT,
    Floorplan,
    grid_fabric_floorplan,
    ring_fabric_floorplan,
    segment_count,
)
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.sim.kernel import SimKernel

if TYPE_CHECKING:
    from repro.fabric.registry import FabricConfig


class CreditFabricNetwork(Network):
    """A built, runnable credit-based fabric with the shared run-time API.

    ``config`` is the fabric's one spec — every knob is read from it and
    was validated when it was constructed; ``topology`` supplies the
    structure, ``routing`` the per-node route functions.
    """

    def __init__(self, config: "FabricConfig", topology,
                 routing: RoutingStrategy,
                 kernel: SimKernel | None = None, node_prefix: str = "m",
                 port_names: tuple[str, ...] | None = None,
                 vc_policy: VcPolicy | None = None):
        super().__init__(config, topology, topology.max_ports, kernel)
        self.routing = routing
        self.vc_policy = vc_policy
        self.vc_enabled = config.flow_control == "vc"
        if self.vc_enabled and vc_policy is None:
            raise ConfigurationError(
                "flow_control='vc' needs a VC-assignment policy"
            )
        if not self.vc_enabled and routing.needs_bubble:
            # The bubble rule's deadlock-freedom argument is virtual
            # cut-through: a packet must fit one FIFO with a slot to
            # spare.
            self.max_packet_flits = config.buffer_depth - 1
        # Allocation policy: every router gets a fresh allocator instance
        # of this flavour (arbitration state is per router).
        self.allocator_name = config.allocator
        self.reservations = config.reservations
        self.pipeline_depth = config.pipeline_depth
        self.segment_links = config.segment_links
        self.credit_sizing = config.credit_sizing
        # Execution backend: "dispatch" fires each router/endpoint as its
        # own kernel component; "array" lowers the whole fabric into one
        # vectorized engine (repro.fabric.array_backend). The config owns
        # the lowerability rule, "auto" included.
        self.backend = config.resolved_backend
        self.engine = None
        self.routers: list[FabricRouter] = []
        self.sources: list[FabricSource] = []
        self.sinks: list[FabricSink] = []
        self.links: list[CreditLink] = []
        self.delivered: list[Packet] = []
        self._node_prefix = node_prefix
        self._port_names = port_names
        self._floorplan: Floorplan | None = None
        # Under the array backend, routers and endpoints are built with
        # their full state but left unregistered: the engine executes
        # their semantics vectorized and is the only scheduled component.
        self._register_components = self.backend != "array"
        self._build()
        if self.backend == "array":
            from repro.fabric.array_backend import make_engine
            self.engine = make_engine(self)

    # -- construction ---------------------------------------------------

    @property
    def n_vcs(self) -> int:
        return self.config.n_vcs if self.vc_enabled else 1

    def _make_router(self, node: int):
        # One construction path for both regimes: n_vcs picks the
        # degenerate (wormhole) or VC shape inside the unified router,
        # and every router gets its own allocator instance.
        vc = self.vc_enabled
        return FabricRouter(
            self.kernel, f"{self._node_prefix}{node}",
            n_ports=self.topology.max_ports,
            route=None if vc else self.routing.for_node(node),
            candidates=self.vc_policy.for_node(node) if vc else None,
            n_vcs=self.n_vcs,
            buffer_depth=self.config.buffer_depth,
            ring_transit=self.routing,
            port_names=self._port_names,
            pipeline_depth=self.pipeline_depth,
            register=self._register_components,
            allocator=make_allocator(self.allocator_name,
                                     self.reservations),
        )

    def _link_segments(self, node: int, port: int) -> int:
        """Pipeline segments for the link driven at (node, port): 1 when
        segmentation is off, the floorplan-derived count otherwise."""
        if not self.segment_links:
            return 1
        length = self.floorplan.link_length(node, port)
        return segment_count(length, self.config.max_segment_mm)

    def _link_capacity(self, segments: int) -> int | None:
        """Consumer FIFO depth behind a link, or None for the default.

        A credit loop spans ``pipeline_depth + 2 * segments`` cycles
        (router stages + wire out + credit back), so streaming at one
        flit per cycle needs that many credits. The historical shape
        (depth 1, one segment) is left untouched so default builds stay
        bit-identical; otherwise ``auto`` sizing grows the FIFO and
        ``strict`` demands buffer_depth already covers the loop.
        """
        if self.pipeline_depth == 1 and segments == 1:
            return None
        required = self.pipeline_depth + 2 * segments
        if self.credit_sizing == "strict" and \
                self.config.buffer_depth < required:
            raise ConfigurationError(
                f"credit loop under-buffered: pipeline_depth "
                f"({self.pipeline_depth}) + 2 x segments ({segments}) "
                f"= {required} flits in flight per round trip, but "
                f"buffer_depth is {self.config.buffer_depth}; raise "
                f"buffer_depth or use credit_sizing='auto'"
            )
        return max(self.config.buffer_depth, required)

    def _make_link(self, name: str, segments: int = 1):
        capacity = self._link_capacity(segments)
        link = CreditLink(self.kernel, name, self.n_vcs,
                          segments=segments, capacity=capacity)
        self.links.append(link)
        return link

    def _build(self) -> None:
        prefix = self._node_prefix
        for node in range(self.topology.nodes):
            self.routers.append(self._make_router(node))
        # Router-to-router links (two directed links per neighbour pair).
        for a, a_port, b, b_port in self.topology.links():
            self._connect(a, a_port, b, b_port)
        # Local ports.
        for node in range(self.topology.nodes):
            router = self.routers[node]
            stub = self._link_segments(node, LOCAL_PORT)
            inject = self._make_link(f"{prefix}{node}.inj", segments=stub)
            eject = self._make_link(f"{prefix}{node}.ej", segments=stub)
            router.connect(LOCAL, inject, eject)
            src_credits = (inject.capacity if inject.capacity is not None
                           else self.config.buffer_depth)
            register = self._register_components
            source = FabricSource(
                self.kernel, f"{prefix}{node}.src", inject,
                credits=src_credits,
                vc=(self.vc_policy.injection_vc(node)
                    if self.vc_enabled else 0),
                register=register)
            sink = FabricSink(self.kernel, f"{prefix}{node}.sink",
                              eject, on_packet=self._deliver,
                              register=register)
            # The sink grants the router initial credits via connect();
            # sink-side credits mirror the router's local output credits.
            self.sources.append(source)
            self.sinks.append(sink)

    def _connect(self, a: int, a_port: int, b: int, b_port: int) -> None:
        prefix = self._node_prefix
        # Both directions share the canonical floorplan length, keyed by
        # the driving (a, a_port) of the topology's links() order.
        segments = self._link_segments(a, a_port)
        a_to_b = self._make_link(f"{prefix}{a}>{prefix}{b}",
                                 segments=segments)
        b_to_a = self._make_link(f"{prefix}{b}>{prefix}{a}",
                                 segments=segments)
        router_a, router_b = self.routers[a], self.routers[b]
        router_a.connect(a_port, b_to_a, a_to_b)
        router_b.connect(b_port, a_to_b, b_to_a)

    # -- shared run-time API ----------------------------------------------

    def _deliver(self, packet: Packet, tick: int) -> None:
        self.delivered.append(packet)
        super()._deliver(packet, tick)

    def _submit(self, packet: Packet) -> None:
        limit = self.max_packet_flits
        if limit is not None and packet.flit_count > limit:
            # Reject loudly instead of wedging the ring.
            raise ConfigurationError(
                f"{packet.flit_count}-flit packet on a ring-closing "
                f"fabric needs buffer_depth >= {packet.flit_count + 1} "
                f"(got {self.config.buffer_depth}); raise buffer_depth "
                f"or shorten packets"
            )
        self.sources[packet.src].submit(packet)
        if self.engine is not None:
            self.engine.on_submit(packet.src)

    def run_ticks(self, ticks: int) -> None:
        """Advance the kernel by ``ticks`` half-cycles.

        Under ``backend="array"`` the fabric's state lives in the engine:
        ``self.routers[i]`` / ``self.sources[i]`` (credits, FIFOs, locks,
        arbiter counters) go stale until the next :meth:`drain`, the one
        call that writes it back. Network-level results — deliveries,
        ``stats``, :meth:`gating_stats` — are always current.
        """
        if self.engine is not None:
            self.engine.refresh_observers()
        super().run_ticks(ticks)

    def run_cycles(self, cycles: float) -> None:
        if self.engine is not None:
            self.engine.refresh_observers()
        super().run_cycles(cycles)

    def drain(self, max_ticks: int = 1_000_000) -> bool:
        if self.engine is not None:
            self.engine.refresh_observers()
        done = super().drain(max_ticks)
        if self.engine is not None:
            # Make the per-router python state (FIFOs, credits, locks,
            # counters) inspectable again after a drained run.
            self.engine.sync_back()
        return done

    def gating_stats(self) -> GatingStats:
        if self.engine is not None:
            return self.engine.gating_stats()
        total = GatingStats()
        for router in self.routers:
            total.merge(router.gating)
        for link in self.links:
            for stage in link.stages:
                total.merge(stage.gating)
        return total

    def total_buffer_flits(self) -> int:
        """Total FIFO capacity — the stall-buffer cost the IC-NoC avoids."""
        return sum(router.buffer_capacity for router in self.routers)

    @property
    def link_stage_count(self) -> int:
        """Register stages inside segmented links (all directions)."""
        return sum(len(link.stages) for link in self.links)

    @property
    def router_stage_registers(self) -> int:
        """Stage register banks inside the routers: one per in-use output
        port per extra pipeline stage."""
        if self.pipeline_depth == 1:
            return 0
        out_ports = sum(1 for router in self.routers
                        for link in router.out_links if link is not None)
        return (self.pipeline_depth - 1) * out_ports

    # -- physical view ----------------------------------------------------

    @property
    def floorplan(self) -> Floorplan:
        """Geometric embedding of this fabric on the die (lazy).

        Grid fabrics tile the chip (torus wrap links at the folded
        length); rings loop along the die perimeter — see
        :mod:`repro.noc.floorplan`. The physical models
        (:mod:`repro.physical`) read link lengths from here.
        """
        if self._floorplan is None:
            topo = self.topology
            width = self.config.chip_width_mm
            height = self.config.chip_height_mm
            if hasattr(topo, "cols"):
                self._floorplan = grid_fabric_floorplan(
                    topo.cols, topo.rows, topo.links(), width, height
                )
            else:
                self._floorplan = ring_fabric_floorplan(
                    topo.nodes, topo.links(), width, height
                )
        return self._floorplan

    def longest_segment_mm(self) -> float:
        """Longest wire any clock period must cover: the longest link
        when segmentation is off, else the longest per-segment span."""
        max_seg = self.config.max_segment_mm
        longest = 0.0
        for length in self.floorplan.link_lengths.values():
            segments = (segment_count(length, max_seg)
                        if self.segment_links else 1)
            longest = max(longest, length / segments)
        return longest

    def flit_wires(self) -> Iterator[tuple[str, Any, str | None, bool]]:
        consumer: dict[int, str] = {}
        for router in self.routers:
            for link in router.in_links:
                if link is not None:
                    consumer[id(link)] = router.name
        for link in self.links:
            yield link.name, link.flit, consumer.get(id(link)), True

    def switches(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        for router in self.routers:
            labels = tuple(router.port_name(port)
                           for port in range(router.n_ports))
            yield router.name, router.name, labels

    def describe(self) -> str:
        describe = getattr(self.topology, "describe", None)
        structure = describe() if describe else f"{self.topology.nodes} nodes"
        flow = (f", {self.n_vcs} VCs ({self.vc_policy.name})"
                if self.vc_enabled else "")
        if self.allocator_name != "rr":
            flow += f", {self.allocator_name} allocation"
        pipe = ""
        if self.pipeline_depth > 1:
            pipe += f", {self.pipeline_depth}-stage routers"
        if self.segment_links:
            pipe += (f", {self.link_stage_count} link stages "
                     f"(<= {self.config.max_segment_mm} mm segments)")
        return (f"{type(self).__name__}: {structure}, "
                f"{len(self.routers)} routers, "
                f"buffer depth {self.config.buffer_depth}{flow}{pipe}")


def make_vc_policy(config: "FabricConfig", cols: int | None = None,
                   rows: int | None = None) -> VcPolicy | None:
    """The VC-assignment policy a :class:`FabricConfig` resolves to.

    None when the config runs plain wormhole. Grid policies need the
    fabric's (cols, rows); the ring derives its shape from ``ports``.
    Only the stock (topology, policy) pairings are dispatched here — a
    new registered fabric supplies its own policy object straight to
    :class:`CreditFabricNetwork` rather than extending this table, and
    an unknown pairing fails loudly instead of building a policy whose
    deadlock argument does not fit the structure.
    """
    name = config.resolved_vc_policy
    if name is None:
        return None
    if config.topology == "ring" and name == "dateline":
        return RingDatelineVc(config.ports, config.n_vcs)
    if config.topology in ("mesh", "torus"):
        if cols is None or rows is None:
            raise ConfigurationError(
                f"{config.topology}: grid VC policies need the fabric's "
                f"(cols, rows) — pass the _grid_shape result"
            )
        if name == "dateline" and config.topology == "torus":
            return TorusDatelineVc(cols, rows, config.n_vcs)
        if name == "escape":
            return EscapeVcAdaptive(
                cols, rows, config.n_vcs,
                wrap=(config.topology == "torus"),
                reentry=config.allocator == "escape-reentry",
                priority_flows=config.priority_flows,
            )
    raise ConfigurationError(
        f"no stock VC policy builder for topology {config.topology!r} "
        f"with policy {name!r}; pass a VcPolicy to CreditFabricNetwork"
    )


class MeshNetwork(CreditFabricNetwork):
    """The paper's comparison baseline: a 2-D mesh under XY routing.

    Dimension order is deadlock-free on its own; ``flow_control="vc"``
    adds the escape policy's adaptive VCs on the same routers.
    """

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        cols, rows = _grid_shape(config, "mesh")
        super().__init__(config, MeshTopology(cols, rows),
                         XYRouting(cols, rows), kernel=kernel,
                         node_prefix="m", port_names=PORT_NAMES,
                         vc_policy=make_vc_policy(config, cols, rows))


class TorusNetwork(CreditFabricNetwork):
    """A 2-D torus under shortest-wrap XY routing.

    Deadlock freedom comes from the bubble rule under wormhole flow
    control, or from dateline/escape VCs under ``flow_control="vc"``
    (which also lifts the packet-length bound).
    """

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        cols, rows = _grid_shape(config, "torus")
        topology = TorusTopology(cols, rows)
        super().__init__(config, topology, TorusXYRouting(cols, rows),
                         kernel=kernel, node_prefix="t",
                         port_names=PORT_NAMES,
                         vc_policy=make_vc_policy(config, cols, rows))


class RingNetwork(CreditFabricNetwork):
    """A bidirectional ring under shortest-direction routing."""

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        topology = RingTopology(config.ports)
        super().__init__(config, topology, RingRouting(config.ports),
                         kernel=kernel, node_prefix="g",
                         port_names=RING_PORT_NAMES,
                         vc_policy=make_vc_policy(config))


def _grid_shape(config: "FabricConfig", what: str) -> tuple[int, int]:
    """(cols, rows) of a grid fabric: explicit rows, or a square."""
    rows = config.rows
    if rows:
        if config.ports % rows:
            raise ConfigurationError(
                f"{what}: ports ({config.ports}) not divisible by rows "
                f"({rows})"
            )
        return config.ports // rows, rows
    side = square_side(config.ports, what)
    return side, side
