"""Assembly of the credit-based fabrics.

:class:`CreditFabricNetwork` is the one builder of every credit fabric:
on the structure the config's registry entry names
(:mod:`repro.fabric.topologies`, which supplies the routing strategy)
and the VC policy the entry pairs with it (:mod:`repro.fabric.routing`),
both built by the :class:`~repro.noc.base.Network` base, it assembles
one :class:`FabricRouter` per node, two directed :class:`CreditLink`
wires per neighbour pair, and a :class:`FabricSource`/:class:`FabricSink`
pair on every local port. The
run-time API (``send`` / ``run_ticks`` / ``run_cycles`` / ``drain`` /
``stats``) is the :class:`~repro.noc.base.Network` base's, shared
with the handshake tree, so every fabric runs through the same sweep
engine, saturation searches, and CLI.

Build order is deterministic — routers in node order, links in the
topology's ``links()`` order, local ports in node order — which fixes the
kernel's component and signal registration order and therefore makes the
activity-driven fast path bit-identical to the naive reference loop for
every fabric assembled here. Under ``backend="array"`` the one scheduled
component is the engine, lowered from the structure; the same build runs
only when something reads the datapath, with every component left
unregistered.

**Pipelining knobs.** The config may carry ``pipeline_depth`` (staged
routers, default 1) and ``segment_links`` (floorplan-driven link
segmentation at ``max_segment_mm``, default off); FIFOs and credit loops
grow to the ``pipeline_depth + 2 * segments`` round trip. With the
defaults every link keeps the historical single-segment,
default-capacity shape and the build is bit-identical to pre-knob
versions.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterator

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError
from repro.fabric.allocator import make_allocator
from repro.fabric.endpoint import FabricSink, FabricSource
from repro.fabric.link import CreditLink
from repro.fabric.router import FabricRouter, port_label
from repro.fabric.routing import LOCAL
from repro.noc.floorplan import LOCAL_PORT, Floorplan
from repro.noc.base import Network
from repro.noc.packet import Packet
from repro.sim.kernel import SimKernel

if TYPE_CHECKING:
    from repro.fabric.registry import FabricConfig


class CreditFabricNetwork(Network):
    """A built, runnable credit-based fabric with the shared run-time API.

    ``config`` is the fabric's one spec — every knob is read from it and
    was validated when it was constructed. Its registry entry names the
    rest, which the base builds: ``topology`` (the structure: node
    prefix, port labels, links), ``routing`` (the structure's per-node
    route functions) and ``vc_policy`` (None under wormhole).
    """

    #: A link register stage holds a flit a cycle; so does the injection
    #: link (``LINK_LATENCY_TICKS``).
    link_stage_ticks = 2
    endpoint_ticks = 2

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        super().__init__(config, kernel)
        topology = self.topology
        self.vc_enabled = config.flow_control == "vc"
        self.port_labels = tuple(port_label(topology.port_names, port)
                                 for port in range(topology.max_ports))
        if not self.vc_enabled and self.routing.needs_bubble:
            # The bubble rule's deadlock-freedom argument is virtual
            # cut-through: a packet must fit one FIFO with a slot to
            # spare.
            self.max_packet_flits = config.buffer_depth - 1
        # Execution backend: "dispatch" fires each router/endpoint as its
        # own kernel component; "array" lowers the whole fabric into one
        # vectorized engine (repro.fabric.array_backend). The config owns
        # the lowerability rule, "auto" included.
        self.backend = config.resolved_backend
        self.delivered: list[Packet] = []
        self._floorplan: Floorplan | None = None
        # The datapath: routers, links and endpoints. Dispatch steps it,
        # so it is built now. The array engine lowers from the structure
        # and is the only scheduled component; its datapath is a view,
        # built unregistered on first read (see _ensure_datapath).
        self._routers: list[FabricRouter] = []
        self._sources: list[FabricSource] = []
        self._sinks: list[FabricSink] = []
        self._links: list[CreditLink] = []
        self._built = False
        if self.backend == "array":
            from repro.fabric.array_backend import make_engine
            self.engine = make_engine(self)
        else:
            self.engine = None
            self._ensure_datapath()

    # -- construction ---------------------------------------------------

    @property
    def n_vcs(self) -> int:
        return self.config.n_vcs if self.vc_enabled else 1

    def _ensure_datapath(self) -> None:
        """Build the datapath if nothing has yet, through the one
        :meth:`_build`. Under the array backend the components stay
        unregistered and the engine's state is synced into them now (and
        again at every later :meth:`drain`)."""
        if self._built:
            return
        self._built = True
        self._build()
        if self.engine is not None:
            self.engine.sync_back()

    @property
    def routers(self) -> list[FabricRouter]:
        self._ensure_datapath()
        return self._routers

    @property
    def links(self) -> list[CreditLink]:
        self._ensure_datapath()
        return self._links

    @property
    def sources(self) -> list[FabricSource]:
        self._ensure_datapath()
        return self._sources

    @property
    def sinks(self) -> list[FabricSink]:
        self._ensure_datapath()
        return self._sinks

    def _make_router(self, node: int):
        # One construction path for both regimes: n_vcs picks the
        # degenerate (wormhole) or VC shape inside the unified router,
        # and every router gets its own allocator instance (arbitration
        # state is per router).
        vc = self.vc_enabled
        config = self.config
        return FabricRouter(
            self.kernel, f"{self.topology.prefix}{node}",
            n_ports=self.topology.max_ports,
            route=None if vc else self.routing.for_node(node),
            candidates=self.vc_policy.for_node(node) if vc else None,
            n_vcs=self.n_vcs,
            buffer_depth=config.buffer_depth,
            ring_transit=self.routing,
            port_names=self.topology.port_names,
            pipeline_depth=config.pipeline_depth,
            register=self.engine is None,
            allocator=make_allocator(config.allocator, config.reservations),
        )

    def _link_segments(self, node: int, port: int) -> int:
        if not self.config.segment_links:
            return 1
        return super()._link_segments(node, port)

    def router_ticks(self) -> list[int]:
        # The grant edge and the output link it drives take a cycle
        # each, every extra pipeline stage one more.
        return [2 * self.config.pipeline_depth + 2] * self.topology.nodes

    def _link_capacity(self, segments: int) -> int | None:
        """Consumer FIFO depth behind a link, or None for the default.

        A credit loop spans ``pipeline_depth + 2 * segments`` cycles
        (router stages + wire out + credit back), so streaming at one
        flit per cycle needs that many credits: the FIFO grows to cover
        the loop. The historical shape (depth 1, one segment) is left
        untouched so default builds stay bit-identical.
        """
        depth = self.config.pipeline_depth
        if depth == 1 and segments == 1:
            return None
        return max(self.config.buffer_depth, depth + 2 * segments)

    def _make_link(self, name: str, segments: int = 1):
        capacity = self._link_capacity(segments)
        link = CreditLink(self.kernel, name, self.n_vcs,
                          segments=segments, capacity=capacity)
        self._links.append(link)
        return link

    def _build(self) -> None:
        prefix = self.topology.prefix
        for node in range(self.topology.nodes):
            self._routers.append(self._make_router(node))
        # Router-to-router links (two directed links per neighbour pair).
        for a, a_port, b, b_port in self.topology.links():
            self._connect(a, a_port, b, b_port)
        # Local ports.
        for node in range(self.topology.nodes):
            router = self._routers[node]
            stub = self._link_segments(node, LOCAL_PORT)
            inject = self._make_link(f"{prefix}{node}.inj", segments=stub)
            eject = self._make_link(f"{prefix}{node}.ej", segments=stub)
            router.connect(LOCAL, inject, eject)
            src_credits = (inject.capacity if inject.capacity is not None
                           else self.config.buffer_depth)
            register = self.engine is None
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
            self._sources.append(source)
            self._sinks.append(sink)

    def _connect(self, a: int, a_port: int, b: int, b_port: int) -> None:
        prefix = self.topology.prefix
        # Both directions share the canonical floorplan length, keyed by
        # the driving (a, a_port) of the topology's links() order.
        segments = self._link_segments(a, a_port)
        a_to_b = self._make_link(f"{prefix}{a}>{prefix}{b}",
                                 segments=segments)
        b_to_a = self._make_link(f"{prefix}{b}>{prefix}{a}",
                                 segments=segments)
        router_a, router_b = self._routers[a], self._routers[b]
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
        if self.engine is not None:
            self.engine.submit(packet)
        else:
            self._sources[packet.src].submit(packet)

    def run_ticks(self, ticks: int) -> None:
        """Advance the kernel by ``ticks`` half-cycles.

        Under ``backend="array"`` the fabric's state lives in the engine.
        The datapath (``routers``, ``links``, ``sources``, ``sinks``) is
        a view of it: built and synced on first read, synced again by
        every :meth:`drain`, and stale in between. Network-level results
        — deliveries, ``stats``, :meth:`gating_stats` — are always
        current.
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
        if self.engine is not None and self._built:
            # A datapath something has read shows the drained state.
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

    # -- structural views (never build the datapath) -----------------------

    @cached_property
    def input_fifo_depths(self) -> list[dict[int, int]]:
        """Per node, each wired port's input FIFO depth per VC: what
        :meth:`_build` wires, read from the structure alone. Every wired
        port is wired both ways."""
        default = self.config.buffer_depth

        def depth(node: int, port: int) -> int:
            capacity = self._link_capacity(self._link_segments(node, port))
            return default if capacity is None else capacity

        depths: list[dict[int, int]] = [{} for _ in
                                        range(self.topology.nodes)]
        for a, a_port, b, b_port in self.topology.links():
            depths[a][a_port] = depths[b][b_port] = depth(a, a_port)
        for node, ports in enumerate(depths):
            ports[LOCAL] = depth(node, LOCAL_PORT)
        return depths

    def total_buffer_flits(self) -> int:
        """Total FIFO capacity — the stall-buffer cost the IC-NoC avoids."""
        return self.n_vcs * sum(sum(ports.values())
                                for ports in self.input_fifo_depths)

    @property
    def link_stage_count(self) -> int:
        """Register stages inside segmented links (all directions): a
        K-segment link has K - 1 each way."""
        if not self.config.segment_links:
            return 0
        ends = [(a, a_port) for a, a_port, _b, _b_port
                in self.topology.links()]
        ends += [(node, LOCAL_PORT) for node in range(self.topology.nodes)]
        return sum(2 * (self._link_segments(node, port) - 1)
                   for node, port in ends)

    @property
    def router_stage_registers(self) -> int:
        """Stage register banks inside the routers: one per in-use output
        port per extra pipeline stage."""
        depth = self.config.pipeline_depth
        if depth == 1:
            return 0
        out_ports = sum(len(ports) for ports in self.input_fifo_depths)
        return (depth - 1) * out_ports

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
            self._floorplan = self.topology.floorplan(
                self.config.chip_width_mm, self.config.chip_height_mm)
        return self._floorplan

    def flit_wires(self) -> Iterator[tuple[str, Any, str | None, bool]]:
        consumer: dict[int, str] = {}
        for router in self.routers:
            for link in router.in_links:
                if link is not None:
                    consumer[id(link)] = router.name
        for link in self.links:
            yield link.name, link.flit, consumer.get(id(link)), True

    def switches(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        prefix, labels = self.topology.prefix, self.port_labels
        for node in range(self.topology.nodes):
            yield f"{prefix}{node}", f"{prefix}{node}", labels

    def grant_wires(self) -> Iterator[tuple[str, int, Any]]:
        for router in self.routers:
            if router.pipeline_depth == 1:
                for port, link in enumerate(router.out_links):
                    if link is not None:
                        yield router.name, port, link.flit_in

    def describe(self) -> str:
        config = self.config
        flow = (f", {self.n_vcs} VCs ({self.vc_policy.name})"
                if self.vc_enabled else "")
        if config.allocator != "rr":
            flow += f", {config.allocator} allocation"
        pipe = ""
        if config.pipeline_depth > 1:
            pipe += f", {config.pipeline_depth}-stage routers"
        if config.segment_links:
            pipe += (f", {self.link_stage_count} link stages "
                     f"(<= {config.max_segment_mm} mm segments)")
        return (f"{type(self).__name__}: {self.topology.describe()}, "
                f"{self.topology.nodes} routers, "
                f"buffer depth {config.buffer_depth}{flow}{pipe}")
