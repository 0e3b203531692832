"""Network assembly: topology + floorplan + routers + links + NIs + clock.

:class:`Network` is what every built network is — the tree family here
and the credit fabrics of :mod:`repro.fabric.network` subclass it — and
:class:`ICNoCNetwork` builds a complete simulatable IC-NoC from a
:class:`~repro.fabric.registry.FabricConfig`:

* routers at the tree nodes, clocked at alternating edges level by level;
* links segmented so no pipeline segment exceeds ``max_segment_mm`` (the
  demonstrator targets 1.25 mm near the root, paper Section 6), with one
  pipeline stage per extra segment per direction;
* a forwarded clock tree whose node polarities match the simulation
  parities by construction;
* per-segment :class:`~repro.timing.validator.ChannelSpec` records for the
  timing validator;
* NIs at the leaves with packet statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.clocking.clock_tree import ClockTree
from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError, TopologyError
from repro.noc.arbiter import FixedPriorityArbiter, RoundRobinArbiter
from repro.noc.floorplan import Floorplan, floorplan_for, segment_count
from repro.noc.handshake import HandshakeChannel
from repro.noc.ni import NetworkInterface
from repro.noc.packet import Packet
from repro.noc.pipeline import PipelineStage
from repro.noc.router import ArbiterFactory, TreeRouter, round_robin_factory
from repro.noc.stats import NetworkStats
from repro.noc.topology import TreeTopology, PARENT_PORT
from repro.sim.kernel import SimKernel
from repro.timing.frequency import (
    pipeline_max_frequency,
    router_max_frequency,
)
from repro.timing.validator import ChannelSpec

if TYPE_CHECKING:
    from repro.fabric.registry import FabricConfig


def _local_priority_policy(node, output_port: int, n_inputs: int):
    """Demonstrator arbitration: the processor input (port 1) always beats
    the network (parent, port 0) for access to the local memory (port 2)."""
    if node.children_are_leaves and output_port == 2:
        return FixedPriorityArbiter(n_inputs, order=[1, 0, 2])
    return RoundRobinArbiter(n_inputs)


class Network:
    """What every built network is, whatever its datapath.

    One spec (``config``, always a :class:`~repro.fabric.registry
    .FabricConfig`), one kernel, one statistics record, ``endpoints ==
    config.ports`` addressable ports, and one run-time surface: ``send``
    / ``set_handler`` / ``run_ticks`` / ``run_cycles`` / ``drain``. A
    family supplies its datapath — ``routers``, :meth:`_submit`,
    :meth:`gating_stats`, :meth:`longest_segment_mm` — and declares its
    wires and switches to the telemetry layer through
    :meth:`flit_wires` / :meth:`switches`.
    """

    #: Longest packet ``send`` accepts, in flits (None: unbounded).
    max_packet_flits: int | None = None

    def __init__(self, config: "FabricConfig", topology: Any,
                 router_ports: int, kernel: SimKernel | None = None):
        # An external kernel lets system models (the demonstrator's tile
        # drivers) register components *before* the network's, so their
        # submissions reach the NIs the same tick — it must agree with
        # the config on the execution mode.
        if kernel is not None and \
                kernel.activity_driven != config.activity_driven:
            raise ConfigurationError(
                "provided kernel's activity_driven flag contradicts the "
                "network config"
            )
        self.config = config
        self.topology = topology
        self.router_ports = router_ports
        self.endpoints = config.ports
        self.kernel = kernel if kernel is not None \
            else SimKernel(activity_driven=config.activity_driven)
        self.stats = NetworkStats()
        self._handlers: dict[int, Callable[[Packet, int], None]] = {}
        self._inflight: dict[int, Packet] = {}

    # -- what a family supplies -------------------------------------------

    def _submit(self, packet: Packet) -> None:
        """Hand a validated packet to its source endpoint (may still
        reject it, before anything is recorded)."""
        raise NotImplementedError

    def gating_stats(self) -> GatingStats:
        """Clock-gating counters summed over the datapath (cumulative)."""
        raise NotImplementedError

    def longest_segment_mm(self) -> float:
        """Longest wire any clock period must cover."""
        raise NotImplementedError

    def flit_wires(self) -> Iterator[tuple[str, Any, str | None, bool]]:
        """Yield ``(name, signal, consumer, is_credit)`` for every
        flit-carrying wire: the signal to probe, the router that reads
        it (None on ejection wires) and whether it is a tick-tagged
        credit wire into that router's input FIFO or a handshake
        channel's data wire (busy while a flit is offered or held)."""
        raise NotImplementedError

    def switches(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        """Yield ``(grant_name, router, port_labels)`` for every
        switching element: the name its ``arbitration_grant`` events
        carry, the router name :meth:`flit_wires` lists as the consumer,
        and its port labels (empty: ports print as ``pN``)."""
        raise NotImplementedError

    def _hop_count(self, src: int, dest: int) -> int:
        return self.topology.hop_count(src, dest)

    # -- run-time API -----------------------------------------------------

    def _deliver(self, packet: Packet, tick: int) -> None:
        """The delivery hook of every sink endpoint."""
        # Reassembly built a fresh Packet; recover the injection time
        # recorded on the submitted original.
        original = self._inflight.pop(packet.packet_id, None)
        if original is not None:
            packet.inject_tick = original.inject_tick
        self.stats.record_delivery(
            packet, self._hop_count(packet.src, packet.dest))
        handler = self._handlers.get(packet.dest)
        if handler is not None:
            handler(packet, tick)

    def set_handler(self, endpoint: int,
                    handler: Callable[[Packet, int], None]) -> None:
        """Install a delivery callback at an endpoint (used by system
        models)."""
        if not 0 <= endpoint < self.endpoints:
            raise TopologyError(f"unknown endpoint {endpoint}")
        self._handlers[endpoint] = handler

    def send(self, packet: Packet) -> None:
        if not 0 <= packet.dest < self.endpoints:
            raise TopologyError(f"unknown destination {packet.dest}")
        if packet.src == packet.dest:
            raise TopologyError(
                "src == dest: packets never enter the network")
        self._submit(packet)
        self._inflight[packet.packet_id] = packet
        self.stats.packets_injected += 1
        self.kernel.emit("inject", packet)

    def run_ticks(self, ticks: int) -> None:
        self.kernel.run_ticks(ticks)
        self.stats.elapsed_ticks = self.kernel.tick

    def run_cycles(self, cycles: float) -> None:
        self.kernel.run_cycles(cycles)
        self.stats.elapsed_ticks = self.kernel.tick

    def drain(self, max_ticks: int = 1_000_000) -> bool:
        """Run until every injected packet is delivered (or give up)."""
        stats = self.stats
        done = self.kernel.run_until(
            lambda: stats.packets_delivered >= stats.packets_injected,
            max_ticks,
        )
        stats.elapsed_ticks = self.kernel.tick
        # Assigned, not merged: gating_stats() is cumulative already.
        stats.gating = self.gating_stats()
        return done

    def operating_frequency_ghz(self) -> float:
        """Max clock rate: min of the router critical path (amortised
        over the pipeline depth) and the Fig. 7 pipeline model at the
        longest wire segment — one rule, so the physical reports cost
        every fabric at a comparable frequency."""
        tech = self.config.tech
        f_router = router_max_frequency(self.router_ports, tech,
                                        self.config.pipeline_depth)
        f_links = pipeline_max_frequency(self.longest_segment_mm(), tech)
        return min(f_router, f_links)


class ICNoCNetwork(Network):
    """A built, runnable IC-NoC.

    ``config.allocator`` is ``"rr"`` (round-robin everywhere), or
    ``"local_priority"`` for the demonstrator's processor-over-network
    priority at leaf routers (binary trees with proc/mem sibling pairs
    only, which the registry checks).
    """

    #: Endpoints sharing each leaf NI (the concentrated tree raises it).
    concentration = 1

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        topology = TreeTopology(config.ports // self.concentration,
                                config.arity)
        super().__init__(config, topology, topology.router_ports, kernel)
        self.floorplan: Floorplan = floorplan_for(
            topology, config.chip_width_mm, config.chip_height_mm
        )
        self.clock_tree = ClockTree(root_name="clkgen")
        self.routers: list[TreeRouter] = []
        self.link_stages: list[PipelineStage] = []
        self.nis: list[NetworkInterface] = []
        self.channel_specs: list[ChannelSpec] = []
        self._build()

    # -- construction ---------------------------------------------------

    def _arbiter_factory_for(self, node) -> ArbiterFactory:
        if self.config.allocator == "local_priority":
            return lambda output_port, n_inputs: _local_priority_policy(
                node, output_port, n_inputs
            )
        return round_robin_factory

    def _segments(self, length_mm: float) -> int:
        return segment_count(length_mm, self.config.max_segment_mm)

    def _route_for(self, node):
        """Routing-function hook for subclasses (None = the default
        up*/down* strategy). The concentrated tree overrides this to map
        endpoint addresses onto shared leaves."""
        return None

    def _build(self) -> None:
        topo = self.topology
        self.routers = [None] * topo.router_count  # type: ignore[list-item]
        self.nis = [None] * topo.leaves  # type: ignore[list-item]
        root_node = topo.router(0)
        root = TreeRouter(
            self.kernel, "r0", root_node, topo, input_parity=0,
            arbiter_factory=self._arbiter_factory_for(root_node),
            route=self._route_for(root_node),
        )
        self.routers[0] = root
        self.clock_tree.add("r0", parent="clkgen", segment_delay_ps=0.0,
                            inverts=False)
        self._wire_children(root)

    def _wire_children(self, router: TreeRouter) -> None:
        node = router.node
        for child_slot, child in enumerate(node.children):
            port = child_slot + 1
            length = self.floorplan.link_length(node.index, port)
            n_seg = self._segments(length)
            seg_len = length / n_seg
            seg_delay = self.config.tech.buffered_wire.delay(seg_len)
            link_name = f"l{node.index}.{port}"

            # Downward chain: router output -> stages -> endpoint input.
            down_chs = [router.out_channels[port]]
            parity = router.input_parity ^ 1
            clock_parent = router.name
            for j in range(n_seg - 1):
                ch = HandshakeChannel(self.kernel, f"{link_name}.d{j}")
                stage = PipelineStage(
                    self.kernel, f"{link_name}.dst{j}", parity,
                    upstream=down_chs[-1], downstream=ch,
                )
                self.link_stages.append(stage)
                down_chs.append(ch)
                stage_clock = f"{link_name}.st{j}"
                self.clock_tree.add(stage_clock, parent=clock_parent,
                                    segment_delay_ps=seg_delay)
                clock_parent = stage_clock
                parity ^= 1
            endpoint_parity = parity

            # Upward chain runs through stages at the same positions.
            # Build from the endpoint back toward the router.
            up_endpoint_drives = HandshakeChannel(
                self.kernel, f"{link_name}.u{n_seg - 1}"
            ) if n_seg > 1 else router.in_channels[port]
            up_chs = [up_endpoint_drives]
            up_parity = endpoint_parity ^ 1
            for j in range(n_seg - 2, -1, -1):
                target = (router.in_channels[port] if j == 0 else
                          HandshakeChannel(self.kernel, f"{link_name}.u{j}"))
                stage = PipelineStage(
                    self.kernel, f"{link_name}.ust{j}", up_parity,
                    upstream=up_chs[-1], downstream=target,
                )
                self.link_stages.append(stage)
                up_chs.append(target)
                up_parity ^= 1

            # Per-segment timing specs (both directions share the wires).
            for j in range(n_seg):
                base = f"{link_name}.seg{j}"
                self.channel_specs.append(ChannelSpec(
                    name=f"{base}.down", clock_delay_ps=seg_delay,
                    data_delay_ps=seg_delay, accept_delay_ps=seg_delay,
                    downstream=True,
                ))
                self.channel_specs.append(ChannelSpec(
                    name=f"{base}.up", clock_delay_ps=seg_delay,
                    data_delay_ps=seg_delay, accept_delay_ps=seg_delay,
                    downstream=False,
                ))

            if node.children_are_leaves:
                ni = NetworkInterface(
                    self.kernel, leaf=child,
                    to_network=up_chs[0],
                    from_network=down_chs[-1],
                    source_parity=endpoint_parity,
                    sink_parity=endpoint_parity,
                    on_packet=self._deliver,
                )
                self.nis[child] = ni
                self.clock_tree.add(f"ni{child}", parent=clock_parent,
                                    segment_delay_ps=seg_delay)
            else:
                child_node = self.topology.router(child)
                child_router = TreeRouter(
                    self.kernel, f"r{child}", child_node, self.topology,
                    input_parity=endpoint_parity,
                    arbiter_factory=self._arbiter_factory_for(child_node),
                    in_channel_overrides={PARENT_PORT: down_chs[-1]},
                    out_channel_overrides={PARENT_PORT: up_chs[0]},
                    route=self._route_for(child_node),
                )
                self.routers[child] = child_router
                self.clock_tree.add(f"r{child}", parent=clock_parent,
                                    segment_delay_ps=seg_delay)
                self._wire_children(child_router)

    # -- run-time API -----------------------------------------------------

    def _submit(self, packet: Packet) -> None:
        self.nis[packet.src].submit(packet)

    @property
    def delivered(self) -> list[Packet]:
        out: list[Packet] = []
        for ni in self.nis:
            out.extend(ni.delivered)
        return out

    # -- analysis hooks -----------------------------------------------------

    @property
    def link_stage_count(self) -> int:
        """Intermediate pipeline stages on links (both directions)."""
        return len(self.link_stages)

    @property
    def pipeline_stage_count(self) -> int:
        """Stages counted by the area model: link stages + one per port."""
        return self.link_stage_count + self.topology.leaves

    def longest_segment_mm(self) -> float:
        longest = 0.0
        for node in self.topology.routers:
            for child_slot in range(len(node.children)):
                port = child_slot + 1
                length = self.floorplan.link_length(node.index, port)
                longest = max(longest, length / self._segments(length))
        return longest

    def gating_stats(self) -> GatingStats:
        total = GatingStats()
        for router in self.routers:
            total.merge(router.gating_stats())
        for stage in self.link_stages:
            total.merge(stage.gating)
        return total

    def flit_wires(self) -> Iterator[tuple[str, Any, str | None, bool]]:
        # No credit links here: the equivalent is each router's input
        # handshake channels.
        for router in self.routers:
            for channel in router.in_channels:
                yield channel.name, channel.data_signal, router.name, False

    def switches(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        for router in self.routers:
            yield router.switch.name, router.name, ()

    def describe(self) -> str:
        return (
            f"IC-NoC: {self.topology.leaves} ports, "
            f"arity {self.config.arity}, "
            f"{self.topology.router_count} routers "
            f"({self.topology.router_ports}x{self.topology.router_ports}), "
            f"{self.link_stage_count} link stages, "
            f"f_max {self.operating_frequency_ghz():.3f} GHz"
        )
