"""Network assembly: topology + floorplan + routers + links + NIs + clock.

:class:`ICNoCNetwork` builds a complete simulatable IC-NoC from a
:class:`~repro.fabric.registry.FabricConfig`, on the
:class:`~repro.noc.base.Network` base every built network shares (the
credit fabrics of :mod:`repro.fabric.network` build on it too, without
importing this module):

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

from typing import TYPE_CHECKING, Any, Iterator

from repro.clocking.clock_tree import ClockTree
from repro.clocking.gating import GatingStats
from repro.noc.arbiter import FixedPriorityArbiter, RoundRobinArbiter
from repro.noc.base import Network
from repro.noc.floorplan import Floorplan, floorplan_for
from repro.noc.handshake import HandshakeChannel
from repro.noc.ni import NetworkInterface
from repro.noc.packet import Packet
from repro.noc.pipeline import PipelineStage
from repro.noc.router import ArbiterFactory, TreeRouter, round_robin_factory
from repro.noc.topology import PARENT_PORT
from repro.sim.kernel import SimKernel
from repro.timing.validator import ChannelSpec

if TYPE_CHECKING:
    from repro.fabric.registry import FabricConfig


def _local_priority_policy(node, output_port: int, n_inputs: int):
    """Demonstrator arbitration: the processor input (port 1) always beats
    the network (parent, port 0) for access to the local memory (port 2)."""
    if node.children_are_leaves and output_port == 2:
        return FixedPriorityArbiter(n_inputs, order=[1, 0, 2])
    return RoundRobinArbiter(n_inputs)


class ICNoCNetwork(Network):
    """A built, runnable IC-NoC.

    ``config.allocator`` is ``"rr"`` (round-robin everywhere), or
    ``"local_priority"`` for the demonstrator's processor-over-network
    priority at leaf routers (binary trees with proc/mem sibling pairs
    only, which the structure checks).
    """

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        super().__init__(config, kernel)
        self.floorplan: Floorplan = floorplan_for(
            self.topology, config.chip_width_mm, config.chip_height_mm
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

    def _build(self) -> None:
        topo = self.topology
        self.routers = [None] * topo.router_count  # type: ignore[list-item]
        self.nis = [None] * topo.leaves  # type: ignore[list-item]
        root_node = topo.router(0)
        root = TreeRouter(
            self.kernel, "r0", root_node, input_parity=0,
            route=self.routing.for_node(0),
            arbiter_factory=self._arbiter_factory_for(root_node),
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
            n_seg = self._link_segments(node.index, port)
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
                    self.kernel, f"r{child}", child_node,
                    input_parity=endpoint_parity,
                    route=self.routing.for_node(child),
                    arbiter_factory=self._arbiter_factory_for(child_node),
                    in_channel_overrides={PARENT_PORT: down_chs[-1]},
                    out_channel_overrides={PARENT_PORT: up_chs[0]},
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

    #: A handshake link stage and the sink NI's latch take a tick each.
    link_stage_ticks = 1
    endpoint_ticks = 1

    def router_ticks(self) -> list[int]:
        return [router.forward_latency_ticks for router in self.routers]

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
            f"({self.topology.max_ports}x{self.topology.max_ports}), "
            f"{self.link_stage_count} link stages, "
            f"f_max {self.operating_frequency_ghz():.3f} GHz"
        )
