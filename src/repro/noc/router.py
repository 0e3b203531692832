"""Wormhole tree routers: the paper's 3x3 and 5x5 designs.

A router is assembled from standard pipeline stages plus one
:class:`SwitchCore` that does routing, per-output arbitration and the
crossbar latch:

* 3x3 (binary tree): input stage -> switch -> output stage = 3 half-cycles
  = the paper's 1.5-cycle forward latency, at up to 1.4 GHz;
* 5x5 (quad tree): input -> pre -> switch -> post -> output = 5 half-cycles
  = 2.5 cycles, at up to 1.2 GHz (the extra stages pipeline the wider
  arbitration/crossbar for speed, as the paper's "routers are pipelined for
  optimal speed").

Port 0 is the parent link; ports 1..arity are the children, left to right.
Routing is deterministic up*/down*: if the destination leaf is inside this
router's range, descend through the matching child, else go to the parent.
Up*/down* routing in a tree has an acyclic channel-dependency graph, so
wormhole switching is deadlock-free.

The :class:`SwitchCore` emits the same ``arbitration_grant`` /
``lock_acquire`` / ``lock_release`` events as the credit-fabric routers
(cheap no-ops unobserved), under its own component name
(``<router>.switch``) — consumers like the :mod:`repro.telemetry`
registry and tracer map that back to the router, which keeps the tree
family on the same congestion-attribution path as the credit fabrics.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.clocking.gating import GatedComponentMixin, GatingStats
from repro.errors import ConfigurationError, RoutingError
from repro.noc.arbiter import Arbiter, RoundRobinArbiter
from repro.noc.flit import Flit
from repro.noc.handshake import HandshakeChannel
from repro.noc.pipeline import PipelineStage
from repro.noc.topology import RouterNode, TreeTopology
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel

#: Factory signature: (output_port, n_inputs) -> Arbiter.
ArbiterFactory = Callable[[int, int], Arbiter]


def round_robin_factory(output_port: int, n_inputs: int) -> Arbiter:
    return RoundRobinArbiter(n_inputs)


class SwitchCore(GatedComponentMixin, ClockedComponent):
    """Routing + arbitration + crossbar latch, one half-cycle.

    Holds one output register ("slot") per output port. Its edge:

    1. retires the slots whose downstream stage accepted;
    2. routes each valid input by destination through ``route`` (the
       router's :class:`~repro.fabric.routing.RouteMemo`; a port out of
       range or a U-turn raises) and files it under that output if the
       slot is free and the input is the wormhole's locked one or, with
       no lock, offers a head flit;
    3. serves those outputs in ascending order, a lone requester through
       :meth:`Arbiter.grant_only`, two or more through ``grant``, and
       latches each winner's flit;
    4. drives accept on every input and each slot downstream.
    """

    def __init__(self, kernel: SimKernel, name: str, parity: int,
                 inputs: Sequence[HandshakeChannel],
                 outputs: Sequence[HandshakeChannel],
                 route: Mapping[int, int],
                 arbiter_factory: ArbiterFactory = round_robin_factory):
        super().__init__(name, parity)
        if not inputs or not outputs:
            raise ConfigurationError("switch needs inputs and outputs")
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self._route = route
        self.slot_flit: list[Flit | None] = [None] * len(self.outputs)
        self.slot_valid = [False] * len(self.outputs)
        self.locks: list[int | None] = [None] * len(self.outputs)
        self.arbiters = [arbiter_factory(o, len(self.inputs))
                         for o in range(len(self.outputs))]
        self._gating = GatingStats()
        self.flits_switched = 0
        # (port, valid, data, accept) per channel, laid out once.
        self._in_wires = [(i, *ch.wires) for i, ch in enumerate(self.inputs)]
        self._out_wires = [(o, *ch.wires)
                           for o, ch in enumerate(self.outputs)]
        self._watch = ([ch.valid_signal for ch in self.inputs]
                       + [ch.accept_signal for ch in self.outputs])
        kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        enabled = False
        slot_valid, slot_flit = self.slot_valid, self.slot_flit
        # 1. Retire slots the downstream stages accepted half a cycle ago.
        for o, _, _, accept in self._out_wires:
            if slot_valid[o] and accept.value:
                slot_valid[o] = False
                enabled = True
        # 2. Route valid inputs; file the eligible ones per wanted output.
        wanted: dict[int, list[int]] = {}
        for i, valid, data, _ in self._in_wires:
            if not valid.value:
                continue
            flit = data.value
            o = self._route[flit.dest]
            if o == i or not 0 <= o < len(slot_valid):
                what = "U-turn on" if o == i else "bad route to"
                raise RoutingError(f"{self.name}: {what} port {o} for {flit}")
            lock = self.locks[o]
            if not slot_valid[o] and (lock == i
                                      or lock is None and flit.is_head):
                wanted.setdefault(o, []).append(i)
        # 3. Serve the wanted outputs in ascending order and latch.
        granted = 0  # bit i: input i's flit was latched
        for o in sorted(wanted) if wanted else ():
            requesters = wanted[o]
            if len(requesters) == 1:
                winner = self.arbiters[o].grant_only(requesters[0])
            else:
                winner = self.arbiters[o].grant(
                    [i in requesters for i in range(len(self.inputs))])
            flit = slot_flit[o] = self._in_wires[winner][2].value
            slot_valid[o] = True
            granted |= 1 << winner
            self.flits_switched += 1
            enabled = True
            observed = bool(self._kernel._event_subs)
            if observed:
                # Same congestion-diagnosis event the credit fabrics'
                # FabricRouter emits (cheap no-op unobserved).
                self._kernel.emit("arbitration_grant", {
                    "router": self.name, "output": o,
                    "input": winner, "flit": flit,
                })
            if flit.is_tail:
                self.locks[o] = None
                if observed and not flit.is_head:
                    self._kernel.emit("lock_release", {
                        "router": self.name, "output": o,
                        "input": winner, "packet_id": flit.packet_id,
                    })
            elif flit.is_head:
                self.locks[o] = winner
                if observed:
                    self._kernel.emit("lock_acquire", {
                        "router": self.name, "output": o,
                        "input": winner, "packet_id": flit.packet_id,
                    })
        # 4. Drive the wires.
        for i, _, _, accept in self._in_wires:
            accept.set(granted >> i & 1 == 1, tick)
        for o, valid, data, _ in self._out_wires:
            flit = slot_flit[o] if slot_valid[o] else None
            valid.set(flit is not None, tick)
            data.set(flit, tick)
        self.record_edge(tick, enabled)
        if not enabled:
            # No retire and no latch: every driven value just repeated the
            # committed one, and nothing can change until an input offers
            # a flit or a downstream stage acknowledges a slot.
            self.sleep_until(*self._watch)


class TreeRouter:
    """A k-port tree router assembled from stages around a switch core.

    Exposes, per port, the two external channels:

    * ``in_channels[p]`` — driven by the outside (the router consumes);
    * ``out_channels[p]`` — driven by the router (the outside consumes).

    ``input_parity`` is the clock polarity of the input (and output)
    register stages; the switch runs on the opposite edge. A router of
    five or more ports has one extra pass-through stage on each side of
    the switch: the 3x3 router takes 3 half-cycles, the 5x5 router 5.
    """

    def __init__(self, kernel: SimKernel, name: str, node: RouterNode,
                 topology: TreeTopology, input_parity: int,
                 arbiter_factory: ArbiterFactory = round_robin_factory,
                 in_channel_overrides: dict[int, HandshakeChannel] | None = None,
                 out_channel_overrides: dict[int, HandshakeChannel] | None = None,
                 route: Callable[[Flit], int] | None = None):
        self.name = name
        self.node = node
        self.topology = topology
        self.input_parity = input_parity
        # Routing is a pluggable strategy (repro.fabric.routing); the
        # default is the paper's up*/down* walk of this router's node.
        # Imported here: repro.fabric builds on this package (its
        # networks subclass repro.noc.network.Network), so repro.noc
        # must not import it while loading.
        from repro.fabric.routing import RouteMemo, tree_updown_route
        if route is None:
            route = tree_updown_route(topology, node, name=name)
        # Memoised per destination, like the credit routers' routes.
        self._route = RouteMemo(route)
        ports = node.ports
        self.extra_stages = extra_stages = 1 if ports >= 5 else 0

        in_overrides = in_channel_overrides or {}
        out_overrides = out_channel_overrides or {}
        self.in_channels = [
            in_overrides.get(p) or HandshakeChannel(kernel, f"{name}.in{p}")
            for p in range(ports)
        ]
        self.out_channels = [
            out_overrides.get(p) or HandshakeChannel(kernel, f"{name}.out{p}")
            for p in range(ports)
        ]

        parity = input_parity
        stage_in = self.in_channels
        self.input_stages: list[PipelineStage] = []
        self.pre_stages: list[PipelineStage] = []
        self.post_stages: list[PipelineStage] = []
        self.output_stages: list[PipelineStage] = []

        mid_in = [HandshakeChannel(kernel, f"{name}.i2s{p}") for p in range(ports)]
        for p in range(ports):
            self.input_stages.append(PipelineStage(
                kernel, f"{name}.instage{p}", parity,
                upstream=stage_in[p], downstream=mid_in[p],
            ))
        switch_in = mid_in
        switch_parity = parity ^ 1
        if extra_stages:
            pre_out = [HandshakeChannel(kernel, f"{name}.p2s{p}")
                       for p in range(ports)]
            for p in range(ports):
                self.pre_stages.append(PipelineStage(
                    kernel, f"{name}.prestage{p}", parity ^ 1,
                    upstream=mid_in[p], downstream=pre_out[p],
                ))
            switch_in = pre_out
            switch_parity = parity

        switch_out = [HandshakeChannel(kernel, f"{name}.s2o{p}")
                      for p in range(ports)]
        self.switch = SwitchCore(
            kernel, f"{name}.switch", switch_parity,
            inputs=switch_in, outputs=switch_out,
            route=self._route, arbiter_factory=arbiter_factory,
        )

        out_in = switch_out
        if extra_stages:
            post_out = [HandshakeChannel(kernel, f"{name}.s2p{p}")
                        for p in range(ports)]
            for p in range(ports):
                self.post_stages.append(PipelineStage(
                    kernel, f"{name}.poststage{p}", switch_parity ^ 1,
                    upstream=switch_out[p], downstream=post_out[p],
                ))
            out_in = post_out

        for p in range(ports):
            self.output_stages.append(PipelineStage(
                kernel, f"{name}.outstage{p}", input_parity,
                upstream=out_in[p], downstream=self.out_channels[p],
            ))

    @property
    def ports(self) -> int:
        return self.node.ports

    @property
    def forward_latency_ticks(self) -> int:
        """Half-cycles from input channel to output channel: 3 or 5."""
        return 3 + 2 * self.extra_stages

    def all_stages(self) -> list[PipelineStage]:
        return (self.input_stages + self.pre_stages + self.post_stages
                + self.output_stages)

    def gating_stats(self) -> GatingStats:
        """Aggregate gating over every register bank in the router."""
        total = GatingStats()
        for stage in self.all_stages():
            total.merge(stage.gating)
        total.merge(self.switch.gating)
        return total
