"""Shared endpoint adapters for credit-based fabrics.

Every synchronous fabric attaches hosts the same way: a
:class:`FabricSource` injecting packets (as flits, under credits) into a
router's local input port, and a :class:`FabricSink` draining the local
output port, returning credits, and reassembling packets. Both adapters
serve every VC count — a source injects on its policy-assigned
``vc`` (0 on single-VC fabrics), a sink returns credits on whatever VC
each flit arrives on — and both implement the idle-component sleep
contract once, for every topology in the registry: a quiet endpoint is a
fixed point the activity-driven kernel skips, and the sink emits the
standard ``"flit"`` / ``"packet"`` kernel events congestion diagnosis
subscribes to.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.fabric.link import LINK_LATENCY_TICKS, CreditLink
from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel


class FabricSource(ClockedComponent):
    """Injects flits into a router's local input port under credits."""

    def __init__(self, kernel: SimKernel, name: str, link: CreditLink,
                 credits: int, vc: int = 0, register: bool = True):
        super().__init__(name, parity=0)
        self.link = link
        self.vc = vc
        self.credits = credits
        self.flits: deque[Flit] = deque()
        self.packets: deque[Packet] = deque()
        # The two wires on_edge drives and reads, under CreditLink's wire
        # protocol: flits out on the first segment, credits back on vc.
        self._flit_wire = link.flit_in
        self._credit_wire = link.credits[vc]
        self._tag_vc = link.n_vcs > 1
        # register=False leaves the endpoint unscheduled (the array
        # backend executes its semantics instead); state is identical.
        if register:
            kernel.add_component(self)

    def submit(self, packet: Packet) -> None:
        self.packets.append(packet)
        self.wake()

    @property
    def idle(self) -> bool:
        return not self.flits and not self.packets

    def on_edge(self, tick: int) -> None:
        active = False
        payload = self._credit_wire.value
        if payload and payload[1] == tick - LINK_LATENCY_TICKS and payload[0]:
            self.credits += payload[0]
            active = True
        if not self.flits and self.packets:
            packet = self.packets.popleft()
            packet.inject_tick = tick
            self.flits.extend(packet.to_flits())
        if self.flits and self.credits > 0:
            flit = self.flits.popleft()
            self._flit_wire.set(
                ((flit, self.vc) if self._tag_vc else flit, tick), tick)
            self.credits -= 1
        elif not active:
            # Nothing sendable (empty, or out of credits) and no credit
            # arrived: wait for a credit return or the next submit().
            self.sleep_until(self._credit_wire)


class FabricSink(ClockedComponent):
    """Drains a router's local output port, returning credits per VC."""

    def __init__(self, kernel: SimKernel, name: str, link: CreditLink,
                 on_packet: Callable[[Packet, int], None],
                 register: bool = True):
        super().__init__(name, parity=0)
        self.link = link
        self.on_packet = on_packet
        self._assembly: dict[int, list[Flit]] = {}
        self.flits_received = 0
        # The wires on_edge reads and drives, under CreditLink's wire
        # protocol: flits in on the last segment, credits back per VC.
        self._flit_wire = link.flit
        self._credit_wires = tuple(link.credits_out)
        self._tag_vc = link.n_vcs > 1
        if register:
            kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        payload = self._flit_wire.value
        if payload is None or payload[1] != tick - LINK_LATENCY_TICKS:
            # No arrival: wait for the next flit.
            self.sleep_until(self._flit_wire)
            return
        if self._tag_vc:
            flit, vc = payload[0]
        else:
            flit, vc = payload[0], 0
        self.flits_received += 1
        kernel = self._kernel
        observed = kernel._event_subs
        if observed and "flit" in observed:
            kernel.emit("flit", flit)
        buffer = self._assembly.setdefault(flit.packet_id, [])
        buffer.append(flit)
        if flit.is_tail:
            del self._assembly[flit.packet_id]
            packet = Packet.from_flits(buffer)
            packet.eject_tick = tick
            self.on_packet(packet, tick)
            if observed and "packet" in observed:
                kernel.emit("packet", packet)
        # One credit back on the arriving flit's VC.
        self._credit_wires[vc].set((1, tick), tick)
