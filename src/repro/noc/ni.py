"""Network interfaces: packetisation at the leaves.

Each network port (leaf) has an NI with an egress half (packets -> flits,
injected through the standard handshake) and an ingress half (flits ->
reassembled packets, delivered to a callback). The NI registers are the
"pipeline stage per port" counted in the area model.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import ProtocolError
from repro.noc.flit import Flit
from repro.noc.handshake import HandshakeChannel
from repro.noc.packet import Packet
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel


class NISource(ClockedComponent):
    """Egress: serialises queued packets into the injection channel."""

    def __init__(self, kernel: SimKernel, name: str, parity: int,
                 downstream: HandshakeChannel):
        super().__init__(name, parity)
        self.downstream = downstream
        self._valid, self._data, self._accept = downstream.wires
        self._packets: deque[Packet] = deque()
        self._flits: deque[Flit] = deque()
        self._current: Packet | None = None
        self.driving: Flit | None = None
        self.flits_sent = 0
        self.packets_submitted = 0
        kernel.add_component(self)

    def submit(self, packet: Packet) -> None:
        self._packets.append(packet)
        self.packets_submitted += 1
        self.wake()

    @property
    def idle(self) -> bool:
        return (self.driving is None and not self._flits
                and not self._packets)

    @property
    def queue_depth(self) -> int:
        return len(self._packets)

    def on_edge(self, tick: int) -> None:
        if self.driving is not None and self._accept.value:
            self.flits_sent += 1
            self.driving = None
        if self.driving is None:
            if not self._flits and self._packets:
                self._current = self._packets.popleft()
                self._current.inject_tick = tick
                self._flits.extend(self._current.to_flits())
            if self._flits:
                self.driving = self._flits.popleft()
        self._valid.set(self.driving is not None, tick)
        self._data.set(self.driving, tick)
        if self.driving is None and not self._flits and not self._packets:
            # Empty egress: nothing happens until the next submit().
            self.sleep_until()


class NISink(ClockedComponent):
    """Ingress: reassembles arriving flits into packets.

    Always ready (the paper's demonstrator drains ejected traffic into
    local memories). Each reassembled packet goes to the optional
    ``on_packet`` callback: in a network, its delivery hook, which keeps
    the one record of what was delivered.
    """

    def __init__(self, kernel: SimKernel, name: str, parity: int,
                 upstream: HandshakeChannel,
                 on_packet: Callable[[Packet, int], None] | None = None):
        super().__init__(name, parity)
        self.upstream = upstream
        self._valid, self._data, self._accept = upstream.wires
        self.on_packet = on_packet
        self._assembly: dict[int, list[Flit]] = {}
        self.flits_received = 0
        kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        if not self._valid.value:
            self._accept.set(False, tick)
            self.sleep_until(self._valid)
            return
        flit = self._data.value
        self._accept.set(True, tick)
        self.flits_received += 1
        observed = self._kernel._event_subs
        if observed and "flit" in observed:
            self._kernel.emit("flit", flit)
        buffer = self._assembly.setdefault(flit.packet_id, [])
        buffer.append(flit)
        if flit.is_tail:
            del self._assembly[flit.packet_id]
            packet = Packet.from_flits(buffer)
            packet.eject_tick = tick
            if self.on_packet is not None:
                self.on_packet(packet, tick)
            if observed and "packet" in observed:
                self._kernel.emit("packet", packet)

    @property
    def incomplete(self) -> int:
        """Packets currently mid-reassembly."""
        return len(self._assembly)


class NetworkInterface:
    """One leaf port: an egress source plus an ingress sink."""

    def __init__(self, kernel: SimKernel, leaf: int,
                 to_network: HandshakeChannel,
                 from_network: HandshakeChannel,
                 source_parity: int, sink_parity: int,
                 on_packet: Callable[[Packet, int], None] | None = None):
        self.leaf = leaf
        self.source = NISource(kernel, f"ni{leaf}.src", source_parity,
                               to_network)
        self.sink = NISink(kernel, f"ni{leaf}.sink", sink_parity,
                           from_network, on_packet=on_packet)

    def submit(self, packet: Packet) -> None:
        if packet.src != self.leaf:
            raise ProtocolError(
                f"packet src {packet.src} submitted at leaf {self.leaf}"
            )
        self.source.submit(packet)
