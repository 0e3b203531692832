"""Network interfaces: packetisation, reassembly, bookkeeping."""

import pytest

from repro.errors import ProtocolError
from repro.noc.handshake import HandshakeChannel
from repro.noc.ni import NetworkInterface, NISink, NISource
from repro.noc.packet import Packet
from repro.noc.pipeline import PipelineStage, SinkStage, SourceStage
from repro.sim.kernel import SimKernel


def loopback_ni(stages=1):
    """An NI whose egress feeds its own ingress through a pipeline."""
    kernel = SimKernel()
    channels = [HandshakeChannel(kernel, f"c{i}") for i in range(stages + 1)]
    parity = 0
    stage_list = []
    for i in range(stages):
        stage_list.append(PipelineStage(kernel, f"s{i}", parity ^ 1,
                                        channels[i], channels[i + 1]))
        parity ^= 1
    ni = NetworkInterface(
        kernel, leaf=0,
        to_network=channels[0], from_network=channels[stages],
        source_parity=0, sink_parity=parity ^ 1,
    )
    return kernel, ni


class TestNISource:
    def test_submits_and_serialises(self):
        kernel, ni = loopback_ni()
        # dest must equal this leaf for reassembly at the same NI; the NI
        # does not validate dest (the network routes), so loopback works.
        ni.source.submit(Packet(src=0, dest=0, payload=[1, 2, 3]))
        kernel.run_ticks(40)
        assert ni.source.flits_sent == 3
        assert ni.source.idle

    def test_inject_tick_recorded(self):
        kernel, ni = loopback_ni()
        packet = Packet(src=0, dest=0, payload=[5])
        ni.source.submit(packet)
        kernel.run_ticks(10)
        assert packet.inject_tick is not None

    def test_queue_depth(self):
        kernel, ni = loopback_ni()
        for _ in range(3):
            ni.source.submit(Packet(src=0, dest=0))
        assert ni.source.queue_depth >= 2  # one may be in flight already

    def test_wrong_src_rejected(self):
        kernel, ni = loopback_ni()
        with pytest.raises(ProtocolError):
            ni.submit(Packet(src=3, dest=0))


class TestNISink:
    def test_reassembles_multiflit_packet(self):
        kernel, ni = loopback_ni()
        delivered = []
        ni.sink.on_packet = lambda packet, tick: delivered.append(packet)
        ni.source.submit(Packet(src=0, dest=0, payload=[7, 8, 9]))
        kernel.run_ticks(40)
        assert len(delivered) == 1
        assert delivered[0].payload == [7, 8, 9]
        assert ni.sink.incomplete == 0

    def test_interleaved_packets_reassembled(self):
        """Two sources into one sink: reassembly keyed by packet id."""
        kernel = SimKernel()
        ch_a = HandshakeChannel(kernel, "a")
        ch_b = HandshakeChannel(kernel, "b")
        merged = HandshakeChannel(kernel, "m")
        src_a = SourceStage(kernel, "sa", 0, ch_a)
        src_b = SourceStage(kernel, "sb", 0, ch_b)

        # A toy merger alternating between the two inputs flit by flit —
        # this interleaves packets, which real routers never do; the sink's
        # id-keyed buffers must still cope.
        from repro.sim.component import ClockedComponent

        class Merger(ClockedComponent):
            def __init__(self):
                super().__init__("merge", 1)
                self.turn = 0
                self.holding = None
                kernel.add_component(self)

            def on_edge(self, tick):
                if self.holding is not None and merged.accepted:
                    self.holding = None
                picked = None
                if self.holding is None:
                    for offset in range(2):
                        channel = (ch_a, ch_b)[(self.turn + offset) % 2]
                        if channel.valid:
                            picked = channel
                            break
                    for channel in (ch_a, ch_b):
                        channel.respond(channel is picked, tick)
                    if picked is not None:
                        self.holding = picked.data
                        self.turn ^= 1
                else:
                    ch_a.respond(False, tick)
                    ch_b.respond(False, tick)
                merged.drive(self.holding, tick)

        Merger()
        delivered = []
        sink = NISink(kernel, "sink", 0, merged,
                      on_packet=lambda packet, tick: delivered.append(packet))
        pkt_a = Packet(src=0, dest=0, payload=[1, 2, 3])
        pkt_b = Packet(src=1, dest=0, payload=[4, 5, 6])
        src_a.send(pkt_a.to_flits())
        src_b.send(pkt_b.to_flits())
        kernel.run_ticks(100)
        assert len(delivered) == 2
        payloads = {p.packet_id: p.payload for p in delivered}
        assert payloads[pkt_a.packet_id] == [1, 2, 3]
        assert payloads[pkt_b.packet_id] == [4, 5, 6]

    def test_on_packet_callback(self):
        kernel = SimKernel()
        channel = HandshakeChannel(kernel, "c")
        src = SourceStage(kernel, "s", 0, channel)
        seen = []
        sink = NISink(kernel, "k", 1, channel,
                      on_packet=lambda p, t: seen.append((p.payload, t)))
        src.send(Packet(src=0, dest=0, payload=[11]).to_flits())
        kernel.run_ticks(20)
        assert seen == [([11], 1)]
