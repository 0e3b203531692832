"""Property tests on the whole network: random traffic always delivers
exactly once, in per-source order, with correct payloads."""

from hypothesis import given, settings, strategies as st

from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet


@st.composite
def traffic(draw):
    leaves = draw(st.sampled_from([4, 8, 16]))
    n_packets = draw(st.integers(min_value=1, max_value=25))
    packets = []
    for _ in range(n_packets):
        src = draw(st.integers(min_value=0, max_value=leaves - 1))
        dest = draw(st.integers(min_value=0, max_value=leaves - 2))
        if dest >= src:
            dest += 1
        size = draw(st.integers(min_value=0, max_value=4))
        packets.append((src, dest, list(range(size))))
    return leaves, packets


class TestNetworkInvariants:
    @settings(max_examples=25, deadline=None)
    @given(traffic())
    def test_exactly_once_delivery(self, case):
        leaves, packet_specs = case
        net = ICNoCNetwork(FabricConfig(ports=leaves, arity=2))
        sent = {}
        for src, dest, payload in packet_specs:
            packet = Packet(src=src, dest=dest, payload=payload)
            sent[packet.packet_id] = (src, dest, payload if payload else [0])
            net.send(packet)
        assert net.drain(200_000), "network failed to drain"
        delivered = net.delivered
        assert len(delivered) == len(sent)
        for packet in delivered:
            src, dest, payload = sent[packet.packet_id]
            assert packet.src == src
            assert packet.dest == dest
            assert packet.payload == payload

    @settings(max_examples=15, deadline=None)
    @given(traffic())
    def test_per_source_pair_ordering(self, case):
        """Wormhole + deterministic routing preserve order between any
        fixed (src, dest) pair."""
        leaves, packet_specs = case
        net = ICNoCNetwork(FabricConfig(ports=leaves, arity=2))
        order = {}
        for src, dest, payload in packet_specs:
            packet = Packet(src=src, dest=dest, payload=payload)
            order.setdefault((src, dest), []).append(packet.packet_id)
            net.send(packet)
        assert net.drain(200_000)
        arrival = {packet.packet_id: (packet.eject_tick, position)
                   for position, packet in enumerate(net.delivered)}
        for pair_ids in order.values():
            ejects = [arrival[pid] for pid in pair_ids]
            assert ejects == sorted(ejects)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_quad_tree_uniform_burst(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        net = ICNoCNetwork(FabricConfig(ports=16, arity=4))
        n = 20
        for _ in range(n):
            src = int(rng.integers(0, 16))
            dest = int(rng.integers(0, 15))
            if dest >= src:
                dest += 1
            net.send(Packet(src=src, dest=dest))
        assert net.drain(100_000)
        assert net.stats.packets_delivered == n
