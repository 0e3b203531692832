"""Mesh simulation: delivery, ordering, buffering, comparison hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet


def mesh(cols, rows, **kwargs):
    return FabricConfig(topology="mesh", ports=cols * rows, rows=rows,
                        **kwargs).build()


class TestDelivery:
    def test_single_packet(self):
        net = mesh(4, 4)
        net.send(Packet(src=0, dest=15, payload=[7]))
        assert net.drain(10_000)
        assert net.delivered[0].payload == [7]

    def test_all_pairs_deliver(self):
        net = mesh(3, 3)
        count = 0
        for src in range(9):
            for dest in range(9):
                if src != dest:
                    net.send(Packet(src=src, dest=dest))
                    count += 1
        assert net.drain(200_000)
        assert net.stats.packets_delivered == count

    def test_multiflit_packets(self):
        net = mesh(4, 4)
        net.send(Packet(src=0, dest=12, payload=[1, 2, 3, 4, 5]))
        assert net.drain(10_000)
        assert net.delivered[0].payload == [1, 2, 3, 4, 5]

    def test_latency_scales_with_distance(self):
        net = mesh(8, 8)
        near = Packet(src=0, dest=1)
        far = Packet(src=0, dest=63)
        net.send(near)
        net.send(far)
        net.drain(20_000)
        by_dest = {p.dest: p for p in net.delivered}
        assert by_dest[1].latency_cycles < by_dest[63].latency_cycles

    def test_two_cycles_per_hop_zero_load(self):
        net = mesh(8, 8)
        net.send(Packet(src=0, dest=63))
        net.drain(20_000)
        hops = net.topology.hop_count(0, 63)
        latency = net.delivered[0].latency_cycles
        assert 2 * hops - 2 <= latency <= 2 * hops + 4

    def test_self_send_rejected(self):
        net = mesh(2, 2)
        with pytest.raises(TopologyError):
            net.send(Packet(src=0, dest=0))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_random_burst_exactly_once(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        net = mesh(4, 4)
        ids = set()
        for _ in range(30):
            src = int(rng.integers(0, 16))
            dest = int(rng.integers(0, 15))
            if dest >= src:
                dest += 1
            packet = Packet(src=src, dest=dest,
                            payload=list(range(int(rng.integers(0, 4)))))
            ids.add(packet.packet_id)
            net.send(packet)
        assert net.drain(300_000)
        assert {p.packet_id for p in net.delivered} == ids


class TestBuffers:
    def test_total_buffer_flits_counts_stall_buffers(self):
        """The mesh pays buffer_depth slots per in-use port — the cost the
        IC-NoC's flow control avoids entirely."""
        net = mesh(2, 2, buffer_depth=4)
        # 4 corner routers with 3 ports each (local + 2 neighbours).
        assert net.total_buffer_flits() == 4 * 3 * 4

    def test_deeper_buffers_more_area(self):
        shallow = mesh(2, 2, buffer_depth=2)
        deep = mesh(2, 2, buffer_depth=8)
        assert deep.total_buffer_flits() > shallow.total_buffer_flits()


class TestGating:
    def test_mesh_routers_also_gate_when_idle(self):
        net = mesh(3, 3)
        net.run_ticks(100)
        stats = net.gating_stats()
        assert stats.edges_enabled == 0
