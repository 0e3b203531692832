"""The credit and concentrated fabrics end to end: the mesh baseline,
torus, ring, concentrated tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet


def all_pairs(net, ports, max_ticks=500_000):
    count = 0
    for src in range(ports):
        for dest in range(ports):
            if src != dest:
                net.send(Packet(src=src, dest=dest))
                count += 1
    assert net.drain(max_ticks)
    return count


class TestTorus:
    def test_all_pairs_deliver(self):
        net = FabricConfig(topology="torus", ports=9).build()
        count = all_pairs(net, 9)
        assert net.stats.packets_delivered == count

    def test_wrap_link_shortens_path(self):
        torus = FabricConfig(topology="torus", ports=16).build()
        mesh = FabricConfig(topology="mesh", ports=16).build()
        torus.send(Packet(src=0, dest=3))
        mesh.send(Packet(src=0, dest=3))
        torus.drain(20_000)
        mesh.drain(20_000)
        assert torus.delivered[0].latency_cycles \
            < mesh.delivered[0].latency_cycles

    def test_multiflit_packets(self):
        net = FabricConfig(topology="torus", ports=16).build()
        net.send(Packet(src=0, dest=15, payload=[1, 2, 3]))
        assert net.drain(20_000)
        assert net.delivered[0].payload == [1, 2, 3]

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_random_burst_exactly_once(self, seed):
        rng = np.random.default_rng(seed)
        net = FabricConfig(topology="torus", ports=9).build()
        ids = set()
        for _ in range(25):
            src = int(rng.integers(0, 9))
            dest = int(rng.integers(0, 8))
            if dest >= src:
                dest += 1
            packet = Packet(src=src, dest=dest,
                            payload=list(range(int(rng.integers(0, 3)))))
            ids.add(packet.packet_id)
            net.send(packet)
        assert net.drain(300_000)
        assert {p.packet_id for p in net.delivered} == ids


class TestRing:
    def test_all_pairs_deliver(self):
        net = FabricConfig(topology="ring", ports=8).build()
        count = all_pairs(net, 8)
        assert net.stats.packets_delivered == count

    def test_takes_shortest_side(self):
        net = FabricConfig(topology="ring", ports=12).build()
        near_wrap = Packet(src=0, dest=11)   # 1 hop counter-clockwise
        far = Packet(src=0, dest=6)          # 6 hops either way
        net.send(near_wrap)
        net.send(far)
        assert net.drain(50_000)
        by_dest = {p.dest: p for p in net.delivered}
        assert by_dest[11].latency_cycles < by_dest[6].latency_cycles

    def test_heavy_contention_survives(self):
        """Everyone floods one hotspot — the bubble rule must keep the
        ring live instead of wedging a full cycle of FIFOs."""
        net = FabricConfig(topology="ring", ports=6).build()
        for wave in range(10):
            for src in range(1, 6):
                net.send(Packet(src=src, dest=0, payload=[wave]))
        assert net.drain(500_000)
        assert net.stats.packets_delivered == 50

    def test_gates_when_idle(self):
        net = FabricConfig(topology="ring", ports=6).build()
        net.run_ticks(100)
        assert net.gating_stats().edges_enabled == 0


class TestConcentratedTree:
    def test_cross_leaf_traffic_routes_through_tree(self):
        net = FabricConfig(topology="ctree", ports=16, concentration=4).build()
        net.send(Packet(src=0, dest=13))  # leaf 0 -> leaf 3
        assert net.drain(20_000)
        packet = net.delivered[0]
        assert packet.dest == 13
        # The ctree's hop_count takes endpoint addresses: leaf 0 -> leaf
        # 3 of a 4-leaf binary tree climbs to the root, 3 routers.
        assert net.stats.hop_counts == [net.topology.hop_count(0, 13)] == [3]

    def test_same_leaf_endpoints_deliver_locally(self):
        net = FabricConfig(topology="ctree", ports=16, concentration=4).build()
        net.send(Packet(src=0, dest=3, payload=[9]))  # both under leaf 0
        assert net.drain(1_000)
        packet = net.delivered[0]
        assert packet.payload == [9]
        assert packet.latency_cycles == 1.0  # one-cycle concentrator mux
        # Hop convention: the mux is one switching element, so the local
        # turnaround records 1 hop (0 would deflate mean-hop stats).
        assert net.stats.hop_counts == [1]

    def test_all_pairs_deliver(self):
        net = FabricConfig(topology="ctree", ports=16, concentration=4).build()
        count = all_pairs(net, 16)
        assert net.stats.packets_delivered == count

    def test_handlers_keyed_by_endpoint(self):
        net = FabricConfig(topology="ctree", ports=16, concentration=4).build()
        got = []
        net.set_handler(13, lambda packet, tick: got.append(packet.dest))
        net.set_handler(14, lambda packet, tick: got.append(packet.dest))
        net.send(Packet(src=0, dest=13))
        net.send(Packet(src=1, dest=14))  # same NI, distinct handler
        assert net.drain(20_000)
        assert sorted(got) == [13, 14]
        with pytest.raises(TopologyError):
            net.set_handler(16, lambda packet, tick: None)

    def test_endpoint_bounds_checked(self):
        net = FabricConfig(topology="ctree", ports=16, concentration=4).build()
        with pytest.raises(TopologyError):
            net.send(Packet(src=0, dest=16))
        with pytest.raises(TopologyError):
            net.send(Packet(src=3, dest=3))

    def test_fewer_routers_than_flat_tree(self):
        ctree = FabricConfig(topology="ctree", ports=16,
                             concentration=4).build()
        tree = FabricConfig(topology="tree", ports=16).build()
        assert len(ctree.routers) < len(tree.routers)
        assert ctree.endpoints == tree.topology.leaves

    def test_concentration_validated(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ctree", ports=4, concentration=0)

    def test_describe_mentions_concentration(self):
        net = FabricConfig(topology="ctree", ports=16, concentration=4).build()
        assert "concentration 4" in net.describe()


class TestSharedBuffers:
    def test_torus_pays_more_buffers_than_mesh(self):
        torus = FabricConfig(topology="torus", ports=16).build()
        mesh = FabricConfig(topology="mesh", ports=16).build()
        # Wrap links put every router at the full 5 in-use ports.
        assert torus.total_buffer_flits() > mesh.total_buffer_flits()

    def test_describe(self):
        for topology, ports in (("mesh", 16), ("torus", 16), ("ring", 6)):
            net = FabricConfig(topology=topology, ports=ports).build()
            assert topology in net.describe()


class TestBubbleBound:
    """send() enforces the virtual cut-through condition the bubble
    rule's deadlock-freedom argument needs: a packet must fit one FIFO
    with a slot to spare."""

    @pytest.mark.parametrize("name,ports", [("torus", 16), ("ring", 8)])
    def test_oversized_packet_rejected_loudly(self, name, ports):
        net = FabricConfig(topology=name, ports=ports, buffer_depth=4).build()
        with pytest.raises(ConfigurationError):
            net.send(Packet(src=0, dest=1, payload=[1, 2, 3, 4]))

    def test_largest_legal_packet_delivers(self):
        net = FabricConfig(topology="torus", ports=16, buffer_depth=4).build()
        net.send(Packet(src=0, dest=5, payload=[1, 2]))  # 3 flits
        assert net.drain(20_000)

    def test_acyclic_fabrics_unbounded(self):
        net = FabricConfig(topology="mesh", ports=16, buffer_depth=4).build()
        net.send(Packet(src=0, dest=5, payload=list(range(10))))
        assert net.drain(20_000)


def mesh(cols, rows, **kwargs):
    return FabricConfig(topology="mesh", ports=cols * rows, rows=rows,
                        **kwargs).build()


class TestMeshDelivery:
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
        hops = net.stats.hop_counts[0]
        latency = net.delivered[0].latency_cycles
        assert 2 * hops - 2 <= latency <= 2 * hops + 4

    def test_self_send_rejected(self):
        net = mesh(2, 2)
        with pytest.raises(TopologyError):
            net.send(Packet(src=0, dest=0))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16))
    def test_random_burst_exactly_once(self, seed):
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


class TestMeshBuffers:
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


class TestMeshGating:
    def test_mesh_routers_also_gate_when_idle(self):
        net = mesh(3, 3)
        net.run_ticks(100)
        stats = net.gating_stats()
        assert stats.edges_enabled == 0
