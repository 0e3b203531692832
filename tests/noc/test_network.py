"""Full network assembly: delivery, latency, clocking, specs, area counts."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.fabric.registry import FabricConfig
from repro.noc.floorplan import segment_count
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.tech.technology import TECH_90NM
from repro.timing.frequency import pipeline_max_frequency, router_max_frequency


@pytest.fixture(scope="module")
def net16():
    """A small binary network shared by read-only tests."""
    return ICNoCNetwork(FabricConfig(ports=16, arity=2))


class TestConstruction:
    def test_demonstrator_shape(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        assert net.topology.router_count == 63
        assert len(net.nis) == 64
        # Root and level-2 links (2.5 mm) get one stage per direction.
        assert net.link_stage_count == 12
        assert net.pipeline_stage_count == 12 + 64

    def test_quad_shape(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=4))
        assert net.topology.router_count == 5
        assert net.topology.max_ports == 5

    def test_longest_segment_capped(self, net16):
        assert net16.longest_segment_mm() <= 1.25 + 1e-9

    def test_operating_frequency_near_1ghz(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        assert net.operating_frequency_ghz() == pytest.approx(1.0, rel=0.01)

    def test_smaller_chip_runs_faster(self):
        # Shorter links -> shorter segments -> higher f (up to router cap).
        small = ICNoCNetwork(FabricConfig(ports=16, arity=2,
                                           chip_width_mm=4.0,
                                           chip_height_mm=4.0))
        assert small.operating_frequency_ghz() > 1.0

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown allocator"):
            FabricConfig(ports=16, allocator="magic")

    def test_local_priority_needs_binary(self):
        with pytest.raises(ConfigurationError, match="arity 4"):
            FabricConfig(ports=16, arity=4, allocator="local_priority")


class TestOperatingFrequency:
    """``operating_frequency_ghz`` is the one network frequency rule:
    the slower of the router critical path and Fig. 7's curve at the
    longest segment."""

    def test_router_binds_when_links_short(self):
        # 0.5 mm segments allow ~1.47 GHz; the 3x3 router caps at 1.4.
        net = FabricConfig(ports=16, chip_width_mm=2.0,
                           chip_height_mm=2.0).build()
        assert pipeline_max_frequency(net.longest_segment_mm()) > 1.4
        assert net.operating_frequency_ghz() == pytest.approx(
            router_max_frequency(net.topology.max_ports), rel=1e-12)
        assert net.operating_frequency_ghz() == pytest.approx(1.4, rel=1e-4)

    def test_links_bind_when_long(self):
        # The demonstrator's 1.25 mm segments hold it below the router.
        net = FabricConfig().build()
        f = net.operating_frequency_ghz()
        assert f == pytest.approx(
            pipeline_max_frequency(net.longest_segment_mm()), rel=1e-12)
        assert f < router_max_frequency(net.topology.max_ports)

    def test_derated_technology_lowers_frequency(self):
        nominal = FabricConfig(ports=16).build().operating_frequency_ghz()
        slow = FabricConfig(ports=16, tech=TECH_90NM.derated(1.5)).build()
        assert slow.operating_frequency_ghz() == pytest.approx(nominal / 1.5)


class TestClockDistribution:
    def test_every_router_in_clock_tree(self, net16):
        for router in net16.routers:
            assert router.name in net16.clock_tree

    def test_every_ni_in_clock_tree(self, net16):
        for leaf in range(16):
            assert f"ni{leaf}" in net16.clock_tree

    def test_polarity_matches_parity(self, net16):
        """The clock tree's inversion count IS the simulation parity."""
        for router in net16.routers:
            assert net16.clock_tree.polarity(router.name) == \
                router.input_parity
        for ni in net16.nis:
            assert net16.clock_tree.polarity(f"ni{ni.leaf}") == \
                ni.source.parity

    def test_adjacent_levels_alternate(self, net16):
        topo = net16.topology
        for router in net16.routers:
            if router.node.parent is None:
                continue
            # Zero-stage links flip parity between parent and child...
            parent = net16.routers[router.node.parent]
            tree = net16.clock_tree
            hops = tree.depth(router.name) - tree.depth(parent.name)
            expected = parent.input_parity ^ (hops % 2)
            assert router.input_parity == expected

    def test_insertion_delay_grows_with_depth(self, net16):
        tree = net16.clock_tree
        assert tree.insertion_delay("r0") == 0.0
        leaf_delays = [tree.insertion_delay(f"ni{leaf}")
                       for leaf in range(16)]
        assert min(leaf_delays) > 0.0

    def test_alternation_validates(self, net16):
        net16.clock_tree.validate_alternation()


class TestChannelSpecs:
    def test_two_specs_per_segment(self, net16):
        total_segments = 0
        for node in net16.topology.routers:
            for slot in range(len(node.children)):
                length = net16.floorplan.link_length(node.index, slot + 1)
                total_segments += segment_count(
                    length, net16.config.max_segment_mm)
        assert len(net16.channel_specs) == 2 * total_segments

    def test_specs_paired_down_up(self, net16):
        downs = [s for s in net16.channel_specs if s.downstream]
        ups = [s for s in net16.channel_specs if not s.downstream]
        assert len(downs) == len(ups)

    def test_nominal_specs_are_matched(self, net16):
        for spec in net16.channel_specs:
            assert spec.with_clock_skew == pytest.approx(0.0)
            assert spec.against_clock_skew > 0.0


class TestDelivery:
    def test_single_packet(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        net.send(Packet(src=0, dest=7, payload=[42]))
        assert net.drain(5000)
        delivered = net.delivered
        assert len(delivered) == 1
        assert delivered[0].payload == [42]

    def test_all_pairs_deliver(self):
        """Every (src, dest) pair reaches its destination — routing
        correctness over the whole tree."""
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        expected = {}
        for src in range(8):
            for dest in range(8):
                if src != dest:
                    packet = Packet(src=src, dest=dest)
                    expected[packet.packet_id] = (src, dest)
                    net.send(packet)
        assert net.drain(100_000)
        seen = {p.packet_id: (p.src, p.dest) for p in net.delivered}
        assert seen == expected

    def test_delivered_at_correct_ni(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        net.send(Packet(src=1, dest=6))
        net.drain(5000)
        assert len(net.nis[6].delivered) == 1
        for leaf in (0, 1, 2, 3, 4, 5, 7):
            assert net.nis[leaf].delivered == []

    def test_latency_recorded(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        net.send(Packet(src=0, dest=1))
        net.drain(5000)
        assert net.stats.packets_delivered == 1
        assert net.stats.latencies_cycles[0] > 0.0

    def test_sibling_beats_cross_tree(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        sibling = Packet(src=0, dest=1)
        cross = Packet(src=0, dest=15)
        net.send(sibling)
        net.send(cross)
        net.drain(10_000)
        by_dest = {p.dest: p for p in net.delivered}
        assert by_dest[1].latency_cycles < by_dest[15].latency_cycles

    def test_self_send_rejected(self, net16):
        with pytest.raises(TopologyError):
            net16.send(Packet(src=3, dest=3))

    def test_unknown_dest_rejected(self, net16):
        with pytest.raises(TopologyError):
            net16.send(Packet(src=0, dest=99))

    def test_handler_called(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        calls = []
        net.set_handler(5, lambda packet, tick: calls.append(
            (packet.src, tick)
        ))
        net.send(Packet(src=2, dest=5))
        net.drain(5000)
        assert len(calls) == 1
        assert calls[0][0] == 2

    def test_hop_counts_recorded(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        net.send(Packet(src=0, dest=1))  # sibling: 1 hop
        net.drain(5000)
        assert net.stats.hop_counts == [1]


class TestZeroLoadLatency:
    def test_sibling_latency_is_router_plus_interfaces(self):
        """One 3x3 router (1.5 cycles) + NI launch + leaf links."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        net.send(Packet(src=0, dest=1))
        net.drain(5000)
        latency = net.delivered[0].latency_cycles
        # 1 tick NI->router + 3 ticks router + 1 tick router->NI sink,
        # measured from the injection edge: 4..5 cycles is the honest
        # envelope with parity alignment.
        assert 1.5 <= latency <= 5.0

    def test_worst_case_scales_with_hops(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        net.send(Packet(src=0, dest=63))
        net.drain(5000)
        latency_cycles = net.delivered[0].latency_cycles
        hops = net.topology.hop_count(0, 63)
        # 11 routers x 1.5 cycles = 16.5 plus link stages and NI: < 25.
        assert hops * 1.5 <= latency_cycles <= hops * 1.5 + 8.0
