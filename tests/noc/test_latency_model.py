"""The analytical latency model must agree with the simulator exactly."""

import pytest

from repro.errors import TopologyError
from repro.noc.latency_model import (
    mean_latency_cycles_uniform,
    path_link_stage_count,
    worst_case_latency_cycles,
    zero_load_latency_cycles,
    zero_load_latency_ticks,
)
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet


def measure(net, src, dest, flits=1):
    payload = list(range(flits)) if flits > 1 else []
    packet = Packet(src=src, dest=dest, payload=payload)
    net.send(packet)
    assert net.drain(50_000)
    return packet.packet_id


class TestExactAgreement:
    def test_all_pairs_8_leaf_binary(self):
        """Tick-exact for every ordered pair of an 8-leaf binary tree."""
        for src in range(8):
            for dest in range(8):
                if src == dest:
                    continue
                net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
                measure(net, src, dest)
                predicted = zero_load_latency_ticks(net, src, dest)
                simulated = net.delivered[0].latency_ticks
                assert simulated == predicted, (src, dest)

    def test_all_pairs_16_leaf_quad(self):
        for src in range(0, 16, 3):
            for dest in range(16):
                if src == dest:
                    continue
                net = ICNoCNetwork(FabricConfig(ports=16, arity=4))
                measure(net, src, dest)
                assert net.delivered[0].latency_ticks == \
                    zero_load_latency_ticks(net, src, dest), (src, dest)

    def test_64_leaf_with_link_stages(self):
        """Paths crossing the pipelined 2.5 mm root links."""
        for src, dest in ((0, 63), (31, 32), (0, 1), (15, 48)):
            net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
            measure(net, src, dest)
            assert net.delivered[0].latency_ticks == \
                zero_load_latency_ticks(net, src, dest), (src, dest)

    def test_multiflit_packets(self):
        for flits in (1, 2, 5, 9):
            net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
            measure(net, 0, 7, flits=flits)
            assert net.delivered[0].latency_ticks == \
                zero_load_latency_ticks(net, 0, 7, flits=flits)


class TestModelStructure:
    def test_link_stage_count_cross_root(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        # 0 -> 63 climbs through a level-2 and level-1 link (1 stage each)
        # and descends the mirror pair: 4 stages.
        assert path_link_stage_count(net, 0, 63) == 4

    def test_link_stage_count_sibling(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        assert path_link_stage_count(net, 0, 1) == 0

    def test_flits_add_full_cycles(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        one = zero_load_latency_ticks(net, 0, 7, flits=1)
        four = zero_load_latency_ticks(net, 0, 7, flits=4)
        assert four == one + 6

    def test_same_leaf_rejected(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        with pytest.raises(TopologyError):
            zero_load_latency_ticks(net, 3, 3)

    def test_zero_flits_rejected(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        with pytest.raises(TopologyError):
            zero_load_latency_ticks(net, 0, 1, flits=0)


class TestAggregates:
    def test_worst_case_is_cross_tree(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        worst = worst_case_latency_cycles(net)
        assert worst == zero_load_latency_cycles(net, 0, 15)

    def test_mean_between_best_and_worst(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        mean = mean_latency_cycles_uniform(net)
        best = zero_load_latency_cycles(net, 0, 1)
        worst = worst_case_latency_cycles(net)
        assert best < mean < worst
