"""Cross-validation between independent implementations of the same facts.

Wherever the library computes a quantity two different ways (closed form
vs simulation, structural vs geometric), they must agree — these tests tie
the subsystems together.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.topology import TreeTopology
from repro.physical.descriptor import physical_model
from repro.timing.frequency import (
    max_segment_length,
    pipeline_max_frequency,
)


class TestModelVsSimulation:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=1, max_value=4))
    def test_latency_model_random_pairs(self, src, dest, flits):
        if src == dest:
            return
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        payload = list(range(flits)) if flits > 1 else []
        net.send(Packet(src=src, dest=dest, payload=payload))
        assert net.drain(20_000)
        assert net.delivered[0].latency_ticks == \
            net.zero_load_latency_ticks([src], [dest], flits)[0]


class TestStructuralVsGeometric:
    def test_route_path_length_matches_energy_links(self):
        """The energy model's per-path link list must cover exactly the
        links the router-path implies: hops+1 links (two leaf stubs plus
        one link per adjacent router pair)."""
        net = ICNoCNetwork(FabricConfig(ports=32, arity=2))
        topo = net.topology
        model = physical_model(net)
        for src, dest in ((0, 1), (0, 31), (5, 20), (16, 17)):
            hops = topo.hop_count(src, dest)
            links = model.path(src, dest).link_lengths_mm
            assert len(links) == hops + 1

    def test_total_wire_equals_sum_of_levels(self):
        """Floorplan total equals the closed-form H-tree series."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        # levels: 2@2.5 + 4@2.5 + 8@1.25 + 16@1.25 + 32@0.625 + 64@0.625
        expected = 2 * 2.5 + 4 * 2.5 + 8 * 1.25 + 16 * 1.25 \
            + 32 * 0.625 + 64 * 0.625
        assert net.floorplan.total_link_length_mm() == pytest.approx(
            expected
        )


class TestFrequencyConsistency:
    def test_operating_point_is_fixed_point(self):
        """f_op derived from the longest segment must be reproduced when
        the segment implied by f_op is fed back through the model."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        f_op = net.operating_frequency_ghz()
        segment = net.longest_segment_mm()
        assert pipeline_max_frequency(segment) == pytest.approx(f_op)
        assert max_segment_length(f_op) == pytest.approx(segment, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.5, max_value=2.4))
    def test_segment_cap_never_exceeds_requested(self, cap):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2,
                                         max_segment_mm=cap))
        assert net.longest_segment_mm() <= cap + 1e-9

    def test_router_count_arithmetic(self):
        """(N-1)/(arity-1) routers — structural identity per arity."""
        for arity, leaves in ((2, 64), (4, 64), (2, 128), (4, 256)):
            topo = TreeTopology(leaves, arity)
            assert topo.router_count == (leaves - 1) // (arity - 1)
