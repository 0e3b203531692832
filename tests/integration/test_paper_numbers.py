"""Every quantitative claim of the paper, checked in one place.

This is the reproduction scorecard: each test quotes the paper and asserts
our model/simulation agrees (tolerances noted where we deviate).
"""

import pytest

from repro.core.config import ICNoCConfig
from repro.core.icnoc import ICNoC
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.tech.flipflop import FF_90NM
from repro.tech.technology import TECH_90NM
from repro.timing.frequency import (
    max_segment_length,
    pipeline_max_frequency,
    router_max_frequency,
)
from repro.timing.link_timing import downstream_window, upstream_window


class TestSection4:
    def test_eq4_window_at_1ghz(self):
        """Eq. (4): -540 ps < delta_diff < 380 ps at 1 GHz."""
        low, high = downstream_window(FF_90NM, 500.0)
        assert (low, high) == (pytest.approx(-540.0), pytest.approx(380.0))

    def test_eq7_bound_at_1ghz(self):
        """Eq. (7): delta_sum < 380 ps at 1 GHz."""
        _, high = upstream_window(FF_90NM, 500.0)
        assert high == pytest.approx(380.0)

    def test_190ps_is_1_5_to_2mm(self):
        """'Dividing delta_sum equally ... each must maximally be 190 ps,
        this corresponds approximately to a 1.5-2 mm wire.'"""
        length = TECH_90NM.buffered_wire.length_for_delay(190.0)
        assert 1.5 <= length <= 2.0


class TestSection6Pipeline:
    def test_head_to_head_1_8ghz(self):
        """'the pipeline operates at up to 1.8 GHz'."""
        assert pipeline_max_frequency(0.0) == pytest.approx(1.8, rel=1e-3)

    def test_flow_control_logic_220ps(self):
        """'The flow control logic and registers alone take 220 ps.'"""
        assert TECH_90NM.pipeline_logic_ps == 220.0

    def test_stage_area(self):
        """'The area of a 32-bit pipeline stage is 0.0015 mm^2.'"""
        assert TECH_90NM.stage_area_mm2() == pytest.approx(0.0015)


class TestSection6Routers:
    def test_router_speeds(self):
        """'The 5x5 routers operate at 1.2 GHz, while 3x3 routers operate
        at 1.4 GHz.'"""
        assert router_max_frequency(3) == pytest.approx(1.4, rel=1e-3)
        assert router_max_frequency(5) == pytest.approx(1.2, rel=1e-3)

    def test_router_latencies(self):
        """'2 1/2 cycles per 5x5 router and 1 1/2 cycle per 3x3 router.'"""
        net2 = ICNoCNetwork(FabricConfig(ports=4, arity=2))
        net4 = ICNoCNetwork(FabricConfig(ports=16, arity=4))
        assert net2.routers[0].forward_latency_ticks == 3   # 1.5 cycles
        assert net4.routers[0].forward_latency_ticks == 5   # 2.5 cycles

    def test_optimal_segments(self):
        """'the optimal pipeline segment length is 0.9 mm when using 5x5
        routers and 0.6 mm when using 3x3 routers.'"""
        assert max_segment_length(1.4) == pytest.approx(0.6, rel=1e-3)
        assert max_segment_length(1.2) == pytest.approx(0.9, rel=1e-3)

    def test_router_areas(self):
        """'The area of a 5x5 router is 0.022 mm^2 while the area of a
        3x3 router is 0.010 mm^2.'"""
        assert TECH_90NM.router_area_mm2(3) == pytest.approx(0.010,
                                                             rel=1e-3)
        assert TECH_90NM.router_area_mm2(5) == pytest.approx(0.022,
                                                             rel=1e-3)


class TestSection6QuadVsBinary:
    def test_quad_lower_router_latency_than_two_binary(self):
        """'the latency of a 5x5 router is less than the latency of two
        3x3 routers' (2.5 < 2 x 1.5 cycles)."""
        assert 2.5 < 2 * 1.5

    def test_quad_lower_area_than_three_binary(self):
        """'the area of a 5x5 router is less than that of three 3x3
        routers'."""
        assert TECH_90NM.router_area_mm2(5) < 3 * TECH_90NM.router_area_mm2(3)

    def test_binary_better_adjacent_leaf_latency(self):
        """'the latency between adjacent leaf nodes is shorter; only 1 1/2
        cycles vs 2 1/2 cycles in a quad tree.'"""
        binary = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        quad = ICNoCNetwork(FabricConfig(ports=64, arity=4))
        assert binary.routers[0].forward_latency_ticks < \
            quad.routers[0].forward_latency_ticks

    def test_binary_root_links_shorter(self):
        """'the routers are more evenly spread out in a binary tree, so
        that links near the root are shorter'."""
        binary = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        quad = ICNoCNetwork(FabricConfig(ports=64, arity=4))
        assert binary.floorplan.longest_link_mm() < \
            quad.floorplan.longest_link_mm()


class TestSection6Demonstrator:
    @pytest.fixture(scope="class")
    def demo(self):
        return ICNoC(ICNoCConfig())  # paper defaults: 64 ports, binary

    def test_1ghz_from_1_25mm_segments(self, demo):
        """'We target link segments of 1.25 mm near the root of the tree,
        and hence get a 1 GHz operating speed.' (We measure 0.994 GHz.)"""
        assert demo.operating_frequency_ghz() == pytest.approx(1.0, rel=0.01)

    def test_timing_safe_at_1ghz(self, demo):
        """'It was shown to operate to full satisfaction with
        back-annotated timing.'"""
        assert demo.validate_timing(frequency=1.0).passed

    def test_total_area_0_73mm2(self, demo):
        """'The total area of the NoC is 0.73 mm^2' (+-3%: the paper does
        not publish the pipeline-stage breakdown)."""
        assert demo.area_report().total_mm2 == pytest.approx(0.73, rel=0.03)

    def test_chip_fraction_0_73_percent(self, demo):
        """'only 0.73% of the chip area.'"""
        assert demo.area_report().chip_fraction == pytest.approx(
            0.0073, rel=0.03
        )

    def test_area_formula_holds(self, demo):
        """Area_total = (N-1)*Area_router + Area_pipelines."""
        report = demo.area_report()
        n = demo.config.ports
        expected_router = (n - 1) * TECH_90NM.router_area_mm2(3)
        assert report.router_mm2 == pytest.approx(expected_router, rel=1e-3)


class TestSection3Claims:
    def test_worst_case_hops_formulas(self):
        """'the worst-case number of hops is smaller than in a mesh
        (2logN-1 vs 2sqrt(N))'."""
        from repro.fabric.topologies import MeshTopology
        from repro.noc.topology import TreeTopology
        tree = TreeTopology(64, arity=2)
        mesh = MeshTopology(8, 8)
        assert tree.worst_case_hops() == 11       # 2*log2(64) - 1
        assert mesh.worst_case_hops() == 15       # ~ 2*sqrt(64)
        assert tree.worst_case_hops() < mesh.worst_case_hops()

    def test_neighbour_single_router(self):
        """'communication between two neighboring cores in a binary tree
        only has to pass a single 3x3 router'."""
        from repro.noc.topology import TreeTopology
        topo = TreeTopology(64, arity=2)
        for a, b in topo.sibling_pairs():
            assert topo.hop_count(a, b) == 1

    def test_fewer_routers_than_mesh(self):
        """'in a tree there are fewer routers than in a mesh'."""
        from repro.fabric.topologies import MeshTopology
        from repro.noc.topology import TreeTopology
        assert TreeTopology(64, 2).router_count < MeshTopology(8, 8).router_count
