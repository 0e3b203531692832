"""Area accounting: the paper's formula and the 0.73 mm^2 demonstrator."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.physical.area import AreaReport
from repro.physical.descriptor import physical_model
from repro.tech.technology import TECH_90NM


def area_of(**config):
    return physical_model(FabricConfig(**config).build()).area_report()


class TestFormula:
    def test_paper_formula_components(self):
        """Area_total = (N-1)*Area_router + Area_pipelines."""
        net = FabricConfig(ports=64, arity=2).build()
        assert net.pipeline_stage_count == 76
        report = physical_model(net).area_report()
        assert report.router_mm2 == pytest.approx(63 * 0.010, rel=1e-3)
        assert report.pipeline_mm2 == pytest.approx(76 * 0.0015, rel=1e-3)
        assert report.buffer_mm2 == 0.0

    def test_linear_scaling_with_ports(self):
        """'With a tree topology the area scales linearly with the number
        of network ports.'"""
        areas = []
        for leaves in (16, 32, 64, 128):
            report = area_of(ports=leaves, arity=2)
            areas.append(report.total_mm2 / leaves)
        # Per-port area approaches a constant.
        assert max(areas) / min(areas) < 1.1


class TestDemonstratorArea:
    def test_total_close_to_paper(self):
        """Paper: 'The total area of the NoC is 0.73 mm^2' — our stage
        accounting lands within a few percent."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        report = physical_model(net).area_report()
        assert report.total_mm2 == pytest.approx(0.73, rel=0.03)

    def test_chip_fraction_close_to_paper(self):
        """'only 0.73% of the chip area'."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        report = physical_model(net).area_report()
        assert report.chip_fraction == pytest.approx(0.0073, rel=0.03)

    def test_describe_renders(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        assert "mm^2" in physical_model(net).area_report().describe()


class TestQuadVsBinaryArea:
    def test_quad_tree_cheaper_in_routers(self):
        """Section 6: the quad tree 'has lower area'."""
        binary = area_of(ports=64, arity=2)
        quad = area_of(ports=64, arity=4)
        assert quad.router_mm2 < binary.router_mm2


class TestMeshArea:
    def test_mesh_router_area_dominates_tree(self):
        mesh = area_of(topology="mesh", ports=64)
        tree = area_of(ports=64, arity=2)
        assert mesh.total_mm2 > 2.0 * tree.total_mm2

    def test_buffer_area_counted(self):
        shallow = area_of(topology="mesh", ports=16, buffer_depth=2)
        deep = area_of(topology="mesh", ports=16, buffer_depth=8)
        assert deep.buffer_mm2 == pytest.approx(4.0 * shallow.buffer_mm2)
        assert deep.router_mm2 == shallow.router_mm2

    def test_edge_routers_have_fewer_ports(self):
        # 2x2 mesh: all corner routers (3 ports) -> cheaper than 5-port.
        small = area_of(topology="mesh", ports=4)
        assert small.router_mm2 == pytest.approx(
            4 * TECH_90NM.router_area_mm2(3), rel=1e-6
        )

    def test_chip_fraction_guard(self):
        report = AreaReport(router_mm2=0.1, pipeline_mm2=0.0,
                            buffer_mm2=0.1, chip_mm2=0.0)
        with pytest.raises(ConfigurationError):
            report.chip_fraction
