"""Area accounting: the paper's formula and the 0.73 mm^2 demonstrator."""

import pytest

from repro.errors import ConfigurationError
from repro.mesh.topology import MeshTopology
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.topology import TreeTopology
from repro.physical.area import (
    area_report,
    mesh_noc_area,
    tree_noc_area,
)
from repro.tech.technology import TECH_90NM


class TestFormula:
    def test_paper_formula_components(self):
        """Area_total = (N-1)*Area_router + Area_pipelines."""
        topo = TreeTopology(64, arity=2)
        report = tree_noc_area(topo, pipeline_stages=76)
        assert report.router_mm2 == pytest.approx(63 * 0.010, rel=1e-3)
        assert report.pipeline_mm2 == pytest.approx(76 * 0.0015, rel=1e-3)
        assert report.buffer_mm2 == 0.0

    def test_linear_scaling_with_ports(self):
        """'With a tree topology the area scales linearly with the number
        of network ports.'"""
        areas = []
        for leaves in (16, 32, 64, 128):
            topo = TreeTopology(leaves, arity=2)
            report = tree_noc_area(topo, pipeline_stages=leaves)
            areas.append(report.total_mm2 / leaves)
        # Per-port area approaches a constant.
        assert max(areas) / min(areas) < 1.1

    def test_negative_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            tree_noc_area(TreeTopology(8, 2), pipeline_stages=-1)


class TestDemonstratorArea:
    def test_total_close_to_paper(self):
        """Paper: 'The total area of the NoC is 0.73 mm^2' — our stage
        accounting lands within a few percent."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        report = area_report(net)
        assert report.total_mm2 == pytest.approx(0.73, rel=0.03)

    def test_chip_fraction_close_to_paper(self):
        """'only 0.73% of the chip area'."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        report = area_report(net)
        assert report.chip_fraction == pytest.approx(0.0073, rel=0.03)

    def test_describe_renders(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        assert "mm^2" in area_report(net).describe()


class TestQuadVsBinaryArea:
    def test_quad_tree_cheaper_in_routers(self):
        """Section 6: the quad tree 'has lower area'."""
        binary = tree_noc_area(TreeTopology(64, 2), 0)
        quad = tree_noc_area(TreeTopology(64, 4), 0)
        assert quad.router_mm2 < binary.router_mm2


class TestMeshArea:
    def test_mesh_router_area_dominates_tree(self):
        mesh = mesh_noc_area(MeshTopology(8, 8))
        tree = tree_noc_area(TreeTopology(64, 2), pipeline_stages=76)
        assert mesh.total_mm2 > 2.0 * tree.total_mm2

    def test_buffer_area_counted(self):
        shallow = mesh_noc_area(MeshTopology(4, 4), buffer_depth=2)
        deep = mesh_noc_area(MeshTopology(4, 4), buffer_depth=8)
        assert deep.buffer_mm2 == pytest.approx(4.0 * shallow.buffer_mm2)
        assert deep.router_mm2 == shallow.router_mm2

    def test_edge_routers_have_fewer_ports(self):
        # 2x2 mesh: all corner routers (3 ports) -> cheaper than 5-port.
        small = mesh_noc_area(MeshTopology(2, 2), buffer_depth=0)
        assert small.router_mm2 == pytest.approx(
            4 * TECH_90NM.router_area_mm2(3), rel=1e-6
        )

    def test_chip_fraction_guard(self):
        report = mesh_noc_area(MeshTopology(4, 4), chip_mm2=0.0)
        with pytest.raises(ConfigurationError):
            report.chip_fraction
