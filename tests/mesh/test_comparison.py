"""Tree-vs-mesh comparison tables: the Section 3 claims."""

import math

import pytest

from repro.physical.comparison import (
    compare_topologies,
    tree_mesh_area_table,
    tree_mesh_energy_table,
    tree_mesh_hop_table,
)


@pytest.fixture(scope="module")
def row64():
    return compare_topologies(64)


class TestHops:
    def test_paper_formulas(self, row64):
        # Tree: 2*log2(64) - 1 = 11; mesh ~ 2*sqrt(64) = 16.
        assert row64.tree_paper_formula == 11
        assert row64.tree_worst_hops == 11
        assert row64.mesh_paper_formula == pytest.approx(16.0)
        assert row64.mesh_worst_hops == 15  # exact corner-to-corner

    def test_tree_matches_or_wins_worst_case(self):
        # At N=16 the exact counts tie (7 vs 7: the paper's 2*sqrt(N) is an
        # approximation of the exact 2*sqrt(N)-1); from N=64 the tree wins
        # outright.
        row16 = compare_topologies(16, include_energy=False)
        assert row16.tree_worst_hops <= row16.mesh_worst_hops
        for ports in (64, 256):
            row = compare_topologies(ports, include_energy=False)
            assert row.tree_wins_hops, f"tree should win at N={ports}"

    def test_gap_widens_with_size(self):
        small = compare_topologies(16, include_energy=False)
        large = compare_topologies(256, include_energy=False)
        gap_small = small.mesh_worst_hops - small.tree_worst_hops
        gap_large = large.mesh_worst_hops - large.tree_worst_hops
        assert gap_large > gap_small

    def test_log_vs_sqrt_scaling(self):
        # Only hop columns are read here, so the 256-port row skips the
        # all-pairs energy walk (3.5 of this test's 3.9 s) the table
        # would run for it; TestSection3Golden pins the energy numbers.
        rows = tree_mesh_hop_table([16, 64])
        rows.append(compare_topologies(256, include_energy=False))
        for row in rows:
            assert row.tree_worst_hops == \
                2 * int(math.log2(row.ports)) - 1
            side = math.isqrt(row.ports)
            assert row.mesh_worst_hops == 2 * side - 1


class TestRoutersAndArea:
    def test_fewer_routers_in_tree(self, row64):
        assert row64.tree_routers == 63
        assert row64.mesh_routers == 64
        assert row64.tree_routers < row64.mesh_routers

    def test_tree_area_smaller(self, row64):
        """Section 3: 'the area and the leakage current of the NoC is
        minimized' — 3-port routers and no stall buffers."""
        assert row64.tree_wins_area
        # The gap is large: mesh 5-port routers + FIFOs.
        assert row64.mesh_area_mm2 / row64.tree_area_mm2 > 2.0

    def test_area_table(self):
        table = tree_mesh_area_table(64)
        assert table["ratio"] > 1.0
        assert table["tree_mm2"] < 1.0  # under 1 mm^2 like the paper


class TestEnergy:
    def test_tree_wins_energy_under_clustering(self, row64):
        """The Lee [12] / Section 3 claim, in the regime the paper assumes:
        'cores which communicate a lot will be clustered'."""
        assert row64.tree_wins_energy_local

    def test_uniform_traffic_favours_mesh_wire(self, row64):
        """Documented deviation: with uniform random traffic the H-tree's
        longer physical paths cost more wire energy than the mesh saves in
        routers — locality is what flips the comparison."""
        assert row64.tree_energy_pj > row64.mesh_energy_pj

    def test_crossover_exists_below_paper_locality(self):
        table = tree_mesh_energy_table(64)
        assert 0.0 < table["crossover_locality"] <= 0.8

    def test_energy_table_local_ratio_over_one(self):
        table = tree_mesh_energy_table(64)
        assert table["local_ratio"] > 1.0

    def test_energy_values_positive(self, row64):
        assert row64.tree_energy_pj > 0.0
        assert row64.mesh_energy_pj > 0.0
        assert row64.tree_energy_local_pj > 0.0


class TestSection3Golden:
    """The Section 3 numbers themselves, not just their ordering — pinned
    so the tables can be re-derived without moving any of them."""

    REL = 1e-12

    def test_energy_table_64(self):
        table = tree_mesh_energy_table(64, chip_mm=10.0)
        golden = {
            "tree_uniform_pj": 47.11984073219782,
            "mesh_uniform_pj": 33.158666018562414,
            "tree_local_pj": 12.983968099639565,   # locality 0.8
            "mesh_local_pj": 14.973533043437481,
            "crossover_locality": 0.75,
        }
        for key, value in golden.items():
            assert table[key] == pytest.approx(value, rel=self.REL), key

    @pytest.mark.parametrize("ports, tree_mm2, mesh_mm2", [
        (16, 0.1919999805, 0.5077333032),
        (64, 0.7439999181, 2.35519986),
        (256, 2.9519996685, 10.0821327336),
    ])
    def test_total_area(self, ports, tree_mm2, mesh_mm2):
        row = compare_topologies(ports, chip_mm=10.0, include_energy=False)
        assert row.tree_area_mm2 == pytest.approx(tree_mm2, rel=self.REL)
        assert row.mesh_area_mm2 == pytest.approx(mesh_mm2, rel=self.REL)

    def test_routers_and_hops_64(self, row64):
        assert (row64.tree_routers, row64.mesh_routers) == (63, 64)
        assert (row64.tree_worst_hops, row64.mesh_worst_hops) == (11, 15)
        assert row64.tree_avg_hops == pytest.approx(9.19047619047619,
                                                    rel=self.REL)
        assert row64.mesh_avg_hops == pytest.approx(6.333333333333333,
                                                    rel=self.REL)
