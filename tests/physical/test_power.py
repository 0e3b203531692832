"""Energy models: links, routers, paths, locality crossover."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.fabric.topologies import MeshTopology
from repro.physical import power
from repro.physical.comparison import (
    energy_crossover_locality,
    section3_mixes,
    section3_models,
)
from repro.physical.descriptor import physical_model


@pytest.fixture(scope="module")
def tree64():
    return physical_model(FabricConfig(topology="tree", ports=64).build())


@pytest.fixture(scope="module")
def mixes64():
    """(tree, mesh) locality mixes at 64 ports — all pairs walked once."""
    return section3_mixes(*section3_models(64))


class TestLinkEnergy:
    def test_proportional_to_length(self):
        assert power.link_energy_pj_per_flit(2.0) == pytest.approx(
            2.0 * power.link_energy_pj_per_flit(1.0)
        )

    def test_explicit_value(self):
        # 0.5 activity * 32 bits * 0.2 pF * 1 V^2 = 3.2 pJ per mm.
        assert power.link_energy_pj_per_flit(1.0) == pytest.approx(3.2)

    def test_scales_with_width(self):
        wide = power.link_energy_pj_per_flit(1.0, bits=64)
        assert wide == pytest.approx(6.4)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            power.link_energy_pj_per_flit(-1.0)


class TestRouterEnergy:
    def test_5x5_costs_more_than_3x3(self):
        assert power.router_energy_pj_per_flit(5) > \
            power.router_energy_pj_per_flit(3)

    def test_scale_is_published_ballpark(self):
        # ~1 pJ per flit for a 32-bit 5-port router at 90 nm.
        assert 0.5 < power.router_energy_pj_per_flit(5) < 2.0


class TestPathEnergy:
    def test_sums_components(self, tree64):
        # Sibling leaves: one 3x3 router between two leaf links.
        profile = tree64.path(0, 1)
        assert profile.switch_ports == (3,)
        expected = (power.router_energy_pj_per_flit(3)
                    + sum(power.link_energy_pj_per_flit(length)
                          for length in profile.link_lengths_mm))
        assert len(profile.link_lengths_mm) == 2
        assert tree64.flit_energy_pj(0, 1) == pytest.approx(expected)

    def test_tree_sibling_much_cheaper_than_cross(self, tree64):
        sibling = tree64.flit_energy_pj(0, 1)
        cross = tree64.flit_energy_pj(0, 63)
        assert cross > 5.0 * sibling

    def test_mesh_buffer_energy_included(self):
        mesh = MeshTopology(8, 8)
        model = physical_model(FabricConfig(topology="mesh", ports=64).build())
        e = model.flit_energy_pj(0, 1)
        switch_only = (
            sum(power.router_energy_pj_per_flit(mesh.router_ports(node))
                for node in (0, 1))
            + sum(power.link_energy_pj_per_flit(length)
                  for length in (1.25, 0.625, 0.625))
        )
        assert e == pytest.approx(
            switch_only + 2 * power.BUFFER_ENERGY_PJ_PER_FLIT
        )


class TestLocalityCrossover:
    def test_tree_wins_at_high_locality(self, mixes64):
        tree, mesh = mixes64
        assert tree.at(0.9) < mesh.at(0.9)

    def test_mesh_wins_at_zero_locality(self, mixes64):
        tree, mesh = mixes64
        assert mesh.at(0.0) < tree.at(0.0)

    def test_crossover_found(self, mixes64):
        crossover = energy_crossover_locality(*mixes64)
        assert crossover is not None
        assert 0.0 < crossover < 1.0

    def test_locality_monotone_for_tree(self, mixes64):
        tree, _mesh = mixes64
        energies = [tree.at(loc) for loc in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert energies == sorted(energies, reverse=True)

    def test_bad_locality_rejected(self, mixes64):
        tree, _mesh = mixes64
        with pytest.raises(ConfigurationError):
            tree.at(1.5)
