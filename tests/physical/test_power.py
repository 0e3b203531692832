"""Energy models: links, routers, paths, locality crossover."""

from functools import lru_cache

import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.physical import power
from repro.physical.descriptor import physical_model


@lru_cache(maxsize=None)
def section3_models(ports):
    """The (binary tree, square mesh) descriptors Section 3 compares."""
    return tuple(physical_model(FabricConfig(topology=name,
                                             ports=ports).build())
                 for name in ("tree", "mesh"))


@lru_cache(maxsize=None)
def partner_energy_pj(model):
    """Mean flit energy from every endpoint to its clustered partner —
    the tree's other leaf on the same 3x3 router, the mesh's neighbour
    along x — the mapping assumption that "cores which communicate a lot
    will be clustered"."""
    topo = model.network.topology
    srcs = range(model.endpoints)
    if hasattr(topo, "cols"):
        partners = [topo.node_at(x + 1 if x + 1 < topo.cols else x - 1, y)
                    for x, y in map(topo.coordinates, srcs)]
    else:
        partners = [src ^ 1 for src in srcs]
    return sum(model.flit_energies_pj(srcs, partners)) / model.endpoints


def energy_at(model, locality):
    """Mean flit energy when a ``locality`` share of the traffic goes to
    the partner and the rest is uniform random."""
    return (locality * partner_energy_pj(model)
            + (1.0 - locality) * model.average_flit_energy_pj())


def crossover_locality(tree, mesh, steps=20):
    """Smallest locality on a ``steps`` grid at which the tree's mean
    flit energy beats the mesh's, or None."""
    return next((i / steps for i in range(steps + 1)
                 if energy_at(tree, i / steps) < energy_at(mesh, i / steps)),
                None)


@pytest.fixture(scope="module")
def tree64():
    return physical_model(FabricConfig(topology="tree", ports=64).build())


@pytest.fixture(scope="module")
def models64():
    """(tree, mesh) descriptors at 64 ports."""
    return section3_models(64)


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

    def test_mesh_buffer_energy_included(self, models64):
        _tree, model = models64
        e = model.flit_energy_pj(0, 1)
        # Corner router 0 uses 3 ports (local, east, south), edge router
        # 1 uses 4.
        assert model.router_port_counts()[:2] == [3, 4]
        switch_only = (
            sum(power.router_energy_pj_per_flit(ports) for ports in (3, 4))
            + sum(power.link_energy_pj_per_flit(length)
                  for length in (1.25, 0.625, 0.625))
        )
        assert e == pytest.approx(
            switch_only + 2 * power.BUFFER_ENERGY_PJ_PER_FLIT
        )


class TestLocalityCrossover:
    def test_tree_wins_at_high_locality(self, models64):
        tree, mesh = models64
        assert energy_at(tree, 0.9) < energy_at(mesh, 0.9)

    def test_mesh_wins_at_zero_locality(self, models64):
        tree, mesh = models64
        assert energy_at(mesh, 0.0) < energy_at(tree, 0.0)

    def test_crossover_found(self, models64):
        crossover = crossover_locality(*models64)
        assert crossover is not None
        assert 0.0 < crossover < 1.0

    def test_locality_monotone_for_tree(self, models64):
        tree, _mesh = models64
        energies = [energy_at(tree, loc) for loc in (0.0, 0.25, 0.5, 0.75,
                                                     1.0)]
        assert energies == sorted(energies, reverse=True)
