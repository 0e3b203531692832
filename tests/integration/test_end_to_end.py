"""Cross-module integration: build -> validate -> load -> measure.

A tree is built, checked, run and reported one way: ``FabricConfig(...)
.build()`` plus the plain functions over the built network —
``validate_channels`` / ``channels_max_frequency`` on its
``channel_specs``, ``apply_traffic``, ``physical_model(net)``.
"""

import numpy as np
import pytest

from repro.clocking.variation import VariationModel, perturb_channels
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.physical.descriptor import physical_model
from repro.tech.flipflop import FF_90NM
from repro.tech.technology import TECH_90NM
from repro.timing.validator import channels_max_frequency, validate_channels
from repro.traffic.base import apply_traffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.patterns import NeighbourTraffic, UniformRandom


@pytest.fixture(scope="module")
def tree16():
    """A 16-port binary tree shared by the read-only checks."""
    return FabricConfig(ports=16).build()


def validate(net, frequency):
    return validate_channels(net.channel_specs, net.config.tech.register,
                             frequency)


def run_uniform(net, load, cycles, seed):
    schedule = UniformRandom(ports=16, load=load).generate(
        cycles, np.random.default_rng(seed))
    apply_traffic(net, schedule, run_cycles=cycles)
    return net.stats


class TestTreeBuildValidateRunReport:
    def test_defaults_match_demonstrator(self):
        config = FabricConfig()
        assert config.ports == 64
        assert config.topology == "tree"
        assert config.arity == 2
        assert config.max_segment_mm == 1.25

    def test_validate_passes_at_operating_point(self, tree16):
        assert validate(tree16, tree16.operating_frequency_ghz()).passed

    def test_validate_passes_at_1ghz(self, tree16):
        assert validate(tree16, 1.0).passed

    def test_validate_fails_well_above_limit(self, tree16):
        report = validate(tree16, 3.0)
        assert not report.passed
        assert report.violations

    def test_skew_limit_above_operating_point(self, tree16):
        """The FF-only skew windows leave headroom above the logic-limited
        operating frequency — consistent with the paper's observation that
        the 220 ps control logic, not the link timing, sets the speed."""
        assert channels_max_frequency(tree16.channel_specs,
                                      tree16.config.tech.register) > \
            tree16.operating_frequency_ghz()

    def test_run_traffic_delivers(self):
        stats = run_uniform(FabricConfig(ports=16).build(), load=0.05,
                            cycles=200, seed=1)
        assert stats.packets_injected > 0
        assert stats.packets_delivered == stats.packets_injected
        assert stats.latency.mean > 0.0

    def test_repeated_runs_do_not_double_count_gating(self):
        """gating_stats() is cumulative, so stats.gating is assigned, not
        merged: a second run on one network used to add the first run's
        edges in again (22096 reported against 14792 counted)."""
        net = FabricConfig(ports=16).build()
        for seed in (1, 2):
            stats = run_uniform(net, load=0.1, cycles=50, seed=seed)
            assert stats.gating == net.gating_stats()
        assert stats.gating.edges_total > 0

    def test_direct_send(self):
        net = FabricConfig(ports=16).build()
        net.send(Packet(src=0, dest=9))
        assert net.drain(10_000)

    def test_describe_and_area_render(self, tree16):
        assert "IC-NoC" in tree16.describe()
        assert "mm^2" in physical_model(tree16).area_report().describe()

    def test_area_report_available(self, tree16):
        report = physical_model(tree16).area_report()
        assert report.total_mm2 > 0.0
        assert report.chip_fraction < 0.02


class TestTimingPipeline:
    def test_variation_then_revalidation_roundtrip(self):
        """Perturb a real network's channels; the solver's f_max is exactly
        the boundary of validity for the perturbed instance."""
        net = ICNoCNetwork(FabricConfig(ports=32, arity=2))
        rng = np.random.default_rng(0)
        model = VariationModel(systematic_sigma=0.1, random_sigma=0.2)
        perturbed = perturb_channels(net.channel_specs, model, rng)
        f_max = channels_max_frequency(perturbed, FF_90NM)
        assert validate_channels(perturbed, FF_90NM, f_max * 0.999).passed
        assert not validate_channels(perturbed, FF_90NM, f_max * 1.02).passed

    def test_derated_technology_network_still_validates(self):
        """Graceful degradation end to end: a 2x slower process still has
        a working frequency (half the nominal)."""
        slow = FabricConfig(ports=16, tech=TECH_90NM.derated(2.0)).build()
        f = slow.operating_frequency_ghz()
        assert f == pytest.approx(0.497, rel=0.02)
        assert validate(slow, f).passed


class TestTrafficIntegration:
    def test_uniform_load_sweep_latency_monotone(self):
        """Latency rises with offered load (queueing) — the standard
        sanity check for the latency-load bench."""
        means = []
        for load in (0.02, 0.10, 0.30):
            net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
            gen = UniformRandom(ports=16, load=load)
            schedule = gen.generate(300, np.random.default_rng(7))
            apply_traffic(net, schedule, run_cycles=300)
            assert net.stats.packets_delivered == net.stats.packets_injected
            means.append(net.stats.latency.mean)
        assert means[0] < means[-1]

    def test_neighbour_traffic_lower_latency_than_uniform(self):
        """Locality pays: sibling-heavy traffic sees far lower latency."""
        results = {}
        for name, gen in (
            ("uniform", UniformRandom(ports=16, load=0.1)),
            ("local", NeighbourTraffic(ports=16, load=0.1, locality=0.9)),
        ):
            net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
            schedule = gen.generate(300, np.random.default_rng(3))
            apply_traffic(net, schedule, run_cycles=300)
            results[name] = net.stats.latency.mean
        assert results["local"] < results["uniform"]

    def test_bursty_traffic_gates_more_than_continuous(self):
        """The Section 5 power argument: bursty traffic leaves the network
        idle for long stretches, and the flow control turns that into
        gated clock edges."""
        def gating_for(gen, seed=5):
            net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
            schedule = gen.generate(400, np.random.default_rng(seed))
            apply_traffic(net, schedule, run_cycles=400)
            return net.gating_stats().gating_ratio

        bursty = gating_for(BurstyTraffic(ports=16, peak_load=0.6,
                                          mean_burst_cycles=15.0,
                                          mean_idle_cycles=85.0))
        steady = gating_for(UniformRandom(ports=16, load=0.6))
        assert bursty > steady

    def test_tree_and_mesh_run_same_trace(self):
        """The same injection schedule drives both networks — the
        apples-to-apples harness the comparison benches rely on."""
        gen = UniformRandom(ports=16, load=0.05)
        schedule = gen.generate(200, np.random.default_rng(11))
        tree = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        mesh = FabricConfig(topology="mesh", ports=16, rows=4).build()
        apply_traffic(tree, schedule, run_cycles=200)
        apply_traffic(mesh, schedule, run_cycles=200)
        assert tree.stats.packets_delivered == len(schedule)
        assert mesh.stats.packets_delivered == len(schedule)


class TestClockIntegration:
    def test_peak_current_helped_by_tree_skew(self):
        """Clock arrival spread from the real 64-leaf network lowers the
        supply peak vs a zero-skew chip."""
        from repro.physical.peak_current import peak_current_ratio
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        arrivals = []
        period = 1000.0
        for name, delay in net.clock_tree.arrival_times().items():
            polarity = net.clock_tree.polarity(name)
            arrivals.append(delay + polarity * period / 2.0)
        assert peak_current_ratio(arrivals, period) < 0.6

    def test_clock_power_comparison_holds_on_real_geometry(self):
        """Forwarded clock on the real 105 mm tree beats a balanced tree
        over the same wire — before gating is even counted."""
        from repro.clocking.power import (
            balanced_tree_clock_power_mw,
            forwarded_clock_power_mw,
        )
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        wire = net.floorplan.total_link_length_mm()
        sinks = len(net.clock_tree)
        balanced = balanced_tree_clock_power_mw(wire, sinks, 1.0)
        forwarded = forwarded_clock_power_mw(wire, sinks, 1.0,
                                             sink_activity=0.3)
        assert forwarded.total_mw < balanced.total_mw
