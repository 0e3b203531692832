"""Cross-module integration: build -> validate -> load -> measure."""

import numpy as np
import pytest

from repro.clocking.variation import VariationModel, perturb_channels
from repro.core.config import ICNoCConfig
from repro.core.icnoc import ICNoC
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.tech.flipflop import FF_90NM
from repro.timing.validator import channels_max_frequency, validate_channels
from repro.traffic.base import apply_traffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.patterns import NeighbourTraffic, UniformRandom


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
        slow = ICNoC(ICNoCConfig(ports=16, tech=__import__(
            "repro.tech.technology", fromlist=["TECH_90NM"]
        ).TECH_90NM.derated(2.0)))
        f = slow.operating_frequency_ghz()
        assert f == pytest.approx(0.497, rel=0.02)
        assert slow.validate_timing(frequency=f).passed


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
