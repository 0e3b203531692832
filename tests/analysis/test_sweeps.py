"""Sweep utilities and saturation measurement."""

import pytest

from repro.analysis.sweeps import (
    measure_offered_vs_accepted,
    saturation_throughput,
    sweep,
)
from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.traffic.patterns import NeighbourTraffic, UniformRandom


def tree16():
    return ICNoCNetwork(FabricConfig(ports=16, arity=2))


class TestSweep:
    def test_collects_points_in_order(self):
        result = sweep("squares", [1, 2, 3],
                       lambda v: {"square": float(v * v)})
        xs, ys = result.series("square")
        assert xs == [1, 2, 3]
        assert ys == [1.0, 4.0, 9.0]

    def test_missing_metric_rejected(self):
        result = sweep("s", [1], lambda v: {"a": 1.0})
        with pytest.raises(ConfigurationError):
            result.series("b")

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep("s", [], lambda v: {})


class TestOfferedVsAccepted:
    def test_low_load_fully_accepted(self):
        metrics = measure_offered_vs_accepted(
            tree16, lambda load: UniformRandom(16, load), load=0.05,
            cycles=200,
        )
        assert metrics["drained"] == 1.0
        assert metrics["accepted_in_window"] >= 0.8 * metrics["offered"]

    def test_overload_falls_behind(self):
        """Uniform traffic far beyond the tree's root capacity cannot be
        accepted within the injection window."""
        metrics = measure_offered_vs_accepted(
            tree16, lambda load: UniformRandom(16, load), load=0.9,
            cycles=200,
        )
        assert metrics["accepted_in_window"] < 0.9 * metrics["offered"]

    def test_bad_load_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_offered_vs_accepted(
                tree16, lambda load: UniformRandom(16, load), load=0.0
            )


class TestSaturation:
    def test_local_traffic_saturates_later_than_uniform(self):
        """The locality argument, as a saturation-throughput number: the
        tree sustains far more sibling traffic than uniform traffic."""
        sat_uniform = saturation_throughput(
            tree16, lambda load: UniformRandom(16, load),
            loads=[0.1, 0.2, 0.3, 0.5, 0.7], cycles=200,
        )
        sat_local = saturation_throughput(
            tree16,
            lambda load: NeighbourTraffic(16, load, locality=1.0),
            loads=[0.1, 0.2, 0.3, 0.5, 0.7], cycles=200,
        )
        assert sat_local > sat_uniform
        assert sat_local >= 0.5

    def test_saturation_positive_for_sane_network(self):
        sat = saturation_throughput(
            tree16, lambda load: UniformRandom(16, load),
            loads=[0.05, 0.1], cycles=150,
        )
        assert sat >= 0.05
