"""Graceful degradation and yield: the paper's central safety claims."""

import pytest

from repro.clocking.variation import (
    graceful_degradation_curve,
    synchronous_yield,
    timing_yield,
)
from repro.errors import ConfigurationError
from repro.tech.flipflop import FF_90NM
from repro.timing.validator import ChannelSpec


def demo_specs(n=20, delay=112.5):
    specs = []
    for i in range(n):
        specs.append(ChannelSpec(f"s{i}", delay, delay, delay,
                                 downstream=(i % 2 == 0)))
    return specs


class TestDegradationCurve:
    def test_fmax_decreases_with_sigma(self):
        points = graceful_degradation_curve(
            demo_specs(), FF_90NM, sigmas=[0.0, 0.1, 0.3, 0.6], samples=30
        )
        means = [p.f_max_mean_ghz for p in points]
        assert means == sorted(means, reverse=True)

    def test_fmax_never_zero(self):
        """'Timing is guaranteed to hold at some clock frequency, no
        matter what the process variation is.'"""
        points = graceful_degradation_curve(
            demo_specs(), FF_90NM, sigmas=[0.0, 0.5, 1.0, 2.0], samples=20
        )
        for point in points:
            assert point.f_max_worst_ghz > 0.0

    def test_zero_sigma_matches_nominal(self):
        from repro.timing.validator import channels_max_frequency
        points = graceful_degradation_curve(
            demo_specs(), FF_90NM, sigmas=[0.0], samples=5
        )
        nominal = channels_max_frequency(demo_specs(), FF_90NM)
        assert points[0].f_max_mean_ghz == pytest.approx(nominal, rel=1e-6)

    def test_worst_below_mean_below_best(self):
        points = graceful_degradation_curve(
            demo_specs(), FF_90NM, sigmas=[0.3], samples=50
        )
        point = points[0]
        assert point.f_max_worst_ghz <= point.f_max_mean_ghz <= \
            point.f_max_best_ghz

    def test_bad_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            graceful_degradation_curve(demo_specs(), FF_90NM, [0.1],
                                       samples=0)


class TestICNoCYield:
    def test_yield_one_at_low_frequency(self):
        """Lowering the clock always recovers yield — the knob the
        globally synchronous baseline does not have."""
        y = timing_yield(demo_specs(), FF_90NM, frequency=0.2, sigma=0.5,
                         samples=100)
        assert y == 1.0

    def test_yield_drops_at_aggressive_frequency(self):
        y = timing_yield(demo_specs(), FF_90NM, frequency=1.42, sigma=0.3,
                         samples=100)
        assert y < 1.0

    def test_yield_monotone_in_frequency(self):
        sigmas = 0.3
        yields = [
            timing_yield(demo_specs(), FF_90NM, f, sigmas, samples=100)
            for f in (0.5, 1.0, 1.3, 1.45)
        ]
        assert yields == sorted(yields, reverse=True)


class TestSynchronousYield:
    def test_small_skew_yields_fine(self):
        assert synchronous_yield(FF_90NM, skew_sigma_ps=5.0,
                                 crossings=100) == 1.0

    def test_large_skew_kills_yield_at_any_frequency(self):
        """Same-edge hold failures are frequency-independent: yield loss
        that cannot be bought back by slowing the clock."""
        y = synchronous_yield(FF_90NM, skew_sigma_ps=60.0, crossings=500,
                              samples=100)
        assert y < 0.05

    def test_yield_decreases_with_crossings(self):
        small = synchronous_yield(FF_90NM, skew_sigma_ps=30.0, crossings=10,
                                  samples=300)
        large = synchronous_yield(FF_90NM, skew_sigma_ps=30.0,
                                  crossings=1000, samples=300)
        assert large <= small

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            synchronous_yield(FF_90NM, 10.0, crossings=0)
