"""Peak supply current: spreading by skew (future-work item 3)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physical.peak_current import (
    current_profile,
    peak_current,
    peak_current_ratio,
    spread_arrivals,
)


class TestProfile:
    def test_single_pulse_peak_is_amplitude(self):
        assert peak_current([100.0], period_ps=1000.0,
                            amplitude_ma=2.0) == pytest.approx(2.0)

    def test_aligned_pulses_add(self):
        assert peak_current([0.0] * 10, period_ps=1000.0) == \
            pytest.approx(10.0)

    def test_distant_pulses_do_not_add(self):
        # Two pulses 500 ps apart with 30 ps width: independent peaks.
        assert peak_current([0.0, 500.0], 1000.0) == pytest.approx(1.0)

    def test_wraparound(self):
        # 990 ps and 10 ps are only 20 ps apart on the circular axis.
        peak = peak_current([990.0, 10.0], 1000.0, pulse_width_ps=60.0)
        assert peak > 1.0

    def test_profile_integral_conserved(self):
        """Spreading moves charge around; it does not remove it."""
        aligned = current_profile([0.0] * 8, 1000.0)
        spread = current_profile([i * 125.0 for i in range(8)], 1000.0)
        assert aligned.sum() == pytest.approx(spread.sum(), rel=1e-6)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            current_profile([0.0], period_ps=0.0)
        with pytest.raises(ConfigurationError):
            current_profile([0.0], 1000.0, pulse_width_ps=-1.0)


class TestRatio:
    def test_aligned_ratio_is_one(self):
        assert peak_current_ratio([0.0] * 16, 1000.0) == pytest.approx(1.0)

    def test_spread_ratio_below_one(self):
        arrivals = [i * 62.5 for i in range(16)]
        assert peak_current_ratio(arrivals, 1000.0) < 0.2

    def test_tree_insertion_delays_already_help(self):
        """The IC-NoC's natural skew (insertion delays + alternate edges)
        lowers the peak without any deliberate weighting."""
        rng = np.random.default_rng(0)
        natural = list(rng.uniform(0.0, 700.0, size=64))
        assert peak_current_ratio(natural, 1000.0) < 0.5

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            peak_current_ratio([], 1000.0)


class TestSpreading:
    def test_spreading_respects_adjustment_bound(self):
        arrivals = [100.0] * 8
        adjusted = spread_arrivals(arrivals, 1000.0, max_adjust_ps=50.0)
        for before, after in zip(arrivals, adjusted):
            assert abs(after - before) <= 50.0 + 1e-9

    def test_spreading_reduces_peak(self):
        arrivals = [0.0] * 32
        adjusted = spread_arrivals(arrivals, 1000.0, max_adjust_ps=400.0)
        assert peak_current(adjusted, 1000.0) < peak_current(arrivals, 1000.0)

    def test_more_slack_more_flattening(self):
        arrivals = [0.0] * 32
        tight = spread_arrivals(arrivals, 1000.0, max_adjust_ps=50.0)
        loose = spread_arrivals(arrivals, 1000.0, max_adjust_ps=450.0)
        assert peak_current(loose, 1000.0) <= peak_current(tight, 1000.0)

    def test_clipped_moves_do_not_merge_neighbours(self):
        """Phases 1001 and 1003 of a 2000 ps period, 1 ps of slack: a
        grid anchored at phase 0 moved both to 1002 and raised the peak
        from 1.867 to 2.0 mA. They must move apart instead."""
        arrivals = [1001.0, 5003.0]
        adjusted = spread_arrivals(arrivals, 2000.0, max_adjust_ps=1.0)
        assert adjusted == [1000.0, 5004.0]
        assert peak_current(adjusted, 2000.0) < \
            peak_current(arrivals, 2000.0)

    def test_zero_slack_is_identity(self):
        arrivals = [10.0, 20.0, 30.0]
        assert spread_arrivals(arrivals, 1000.0, 0.0) == arrivals

    def test_empty_ok(self):
        assert spread_arrivals([], 1000.0, 10.0) == []

    def test_negative_slack_rejected(self):
        with pytest.raises(ConfigurationError):
            spread_arrivals([0.0], 1000.0, -1.0)
