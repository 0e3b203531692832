"""Property tests on the peak-current model."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.physical.peak_current import (
    current_profile,
    peak_current,
    spread_arrivals,
)


@st.composite
def arrival_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    period = draw(st.sampled_from([500.0, 1000.0, 2000.0]))
    arrivals = [draw(st.floats(min_value=0.0, max_value=3.0 * period))
                for _ in range(n)]
    return arrivals, period


class TestPeakProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrival_sets())
    def test_peak_bounded_by_aligned_case(self, case):
        """No arrangement is worse than all edges aligned."""
        arrivals, period = case
        spread = peak_current(arrivals, period)
        aligned = peak_current([0.0] * len(arrivals), period)
        assert spread <= aligned + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(arrival_sets())
    def test_peak_at_least_single_pulse(self, case):
        """At least one pulse's worth of current, up to the 1 ps sampling
        grid's discretization of the 15 ps pulse half-width."""
        arrivals, period = case
        assert peak_current(arrivals, period) >= 1.0 - 1.0 / 15.0 - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(arrival_sets())
    def test_charge_conserved_by_phase(self, case):
        """Total charge per period is independent of arrival phases."""
        arrivals, period = case
        moved = current_profile(arrivals, period).sum()
        aligned = current_profile([0.0] * len(arrivals), period).sum()
        assert np.isclose(moved, aligned, rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(arrival_sets(),
           st.floats(min_value=0.0, max_value=400.0))
    # A grid anchored at phase 0 wrapped 1001 past 1003 and merged them.
    @example(([1001.0, 5003.0], 2000.0), 1.0)
    def test_spreading_never_hurts_much(self, case, slack):
        """The weighted-skew heuristic never raises the peak beyond noise
        and respects its adjustment budget."""
        arrivals, period = case
        adjusted = spread_arrivals(arrivals, period, max_adjust_ps=slack)
        for before, after in zip(arrivals, adjusted):
            assert abs(after - before) <= slack + 1e-9
        before_peak = peak_current(arrivals, period)
        after_peak = peak_current(adjusted, period)
        assert after_peak <= before_peak * 1.05 + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=64))
    def test_full_slack_approaches_uniform_spread(self, n):
        """With unconstrained slack the heuristic reaches the ideal
        uniform spread (peak limited by pulse overlap only)."""
        period = 1000.0
        adjusted = spread_arrivals([0.0] * n, period,
                                   max_adjust_ps=period)
        uniform = [i * period / n for i in range(n)]
        assert peak_current(adjusted, period) <= \
            peak_current(uniform, period) * 1.10 + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(arrival_sets(),
           st.floats(min_value=0.0, max_value=400.0))
    @example(([1001.0, 5003.0], 2000.0), 1.0)
    def test_spreading_keeps_circular_order(self, case, slack):
        """Clipped moves never cross neighbouring phases, and no gap
        between neighbours shrinks below the uniform spacing unless it
        was already narrower (then it does not shrink at all)."""
        arrivals, period = case
        adjusted = spread_arrivals(arrivals, period, max_adjust_ps=slack)
        n = len(arrivals)
        order = sorted(range(n), key=lambda i: (arrivals[i] % period, i))
        # Unroll the circle at the first sorted phase: each arrival's
        # adjusted phase, measured from where it started, in sorted order.
        before = [arrivals[i] % period for i in order]
        after = [before[k] + adjusted[i] - arrivals[i]
                 for k, i in enumerate(order)]
        before.append(before[0] + period)
        after.append(after[0] + period)
        for k in range(n):
            gap_before = before[k + 1] - before[k]
            gap_after = after[k + 1] - after[k]
            assert gap_after >= min(gap_before, period / n) - 1e-6
