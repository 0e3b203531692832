"""Supply peak-current analysis — the paper's third future-work item.

"By the use of weighted skew variation on links, it is possible to
distribute power surge temporally, by making sure that the leaves of the
tree are not clocked within close temporal proximity" (Section 7).

Every register bank draws a triangular current pulse when its clock edge
arrives. In a zero-skew globally synchronous chip all pulses align and the
peaks add; in the IC-NoC the clock-tree insertion delays (plus the
alternating-edge half-period offsets) naturally spread arrivals, and
deliberately weighting link skews spreads them further.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np


def current_profile(arrival_times_ps: list[float], period_ps: float,
                    pulse_width_ps: float = 30.0,
                    amplitude_ma: float = 1.0,
                    resolution_ps: float = 1.0) -> np.ndarray:
    """Superposed clock-edge current over one period (wrap-around).

    Each arrival contributes a triangular pulse of the given width and peak
    amplitude, centred on ``arrival mod period``. Returns the sampled
    waveform in mA.
    """
    if period_ps <= 0.0 or pulse_width_ps <= 0.0 or resolution_ps <= 0.0:
        raise ConfigurationError("period, width, resolution must be positive")
    import numpy as np
    bins = max(1, int(round(period_ps / resolution_ps)))
    waveform = np.zeros(bins)
    half = pulse_width_ps / 2.0
    times = np.arange(bins) * resolution_ps
    for arrival in arrival_times_ps:
        centre = arrival % period_ps
        # Distance on the circular time axis.
        dist = np.abs(times - centre)
        dist = np.minimum(dist, period_ps - dist)
        pulse = np.clip(1.0 - dist / half, 0.0, None) * amplitude_ma
        waveform += pulse
    return waveform


def peak_current(arrival_times_ps: list[float], period_ps: float,
                 pulse_width_ps: float = 30.0,
                 amplitude_ma: float = 1.0) -> float:
    """Peak of the superposed current waveform, in mA."""
    profile = current_profile(arrival_times_ps, period_ps, pulse_width_ps,
                              amplitude_ma)
    return float(profile.max())


def peak_current_ratio(arrival_times_ps: list[float], period_ps: float,
                       pulse_width_ps: float = 30.0) -> float:
    """Peak current relative to the zero-skew (all-aligned) case.

    1.0 means no improvement; an N-sink chip with perfectly spread edges
    approaches pulse_width/period * overlap-limited values.
    """
    if not arrival_times_ps:
        raise ConfigurationError("need at least one arrival")
    spread = peak_current(arrival_times_ps, period_ps, pulse_width_ps)
    aligned = peak_current([0.0] * len(arrival_times_ps), period_ps,
                           pulse_width_ps)
    return spread / aligned


def spread_arrivals(arrival_times_ps: list[float], period_ps: float,
                    max_adjust_ps: float) -> list[float]:
    """The weighted-skew extension: nudge arrivals to flatten the peak.

    Each arrival may move by at most ``max_adjust_ps`` (the slack the
    timing windows of eqs. (1)-(7) leave at the operating frequency). The
    heuristic assigns the phase-sorted arrivals targets uniformly spread
    over the period, then clips each move to the allowed window — simple,
    and already close to the achievable flattening for realistic slacks.

    The target grid is anchored where it fits the sorted phases best (the
    median offset), not at phase 0, and moves are never wrapped. Each new
    phase is ``clip(target, phase - slack, phase + slack)``, monotone in
    both, so arrivals keep their circular order and no gap between
    neighbouring phases shrinks below ``min(gap, period / n)``: clipped
    moves never cross or merge neighbours.
    """
    if max_adjust_ps < 0.0:
        raise ConfigurationError("max_adjust_ps must be >= 0")
    n = len(arrival_times_ps)
    if n == 0:
        return []
    import numpy as np
    phases = np.asarray(arrival_times_ps, dtype=float) % period_ps
    order = np.argsort(phases, kind="stable")
    grid = np.arange(n) * (period_ps / n)
    anchor = float(np.median(phases[order] - grid))
    adjusted = list(arrival_times_ps)
    for rank, index in enumerate(order):
        delta = anchor + grid[rank] - phases[index]
        adjusted[index] = arrival_times_ps[index] + float(
            np.clip(delta, -max_adjust_ps, max_adjust_ps))
    return adjusted
