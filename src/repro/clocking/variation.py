"""Process-variation Monte Carlo and the graceful-degradation experiments.

The paper's claim: *"its timing can be made robust under any amount of
performance variability, by lowering the clock frequency"*. To exercise it
we perturb every channel delay with a systematic (die-level) component and a
random (within-die) component, then ask the timing solver for the maximum
safe frequency of the perturbed instance.

Delays are multiplied by log-normal factors so they remain positive for any
sigma — matching how delay variability is usually reported (a fractional
sigma of the nominal delay).

Two experiments are built on it:

* :func:`graceful_degradation_curve` — the maximum safe clock frequency of
  an IC-NoC instance as process variation grows. The curve decreases but
  never reaches zero: "timing is guaranteed to hold at some clock
  frequency, no matter what the process variation is" (Section 4).
* :func:`timing_yield` vs :func:`synchronous_yield` — fraction of Monte
  Carlo chip samples that work at a given frequency. The IC-NoC's yield can
  always be pushed to 1.0 by lowering f; a conventional same-edge
  synchronous system has skew-induced *hold* failures that no frequency
  can fix (:func:`repro.timing.link_timing.synchronous_hold_margin`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.flipflop import RegisterTiming
from repro.timing.link_timing import synchronous_hold_margin
from repro.timing.validator import (
    ChannelSpec,
    channels_max_frequency,
    validate_channels,
)


@dataclass(frozen=True)
class VariationModel:
    """Die-level + within-die multiplicative delay variation.

    Attributes:
        systematic_sigma: fractional sigma of the shared die-level factor
            (affects all delays of one sample equally).
        random_sigma: fractional sigma of the per-delay independent factor.
    """

    systematic_sigma: float = 0.0
    random_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.systematic_sigma < 0.0 or self.random_sigma < 0.0:
            raise ConfigurationError("variation sigmas must be >= 0")

    def _lognormal(self, rng: np.random.Generator, sigma: float,
                   size: int | None = None):
        if sigma == 0.0:
            return 1.0 if size is None else np.ones(size)
        # Parametrise so the *mean* of the factor is 1.0.
        mu = -0.5 * np.log1p(sigma * sigma)
        s = np.sqrt(np.log1p(sigma * sigma))
        return rng.lognormal(mean=mu, sigma=s, size=size)

    def sample_factors(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` multiplicative delay factors for one die sample."""
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        die = float(self._lognormal(rng, self.systematic_sigma))
        local = self._lognormal(rng, self.random_sigma, size=count)
        return die * np.asarray(local)


def perturb_channels(specs: list[ChannelSpec], model: VariationModel,
                     rng: np.random.Generator) -> list[ChannelSpec]:
    """One Monte Carlo sample: every delay scaled by an independent factor.

    Clock, data and accept delays of a channel vary independently — the
    pessimistic assumption, since correlated variation cancels out of
    ``delta_diff`` (the paper's point that the clock "is correlated with the
    delay of the data" is what makes real instances *easier* than this).
    """
    factors = model.sample_factors(3 * len(specs), rng)
    perturbed = []
    for i, spec in enumerate(specs):
        f_clk, f_data, f_acc = factors[3 * i: 3 * i + 3]
        perturbed.append(ChannelSpec(
            name=spec.name,
            clock_delay_ps=spec.clock_delay_ps * f_clk,
            data_delay_ps=spec.data_delay_ps * f_data,
            accept_delay_ps=spec.accept_delay_ps * f_acc,
        ))
    return perturbed


def perturb_channels_correlated(specs: list[ChannelSpec],
                                model: VariationModel,
                                rng: np.random.Generator) -> list[ChannelSpec]:
    """Variant where clock and data of one channel share their factor.

    Models the IC-NoC layout practice of routing the clock alongside the
    data wires, which correlates their variation and tightens delta_diff.
    """
    factors = model.sample_factors(2 * len(specs), rng)
    perturbed = []
    for i, spec in enumerate(specs):
        f_shared, f_acc = factors[2 * i: 2 * i + 2]
        perturbed.append(ChannelSpec(
            name=spec.name,
            clock_delay_ps=spec.clock_delay_ps * f_shared,
            data_delay_ps=spec.data_delay_ps * f_shared,
            accept_delay_ps=spec.accept_delay_ps * f_acc,
        ))
    return perturbed


@dataclass(frozen=True)
class DegradationPoint:
    """Max safe frequency statistics at one variation level."""

    sigma: float
    f_max_mean_ghz: float
    f_max_worst_ghz: float
    f_max_best_ghz: float


def graceful_degradation_curve(specs: list[ChannelSpec],
                               register: RegisterTiming,
                               sigmas: list[float],
                               samples: int = 50,
                               seed: int = 1) -> list[DegradationPoint]:
    """Monte Carlo f_max vs delay-variation sigma.

    Every sample is timing-safe at *some* frequency (the closed-form
    solver always returns a positive answer) — the correctness-by-
    construction property.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    points = []
    for sigma in sigmas:
        model = VariationModel(systematic_sigma=sigma / 2.0,
                               random_sigma=sigma)
        f_values = []
        for _ in range(samples):
            perturbed = perturb_channels(specs, model, rng)
            f_values.append(channels_max_frequency(perturbed, register))
        f_arr = np.asarray(f_values)
        points.append(DegradationPoint(
            sigma=sigma,
            f_max_mean_ghz=float(f_arr.mean()),
            f_max_worst_ghz=float(f_arr.min()),
            f_max_best_ghz=float(f_arr.max()),
        ))
    return points


def timing_yield(specs: list[ChannelSpec], register: RegisterTiming,
                 frequency: float, sigma: float, samples: int = 200,
                 seed: int = 2) -> float:
    """Fraction of variation samples that pass at ``frequency`` GHz."""
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    model = VariationModel(systematic_sigma=sigma / 2.0, random_sigma=sigma)
    passed = 0
    for _ in range(samples):
        perturbed = perturb_channels(specs, model, rng)
        report = validate_channels(perturbed, register, frequency)
        passed += report.passed
    return passed / samples


def synchronous_yield(register: RegisterTiming, skew_sigma_ps: float,
                      crossings: int, samples: int = 200,
                      data_min_delay_ps: float = 80.0,
                      seed: int = 3) -> float:
    """Yield of a same-edge globally synchronous system under skew.

    Each crossing sees a Gaussian skew (the worst direction of the pair, so
    the absolute value is what erodes the hold margin); a chip fails if
    *any* crossing's hold margin goes negative. Frequency does not appear:
    same-edge hold failures are frequency-independent, so this yield is the
    best the design can do at *any* clock rate — the contrast with the
    IC-NoC. ``data_min_delay_ps`` is the shortest launch-to-capture path
    (clk->Q plus minimum wire/logic), the usual hold fixing budget.
    """
    if samples < 1 or crossings < 1:
        raise ConfigurationError("samples and crossings must be >= 1")
    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(samples):
        skews = rng.normal(0.0, skew_sigma_ps, size=crossings)
        ok = all(
            synchronous_hold_margin(register, skew=abs(float(s)),
                                    data_min_delay=data_min_delay_ps) >= 0.0
            for s in skews
        )
        passed += ok
    return passed / samples
