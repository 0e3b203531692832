"""EXP-GD — graceful degradation and timing safety under variation.

* f_max vs process-variation sigma: decreasing but never zero ("correct
  by construction");
* Monte Carlo yield of the IC-NoC at a fixed frequency recovers to 100 %
  by slowing the clock;
* the contrast: a same-edge globally synchronous chip's hold-failure
  yield is frequency-independent — broken is broken.
"""

from repro.analysis.plots import ascii_plot
from repro.analysis.tables import format_table
from repro.core.degradation import (
    graceful_degradation_curve,
    synchronous_yield,
    timing_yield,
)
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.tech.flipflop import FF_90NM


def run_degradation():
    net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
    specs = net.channel_specs
    sigmas = [0.0, 0.1, 0.2, 0.3, 0.5, 0.8]
    curve = graceful_degradation_curve(specs, FF_90NM, sigmas, samples=40)
    yields = {
        "icnoc@1.0GHz": timing_yield(specs, FF_90NM, 1.0, sigma=0.3,
                                     samples=120),
        "icnoc@0.7GHz": timing_yield(specs, FF_90NM, 0.7, sigma=0.3,
                                     samples=120),
        "icnoc@0.4GHz": timing_yield(specs, FF_90NM, 0.4, sigma=0.3,
                                     samples=120),
        "sync_60ps_skew": synchronous_yield(FF_90NM, skew_sigma_ps=60.0,
                                            crossings=len(specs),
                                            samples=120),
    }
    return curve, yields


def test_graceful_degradation(benchmark, log):
    curve, yields = benchmark.pedantic(run_degradation, rounds=1,
                                       iterations=1)

    log.add("EXP-GD", "nominal f_max (skew windows only)", 1.449,
            curve[0].f_max_mean_ghz, "GHz", tolerance=0.01)
    assert log.all_match

    # Shape 1: f_max decreases with sigma but stays positive everywhere —
    # "timing is guaranteed to hold at some clock frequency, no matter
    # what the process variation is".
    means = [p.f_max_mean_ghz for p in curve]
    assert means == sorted(means, reverse=True)
    assert all(p.f_max_worst_ghz > 0.0 for p in curve)

    # Shape 2: IC-NoC yield recovers by slowing the clock.
    assert yields["icnoc@1.0GHz"] < 1.0
    assert yields["icnoc@0.4GHz"] == 1.0
    assert yields["icnoc@0.4GHz"] >= yields["icnoc@0.7GHz"] >= \
        yields["icnoc@1.0GHz"]

    # Shape 3: the synchronous baseline is dead at any frequency.
    assert yields["sync_60ps_skew"] < 0.05

    print()
    print(ascii_plot([p.sigma for p in curve],
                     [p.f_max_mean_ghz for p in curve],
                     x_label="delay sigma (fraction)",
                     y_label="mean f_max (GHz)",
                     title="Graceful degradation: f_max vs variation"))
    print()
    print(format_table(
        ["design point", "yield"],
        [[name, f"{value:.1%}"] for name, value in yields.items()],
        title="Monte Carlo timing yield (sigma=0.3 for IC-NoC rows)",
    ))
