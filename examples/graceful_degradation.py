"""Graceful degradation: how the IC-NoC absorbs process variation by
slowing the clock — and why a conventional same-edge synchronous chip
cannot do the same.

Run:  python examples/graceful_degradation.py
"""

from repro.analysis.plots import ascii_plot
from repro.analysis.tables import format_table
from repro.clocking import (
    graceful_degradation_curve,
    synchronous_yield,
    timing_yield,
)
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.tech import FF_90NM


def main() -> None:
    net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
    specs = net.channel_specs
    print(f"analysing {len(specs)} link channels of a 64-port IC-NoC")
    print()

    # --- f_max vs variation ------------------------------------------
    sigmas = [0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2]
    curve = graceful_degradation_curve(specs, FF_90NM, sigmas, samples=40)
    print(ascii_plot(
        [p.sigma for p in curve], [p.f_max_mean_ghz for p in curve],
        x_label="delay sigma", y_label="f_max (GHz)",
        title="Max safe frequency vs process variation (never zero)",
    ))
    print()
    print(format_table(
        ["sigma", "worst f_max", "mean f_max", "best f_max"],
        [[p.sigma, round(p.f_max_worst_ghz, 3), round(p.f_max_mean_ghz, 3),
          round(p.f_max_best_ghz, 3)] for p in curve],
        title="Monte Carlo f_max (GHz), 40 samples per point",
    ))
    print()

    # --- yield: the IC-NoC knob vs the synchronous dead end -----------
    print("Timing yield at sigma = 0.3 (fraction of sampled chips safe):")
    for f in (1.3, 1.0, 0.7, 0.4):
        y = timing_yield(specs, FF_90NM, frequency=f, sigma=0.3,
                         samples=150)
        print(f"  IC-NoC at {f:.1f} GHz: {y:6.1%}")
    print("  -> any chip can be rescued by lowering the clock.")
    print()
    for skew in (20.0, 40.0, 60.0):
        y = synchronous_yield(FF_90NM, skew_sigma_ps=skew,
                              crossings=len(specs), samples=150)
        print(f"  same-edge synchronous, skew sigma {skew:.0f} ps: "
              f"{y:6.1%}  (at ANY frequency)")
    print("  -> same-edge hold failures are frequency-independent;")
    print("     no clock slowdown brings these chips back.")


if __name__ == "__main__":
    main()
