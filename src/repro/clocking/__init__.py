"""Clock distribution: trees, phases, variation, and mesochronous baselines.

The IC-NoC distributes the clock along the branches of the NoC tree,
inverting it at every pipeline stage so that adjacent stages clock on
alternating edges. This package models that distribution (insertion delays,
per-node polarity, skew), the process-variation Monte Carlo and the
graceful-degradation and yield experiments built on it (plain functions
over a built network's ``channel_specs``), the power of competing
distribution styles, and the conventional mesochronous synchronizers the
paper's Section 2 compares against.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClockTree",
    "ClockTreeNode",
    "VariationModel",
    "DegradationPoint",
    "graceful_degradation_curve",
    "timing_yield",
    "synchronous_yield",
    "GatingStats",
    "TwoFlopSynchronizer",
    "PhaseDetectorScheme",
    "ICNoCCrossing",
    "forwarded_clock_power_mw",
    "balanced_tree_clock_power_mw",
    "ClockPowerBreakdown",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.clocking.clock_tree": ("ClockTree", "ClockTreeNode"),
    "repro.clocking.variation": (
        "VariationModel", "DegradationPoint", "graceful_degradation_curve",
        "timing_yield", "synchronous_yield",
    ),
    "repro.clocking.gating": ("GatingStats",),
    "repro.clocking.mesochronous": (
        "TwoFlopSynchronizer", "PhaseDetectorScheme", "ICNoCCrossing",
    ),
    "repro.clocking.power": (
        "forwarded_clock_power_mw", "balanced_tree_clock_power_mw",
        "ClockPowerBreakdown",
    ),
})
