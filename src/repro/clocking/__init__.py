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

from repro.clocking.clock_tree import ClockTree, ClockTreeNode
from repro.clocking.variation import (
    VariationModel,
    DegradationPoint,
    graceful_degradation_curve,
    timing_yield,
    synchronous_yield,
)
from repro.clocking.gating import GatingStats
from repro.clocking.mesochronous import (
    TwoFlopSynchronizer,
    PhaseDetectorScheme,
    ICNoCCrossing,
)
from repro.clocking.power import (
    forwarded_clock_power_mw,
    balanced_tree_clock_power_mw,
    ClockPowerBreakdown,
)

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
