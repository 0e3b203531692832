"""Analysis helpers: tables, plots, sweeps, and the paper-vs-measured
record (:mod:`repro.analysis.experiments`)."""

from repro.analysis.tables import format_table
from repro.analysis.plots import ascii_plot
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentLog,
    PaperComparison,
    evaluate,
)
from repro.analysis.sweeps import (
    SweepResult,
    sweep,
    measure_offered_vs_accepted,
    saturation_throughput,
)
from repro.analysis.parallel import (
    LoadPoint,
    default_workers,
    evaluate_load_point,
    expand_loads,
    measure_load_points,
    parallel_map,
    parallel_saturation_throughput,
    point_seed,
)

__all__ = [
    "format_table",
    "ascii_plot",
    "PaperComparison",
    "ExperimentLog",
    "EXPERIMENTS",
    "evaluate",
    "SweepResult",
    "sweep",
    "measure_offered_vs_accepted",
    "saturation_throughput",
    "LoadPoint",
    "default_workers",
    "evaluate_load_point",
    "expand_loads",
    "measure_load_points",
    "parallel_map",
    "parallel_saturation_throughput",
    "point_seed",
]
