"""Analysis helpers: tables, plots, the load-point sweep engine
(:mod:`repro.analysis.parallel`, where :func:`evaluate_load_point` is the
one way to measure a load point), and the paper-vs-measured record
(:mod:`repro.analysis.experiments`)."""

from repro.analysis.tables import format_table
from repro.analysis.plots import ascii_plot
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentLog,
    PaperComparison,
    evaluate,
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
    "LoadPoint",
    "default_workers",
    "evaluate_load_point",
    "expand_loads",
    "measure_load_points",
    "parallel_map",
    "parallel_saturation_throughput",
    "point_seed",
]
