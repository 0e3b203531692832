"""Analysis helpers: tables, plots, the load-point sweep engine
(:mod:`repro.analysis.parallel`, where :func:`evaluate_load_point` is the
one way to measure a load point), and the paper-vs-measured record
(:mod:`repro.analysis.experiments`)."""

from repro._lazy import lazy_exports

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
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.tables": ("format_table",),
    "repro.analysis.plots": ("ascii_plot",),
    "repro.analysis.experiments": (
        "EXPERIMENTS", "ExperimentLog", "PaperComparison", "evaluate",
    ),
    "repro.analysis.parallel": (
        "LoadPoint", "default_workers", "evaluate_load_point", "expand_loads",
        "measure_load_points", "parallel_map",
        "parallel_saturation_throughput",
    ),
})
