"""Parameter sweeps and saturation analysis.

Generic helpers used by the ablation benches and examples: sweep a factory
over one parameter, collect per-point records, and locate a network's
saturation throughput (the standard NoC metric: the offered load beyond
which accepted throughput stops tracking offered load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.base import TrafficGenerator, inject_window


#: Default load grid of the saturation searches (serial and parallel).
DEFAULT_SATURATION_LOADS = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.55,
                            0.70, 0.85)


@dataclass
class SweepPoint:
    """One evaluated parameter value."""

    parameter: Any
    metrics: dict[str, float]


@dataclass
class SweepResult:
    """All points of a sweep, in evaluation order."""

    name: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, metric: str) -> tuple[list[Any], list[float]]:
        """(parameter values, metric values) suitable for plotting."""
        xs = [p.parameter for p in self.points]
        ys = []
        for point in self.points:
            if metric not in point.metrics:
                raise ConfigurationError(
                    f"metric {metric!r} missing at {point.parameter!r}"
                )
            ys.append(point.metrics[metric])
        return xs, ys


def sweep(name: str, values: list[Any],
          evaluate: Callable[[Any], dict[str, float]],
          workers: int | None = None) -> SweepResult:
    """Evaluate ``evaluate(value)`` for every value, collecting metrics.

    With ``workers`` > 1 the points are evaluated in worker processes when
    ``evaluate`` and the values are picklable (module-level functions and
    plain data); otherwise the sweep silently runs serially. Results are
    identical either way and always in ``values`` order.
    """
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    from repro.analysis.parallel import parallel_map
    metrics = parallel_map(evaluate, values, workers)
    result = SweepResult(name=name)
    for value, point_metrics in zip(values, metrics):
        result.points.append(SweepPoint(parameter=value,
                                        metrics=point_metrics))
    return result


def measure_offered_vs_accepted(network_factory: Callable[[], Any],
                                generator_factory: Callable[[float], TrafficGenerator],
                                load: float, cycles: int = 300,
                                seed: int = 0,
                                telemetry: bool = False,
                                trace_sample_period: int | None = None
                                ) -> dict[str, Any]:
    """Run one load point; report offered/accepted throughput and latency.

    Accepted throughput is measured over the injection window only (not
    the drain), which is what saturates; delivery of the backlog is still
    verified via the drain.

    ``telemetry=True`` attaches a metrics registry
    (:mod:`repro.telemetry`) to the freshly built network and adds its
    picklable :class:`~repro.telemetry.metrics.MetricsSummary` under the
    ``"telemetry"`` key; ``trace_sample_period=N`` additionally traces
    every Nth packet and adds the
    :class:`~repro.telemetry.trace.PacketTrace` list under ``"traces"``.
    Both ride the event/probe fast path, so untraced points are
    unaffected and traced points stay bit-identical across kernel modes.
    """
    if not 0.0 < load <= 1.0:
        raise ConfigurationError("load must be in (0, 1]")
    net = network_factory()
    registry = tracer = None
    if telemetry:
        from repro.telemetry import attach_metrics
        registry = attach_metrics(net)
    if trace_sample_period is not None:
        from repro.telemetry import attach_tracer
        tracer = attach_tracer(net, trace_sample_period)
    gen = generator_factory(load)
    schedule = gen.generate(cycles, np.random.default_rng(seed))
    ports = gen.ports
    # Delivered flits are sampled at the window end, before the drain.
    inject_window(net, schedule, cycles)
    accepted = net.stats.flits_delivered / cycles / ports
    offered = sum(i.size_flits for i in schedule) / cycles / ports
    drained = net.drain(max_ticks=500_000)
    latency = net.stats.latency.mean if net.stats.latencies_cycles else 0.0
    metrics: dict[str, Any] = {
        "offered": offered,
        "accepted_in_window": accepted,
        "mean_latency_cycles": latency,
        "drained": float(drained),
    }
    metrics.update(_run_energy_metrics(net))
    if registry is not None:
        metrics["telemetry"] = registry.summary()
    if tracer is not None:
        metrics["traces"] = tracer.traces
    return metrics


def _run_energy_metrics(net: Any) -> dict[str, float]:
    """Per-run energy of a drained measurement, when the network has a
    registered physical descriptor (every registry fabric does; custom
    networks without one simply omit the energy keys).

    Only the descriptor *lookup* may decline (``physical_model`` raises
    ``ConfigurationError`` for unregistered networks, ``TopologyError``
    covers custom structures without a floorplan rule) — a genuine bug
    inside a registered descriptor propagates instead of silently
    blanking the energy column."""
    from repro.errors import TopologyError
    from repro.physical.descriptor import physical_model
    from repro.physical.report import RunEnergyReport
    try:
        model = physical_model(net)
    except (ConfigurationError, TopologyError):
        return {}
    report = RunEnergyReport.from_run(net, model=model)
    return {
        "energy_pj_per_flit": report.energy_per_flit_pj,
        "mean_power_mw": report.mean_power_mw,
    }


def scan_saturation_curve(pairs: Any, efficiency_floor: float) -> float:
    """Walk (load, metrics) pairs upward; return the last load whose
    accepted throughput kept up with ``efficiency_floor`` times the
    offered load. Accepts a lazy iterable, so serial searches stop
    measuring at the first saturated point."""
    last_good = 0.0
    for load, metrics in pairs:
        if metrics["accepted_in_window"] < efficiency_floor * metrics["offered"]:
            return last_good
        last_good = load
    return last_good


def saturation_throughput(network_factory: Callable[[], Any],
                          generator_factory: Callable[[float], TrafficGenerator],
                          loads: list[float] | None = None,
                          cycles: int = 300,
                          efficiency_floor: float = 0.9,
                          workers: int | None = None) -> float:
    """Highest offered load still delivered at >= ``efficiency_floor``.

    Sweeps the offered load upward; saturation is declared at the first
    point whose in-window accepted throughput falls below the floor times
    the offered load, and the previous load is returned.

    With ``workers`` > 1, all candidate loads are evaluated concurrently
    (when the factories are picklable) and the same scan runs over the
    completed curve — the returned load is identical to the serial walk,
    which merely evaluates fewer points past saturation. For fully
    picklable specs see
    :func:`repro.analysis.parallel.parallel_saturation_throughput`.
    """
    if loads is None:
        loads = list(DEFAULT_SATURATION_LOADS)
    if workers is not None and workers > 1:
        from repro.analysis.parallel import parallel_map
        evaluate = partial(measure_offered_vs_accepted,
                           network_factory, generator_factory, cycles=cycles)
        results = parallel_map(evaluate, loads, workers)
        return scan_saturation_curve(zip(loads, results), efficiency_floor)
    lazy_pairs = (
        (load, measure_offered_vs_accepted(network_factory,
                                           generator_factory, load, cycles))
        for load in loads
    )
    return scan_saturation_curve(lazy_pairs, efficiency_floor)
