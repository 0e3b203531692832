"""Telemetry: metrics registry, flit tracing, congestion attribution.

The activity-proportional observability layer over the kernel's events
and probes (see docs/observability.md). Typical use::

    from repro.telemetry import attach_metrics, attach_tracer

    net = FabricConfig(topology="torus", ports=16).build()
    registry = attach_metrics(net)          # before injecting traffic
    tracer = attach_tracer(net, sample_period=16)
    ... run traffic ...
    summary = registry.summary()            # picklable MetricsSummary
    print(render_metrics_report(summary))
    print(tracer.render())
"""

from repro.telemetry.attribution import (
    congestion_snapshot,
    render_metrics_report,
)
from repro.telemetry.metrics import (
    attach_metrics,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSummary,
    TimeWeightedGauge,
    percentile_from_buckets,
)
from repro.telemetry.trace import (
    attach_tracer,
    FlitTracer,
    HopRecord,
    PacketTrace,
)

__all__ = [
    "attach_metrics",
    "attach_tracer",
    "congestion_snapshot",
    "FlitTracer",
    "HopRecord",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSummary",
    "PacketTrace",
    "percentile_from_buckets",
    "render_metrics_report",
    "TimeWeightedGauge",
]
