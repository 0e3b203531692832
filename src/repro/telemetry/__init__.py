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

from repro._lazy import lazy_exports
from repro.telemetry.metrics import attach_metrics
from repro.telemetry.trace import attach_tracer

__all__ = [
    "attach_metrics",
    "attach_tracer",
    "congestion_snapshot",
    "FlitTracer",
    "HopRecord",
    "MetricsRegistry",
    "MetricsSummary",
    "PacketTrace",
    "render_metrics_report",
    "TimeWeightedGauge",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.attribution": (
        "congestion_snapshot", "render_metrics_report",
    ),
    "repro.telemetry.metrics": (
        "attach_metrics", "MetricsRegistry", "MetricsSummary",
        "TimeWeightedGauge",
    ),
    "repro.telemetry.trace": (
        "attach_tracer", "FlitTracer", "HopRecord", "PacketTrace",
    ),
})
