"""The metrics registry: counters and gauges fed by probes and events.

:class:`MetricsRegistry` turns the kernel's observability primitives —
signal probes (:meth:`Signal.attach_probe`) and router events
(``arbitration_grant``, ``credit_exhausted``, ``vc_allocated``,
``inject``, ``packet``) — into per-link, per-router, per-port and
per-VC statistics:

* **link utilization** and flit counts, from a probe on each link's
  consumer-side flit wire (every launched flit is one wire change);
* **grant counts** per router, output port and VC: on a fabric whose
  routers drive their output wire in the granting edge, each grant is
  one change of that wire; elsewhere, one ``arbitration_grant`` event;
* **buffer occupancy** (peak and time-weighted mean) per router: +1 one
  link latency after a flit wire into it changes, -1 per grant (every
  grant dequeues exactly one input-FIFO flit);
* **credit-stall cycles**: per output (and VC), from a
  ``credit_exhausted`` edge until the starved output next forwards a
  flit — the full head-of-line penalty of the starvation episode;
* **latency histograms**: log2-bucketed with exact p50/p95/p99 from the
  raw samples of the run.

The probes and listeners are the network's telemetry tap
(:mod:`repro.telemetry.tap`), shared with a flit tracer; per flit they
make integer updates only, on tables the tap resolves at attach
(:class:`~repro.telemetry.tap.PortTables`). Everything is populated
from *changes*, so the cost is proportional to network
activity and a quiescent network still fast-forwards in O(1): probes
and event subscriptions never force the kernel awake.

Determinism contract: per-signal probe streams and per-router event
sequences are identical across kernel modes; cross-signal dispatch
order within a tick is not. Every update here is therefore either
order-independent within a tick (counter increments, tick sums) or
waits until the tick is over (a buffer's peak: see
:class:`~repro.telemetry.tap.BufferLevel`), which makes
:meth:`MetricsRegistry.summary` byte-identical between
``activity_driven`` True and False.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ConfigurationError, SimulationError
from repro.noc.stats import LatencySummary
from repro.sim.kernel import SimKernel
from repro.telemetry.tap import join


class TimeWeightedGauge:
    """A level tracked over simulated time: value, peak, weighted mean.

    Updates must arrive in non-decreasing tick order (same-tick updates
    are legal and carry zero width, which is what makes the integral
    independent of intra-tick dispatch order).
    """

    __slots__ = ("value", "peak", "_integral", "_start_tick", "_last_tick")

    def __init__(self, start_tick: int = 0, value: int = 0):
        self.value = value
        self.peak = value
        self._integral = 0.0
        self._start_tick = start_tick
        self._last_tick = start_tick

    def update(self, tick: int, value: int) -> None:
        if tick < self._last_tick:
            raise SimulationError(
                f"gauge update at tick {tick} after tick {self._last_tick}"
            )
        self._integral += self.value * (tick - self._last_tick)
        self._last_tick = tick
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, tick: int, delta: int) -> None:
        self.update(tick, self.value + delta)

    def mean(self, end_tick: int) -> float:
        """Time-weighted mean over [start, end_tick] (read-only)."""
        span = end_tick - self._start_tick
        if span <= 0:
            return float(self.value)
        integral = self._integral + self.value * (end_tick - self._last_tick)
        return integral / span


def _log2_bucket(value: float) -> int:
    """Smallest power-of-two upper bound >= value (minimum 1)."""
    bound = 1
    while bound < value:
        bound <<= 1
    return bound


class LatencyHistogram:
    """Raw latency samples plus their log2-bucketed view."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def record(self, cycles: float) -> None:
        self.samples.append(cycles)

    def buckets(self) -> dict[str, int]:
        """``{upper_bound: count}`` with power-of-two bounds, as strings
        so the mapping round-trips through JSON unchanged."""
        out: dict[str, int] = {}
        for sample in self.samples:
            key = str(_log2_bucket(sample))
            out[key] = out.get(key, 0) + 1
        return out

    def summary(self) -> LatencySummary:
        return LatencySummary.from_cycles(self.samples)


def percentile_from_buckets(buckets: dict[str, int], q: float) -> float:
    """Upper-bound percentile estimate from a log2 bucket map.

    Used when merging summaries across runs, where the raw samples are
    gone: the result is the smallest bucket bound covering the q-th
    percentile, i.e. exact percentiles degrade to bucket resolution.
    """
    items = sorted((int(k), v) for k, v in buckets.items())
    total = sum(count for _, count in items)
    if total == 0:
        return 0.0
    target = q / 100.0 * total
    cumulative = 0
    for bound, count in items:
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return float(items[-1][0])


def _check_size(k: int) -> None:
    """A report size: how many rows of a ranking to show, at least 1."""
    if k < 1:
        raise ConfigurationError(f"a report lists at least 1 row, got {k}")


@dataclass
class MetricsSummary:
    """Picklable, JSON-round-trippable snapshot of one run's metrics.

    Key format: links are keyed by link (or channel) name; port tables
    (``port_grants``, ``stall_cycles``, ``stall_events``,
    ``vc_allocations``) by ``router:port:vcN`` — always VC-suffixed,
    ``:vc0`` on single-VC fabrics, matching the unified router's event
    payloads (the tree's switch has no VCs and keys ports bare);
    :meth:`by_port` aggregates across the suffix. ``latency`` is a
    :meth:`LatencySummary.to_dict` mapping; ``latency_buckets`` the
    log2 histogram that survives merging.
    """

    elapsed_cycles: float = 0.0
    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    link_flits: dict[str, int] = field(default_factory=dict)
    link_utilization: dict[str, float] = field(default_factory=dict)
    router_grants: dict[str, int] = field(default_factory=dict)
    port_grants: dict[str, int] = field(default_factory=dict)
    occupancy_peak: dict[str, int] = field(default_factory=dict)
    occupancy_mean: dict[str, float] = field(default_factory=dict)
    stall_cycles: dict[str, float] = field(default_factory=dict)
    stall_events: dict[str, int] = field(default_factory=dict)
    vc_allocations: dict[str, int] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)
    latency_buckets: dict[str, int] = field(default_factory=dict)
    runs: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "elapsed_cycles": self.elapsed_cycles,
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "flits_delivered": self.flits_delivered,
            "link_flits": dict(self.link_flits),
            "link_utilization": dict(self.link_utilization),
            "router_grants": dict(self.router_grants),
            "port_grants": dict(self.port_grants),
            "occupancy_peak": dict(self.occupancy_peak),
            "occupancy_mean": dict(self.occupancy_mean),
            "stall_cycles": dict(self.stall_cycles),
            "stall_events": dict(self.stall_events),
            "vc_allocations": dict(self.vc_allocations),
            "latency": dict(self.latency),
            "latency_buckets": dict(self.latency_buckets),
            "runs": self.runs,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsSummary":
        return cls(**data)

    #: Tables keyed ``router:port:vcN`` (the VC-suffixed port scheme).
    PORT_TABLES = ("port_grants", "stall_cycles", "stall_events",
                   "vc_allocations")

    @staticmethod
    def port_of(key: str) -> str:
        """Strip a trailing ``:vcN`` suffix (bare legacy keys pass
        through unchanged)."""
        base, sep, last = key.rpartition(":")
        if sep and last.startswith("vc") and last[2:].isdigit():
            return base
        return key

    def by_port(self, table: str) -> dict[str, Any]:
        """A port-keyed table aggregated across VC suffixes.

        ``by_port("stall_cycles")`` sums ``m15:ej:vc0`` + ``m15:ej:vc1``
        under ``m15:ej`` — and accepts pre-normalization summaries whose
        keys never carried a suffix, so mixed-era comparisons keep one
        key scheme.
        """
        if table not in self.PORT_TABLES:
            raise KeyError(f"{table!r} is not a port-keyed table "
                           f"(one of {', '.join(self.PORT_TABLES)})")
        out: dict[str, Any] = {}
        for key, value in getattr(self, table).items():
            port = self.port_of(key)
            out[port] = out.get(port, 0) + value
        return out

    def top_links(self, k: int = 5) -> list[tuple[str, int, float]]:
        """Hottest links: ``(name, flits, utilization)``, busiest first;
        a link that carried no flit is not listed."""
        _check_size(k)
        ranked = sorted(
            self.link_flits,
            key=lambda name: (self.link_utilization.get(name, 0.0),
                              self.link_flits[name], name),
            reverse=True,
        )
        return [(name, self.link_flits[name],
                 self.link_utilization.get(name, 0.0))
                for name in ranked[:k] if self.link_flits[name] > 0]

    def top_routers(self, k: int = 5) -> list[tuple[str, float, float, int]]:
        """Most congested routers: ``(name, stall_cycles, occupancy_mean,
        grants)`` — ranked by credit-stall burden, then occupancy. A
        router with no grant, no stall cycle and an empty buffer
        throughout is not listed."""
        _check_size(k)
        stall_by_router: dict[str, float] = {}
        for key, cycles in self.stall_cycles.items():
            router = key.split(":", 1)[0]
            stall_by_router[router] = stall_by_router.get(router, 0.0) + cycles
        rows = [(name,
                 stall_by_router.get(name, 0.0),
                 self.occupancy_mean.get(name, 0.0),
                 self.router_grants.get(name, 0))
                for name in set(self.router_grants) | set(stall_by_router)]
        active = [row for row in rows if row[1] or row[2] or row[3]]
        active.sort(key=lambda row: (row[1], row[2], row[3], row[0]),
                    reverse=True)
        return active[:k]

    @classmethod
    def merge(cls, summaries: Iterable["MetricsSummary"]) -> "MetricsSummary":
        """Aggregate per-point summaries into one per-run view.

        Counters add, peaks take the max, time-weighted means combine
        weighted by elapsed cycles, and latency percentiles are
        recomputed from the merged log2 buckets (bucket-resolution
        upper bounds — the exact per-point percentiles live in the
        individual summaries).
        """
        summaries = list(summaries)
        if not summaries:
            return cls()
        merged = cls(runs=0)
        total_elapsed = sum(s.elapsed_cycles for s in summaries)
        for s in summaries:
            merged.runs += s.runs
            merged.elapsed_cycles += s.elapsed_cycles
            merged.packets_injected += s.packets_injected
            merged.packets_delivered += s.packets_delivered
            merged.flits_delivered += s.flits_delivered
            for key, value in s.link_flits.items():
                merged.link_flits[key] = merged.link_flits.get(key, 0) + value
            for table in ("router_grants", "port_grants", "stall_events",
                          "vc_allocations", "latency_buckets"):
                mine, theirs = getattr(merged, table), getattr(s, table)
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            for key, value in s.stall_cycles.items():
                merged.stall_cycles[key] = (
                    merged.stall_cycles.get(key, 0.0) + value)
            for key, value in s.occupancy_peak.items():
                merged.occupancy_peak[key] = max(
                    merged.occupancy_peak.get(key, 0), value)
            weight = s.elapsed_cycles / total_elapsed if total_elapsed else 0.0
            for table in ("link_utilization", "occupancy_mean"):
                mine, theirs = getattr(merged, table), getattr(s, table)
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0.0) + value * weight
        count = sum(s.latency.get("count", 0) for s in summaries)
        if count:
            mean = sum(s.latency.get("mean", 0.0) * s.latency.get("count", 0)
                       for s in summaries) / count
            nonempty = [s.latency for s in summaries
                        if s.latency.get("count", 0)]
            merged.latency = {
                "count": count,
                "mean": mean,
                "p50": percentile_from_buckets(merged.latency_buckets, 50),
                "p95": percentile_from_buckets(merged.latency_buckets, 95),
                "p99": percentile_from_buckets(merged.latency_buckets, 99),
                "maximum": max(d["maximum"] for d in nonempty),
                "minimum": min(d["minimum"] for d in nonempty),
            }
        else:
            merged.latency = LatencySummary.from_cycles([]).to_dict()
        return merged


class MetricsRegistry:
    """Live metric state for one network; build via :func:`attach_metrics`.

    Attach before injecting traffic: occupancy is tracked relative to
    the (empty) buffers at attach time.

    The per-flit state is the network's telemetry tap's
    :class:`~repro.telemetry.tap.PortTables`, opened as the registry
    joins; the registry itself counts packets and keeps the latency
    histogram.
    """

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._start_tick = kernel.tick
        self.histogram = LatencyHistogram()
        self.packets_injected = 0
        self.packets_delivered = 0
        self.flits_delivered = 0

    # -- attachment ------------------------------------------------------

    def attach(self, network) -> "MetricsRegistry":
        join(network, "registry", self)
        return self

    def _resolve(self, tap) -> None:
        self._tables = tap.tables

    # -- per-packet handlers (the tap calls these) --------------------------

    def _inject(self, tick: int, packet) -> None:
        self.packets_injected += 1

    def _deliver(self, tick: int, packet) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.flit_count
        self.histogram.record(packet.latency_cycles)

    # -- reporting -------------------------------------------------------

    def summary(self) -> MetricsSummary:
        """Freeze the current state into a :class:`MetricsSummary`.

        Safe to call repeatedly; results are a function of the state at
        the current kernel tick only.
        """
        end = self.kernel.tick
        return MetricsSummary(
            elapsed_cycles=(end - self._start_tick) / 2.0,
            packets_injected=self.packets_injected,
            packets_delivered=self.packets_delivered,
            flits_delivered=self.flits_delivered,
            **self._tables.report(self._start_tick, end),
            latency=self.histogram.summary().to_dict(),
            latency_buckets=self.histogram.buckets(),
        )


def attach_metrics(network) -> MetricsRegistry:
    """Instrument a built network (any registered fabric) with the
    metrics registry. Attach before injecting traffic."""
    return MetricsRegistry(network.kernel).attach(network)
