"""The metrics registry: counters and gauges fed by events and probes.

:class:`MetricsRegistry` turns the kernel's existing observability
primitives — signal probes (:meth:`Signal.attach_probe`) and router
events (``arbitration_grant``, ``credit_exhausted``, ``vc_allocated``,
``inject``, ``packet``) — into per-link, per-router, per-port and
per-VC statistics:

* **link utilization** and flit counts, from a probe on each link's
  consumer-side flit wire (every launched flit is one wire change);
* **buffer occupancy** (peak and time-weighted mean) per router, from
  the arrival wires (+1, two ticks after the wire changes — the link
  latency) and ``arbitration_grant`` events (-1, every grant dequeues
  exactly one input-FIFO flit);
* **credit-stall cycles**: per output (and VC), from a
  ``credit_exhausted`` edge until the starved output next forwards a
  flit — the full head-of-line penalty of the starvation episode;
* **grant counts** per router, output port and VC;
* **latency histograms**: log2-bucketed with exact p50/p95/p99 from the
  raw samples of the run.

Everything is populated from *changes*, so the cost is proportional to
network activity and a quiescent network still fast-forwards in O(1):
probes and event subscriptions never force the kernel awake.

Determinism contract: per-signal probe streams and per-router event
sequences are identical across kernel modes; cross-signal dispatch
order within a tick is not. Every update here is therefore either
order-independent within a tick (counter increments) or follows a
fixed rule (occupancy applies same-tick arrivals and dequeues in
router order: dequeue before same-tick arrival, matching the router's
own on-edge sequence), which makes :meth:`MetricsRegistry.summary`
byte-identical between ``activity_driven`` True and False.
"""

from __future__ import annotations

from collections import deque
from copy import copy
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import SimulationError
from repro.fabric.link import LINK_LATENCY_TICKS
from repro.noc.stats import LatencySummary
from repro.sim.kernel import SimKernel


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
        """Hottest links: ``(name, flits, utilization)``, busiest first."""
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
        grants)`` — ranked by credit-stall burden, then occupancy."""
        stall_by_router: dict[str, float] = {}
        for key, cycles in self.stall_cycles.items():
            router = key.split(":", 1)[0]
            stall_by_router[router] = stall_by_router.get(router, 0.0) + cycles
        names = set(self.router_grants) | set(stall_by_router)
        ranked = sorted(
            names,
            key=lambda name: (stall_by_router.get(name, 0.0),
                              self.occupancy_mean.get(name, 0.0),
                              self.router_grants.get(name, 0), name),
            reverse=True,
        )
        return [(name,
                 stall_by_router.get(name, 0.0),
                 self.occupancy_mean.get(name, 0.0),
                 self.router_grants.get(name, 0))
                for name in ranked[:k]]

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
    """

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._start_tick = kernel.tick
        self.link_flits: dict[str, int] = {}
        self._link_busy: dict[str, TimeWeightedGauge] = {}  # tree channels
        self._credit_links: set[str] = set()
        self.router_grants: dict[str, int] = {}
        self.port_grants: dict[str, int] = {}
        self.vc_allocations: dict[str, int] = {}
        self._occupancy: dict[str, TimeWeightedGauge] = {}
        self._pending: dict[str, deque[int]] = {}
        # (router, output, vc) -> (port key, occupancy gauge, pending
        # arrivals), resolved at a slot's first event.
        self._slots: dict[tuple, tuple] = {}
        # Open credit-stall episodes: port key -> starting tick.
        self._stall_open: dict[str, int] = {}
        self.stall_ticks: dict[str, int] = {}
        self.stall_events: dict[str, int] = {}
        self.histogram = LatencyHistogram()
        self.packets_injected = 0
        self.packets_delivered = 0
        self.flits_delivered = 0
        self._port_names: dict[tuple[str, int], str] = {}

    # -- attachment ------------------------------------------------------

    def attach(self, network) -> "MetricsRegistry":
        wires = list(network.flit_wires())
        # A credit wire ends in its consumer's input FIFO: those routers
        # get an occupancy gauge (in router order).
        fifo_routers = {consumer for _name, _signal, consumer, is_credit
                        in wires if is_credit}
        for name, router, labels in network.switches():
            self.router_grants.setdefault(name, 0)
            for port, label in enumerate(labels):
                self._port_names[(name, port)] = label
            if router in fifo_routers:
                self._occupancy[router] = TimeWeightedGauge(self.kernel.tick)
                self._pending[router] = deque()
        for name, signal, consumer, is_credit in wires:
            self._watch_wire(name, signal, consumer, is_credit)
        kernel = self.kernel
        kernel.subscribe("arbitration_grant", self._on_grant)
        kernel.subscribe("credit_exhausted", self._on_credit_exhausted)
        kernel.subscribe("vc_allocated", self._on_vc_allocated)
        kernel.subscribe("inject", self._on_inject)
        kernel.subscribe("packet", self._on_packet)
        return self

    def _watch_wire(self, name: str, signal, consumer: str | None,
                    is_credit: bool) -> None:
        self.link_flits[name] = 0
        if is_credit:
            self._credit_links.add(name)
            arrive = (None if consumer is None
                      else self._pending[consumer].append)

            def on_change(tick, sig, old, new, _name=name,
                          _flits=self.link_flits, _arrive=arrive):
                if new is not None:
                    _flits[_name] += 1
                    if _arrive is not None:
                        _arrive(tick + LINK_LATENCY_TICKS)
        else:
            busy = self._link_busy[name] = TimeWeightedGauge(
                self.kernel.tick)

            def on_change(tick, sig, old, new, _name=name, _busy=busy):
                if new is not None:
                    self.link_flits[_name] += 1
                _busy.update(tick, 0 if new is None else 1)
        signal.attach_probe(on_change)

    # -- event handlers --------------------------------------------------

    def _slot(self, router: str, port: int, vc) -> tuple:
        """``(port key, occupancy gauge, pending arrivals)`` of one
        ``(router, output, vc)``, resolved on its first event; the gauge
        and deque are None for a router without input FIFOs."""
        slot = self._slots.get((router, port, vc))
        if slot is None:
            port_name = self._port_names.get((router, port), f"p{port}")
            key = (f"{router}:{port_name}" if vc is None
                   else f"{router}:{port_name}:vc{vc}")
            slot = self._slots[router, port, vc] = (
                key, self._occupancy.get(router), self._pending.get(router))
        return slot

    def _on_grant(self, tick: int, data: dict) -> None:
        router = data["router"]
        try:
            key, gauge, pending = self._slots[router, data["output"],
                                              data.get("vc")]
        except KeyError:
            key, gauge, pending = self._slot(router, data["output"],
                                             data.get("vc"))
        grants = self.router_grants
        grants[router] = grants.get(router, 0) + 1
        grants = self.port_grants
        grants[key] = grants.get(key, 0) + 1
        stall_open = self._stall_open
        if stall_open and key in stall_open:
            self.stall_ticks[key] = (self.stall_ticks.get(key, 0)
                                     + tick - stall_open.pop(key))
        if gauge is None:
            return
        # Same-tick rule matching the router's on-edge order: the
        # dequeue happens before this tick's arrivals are enqueued, so
        # only arrivals that landed on *earlier* ticks go in first (+1
        # each), then the dequeue (-1). Inline TimeWeightedGauge.update,
        # the same float additions in the same order.
        value, last = gauge.value, gauge._last_tick
        integral = gauge._integral
        while pending and pending[0] < tick:
            arrival = pending.popleft()
            integral += value * (arrival - last)
            last = arrival
            value += 1
            if value > gauge.peak:
                gauge.peak = value
        if tick < last:
            raise SimulationError(
                f"gauge update at tick {tick} after tick {last}")
        gauge._integral = integral + value * (tick - last)
        gauge._last_tick = tick
        gauge.value = value - 1

    def _on_credit_exhausted(self, tick: int, data: dict) -> None:
        key = self._slot(data["router"], data["output"], data.get("vc"))[0]
        if key not in self._stall_open:
            self._stall_open[key] = tick
            self.stall_events[key] = self.stall_events.get(key, 0) + 1

    def _on_vc_allocated(self, tick: int, data: dict) -> None:
        key = self._slot(data["router"], data["output"], data["vc"])[0]
        self.vc_allocations[key] = self.vc_allocations.get(key, 0) + 1

    def _on_inject(self, tick: int, packet) -> None:
        self.packets_injected += 1

    def _on_packet(self, tick: int, packet) -> None:
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
        elapsed_ticks = end - self._start_tick
        elapsed_cycles = elapsed_ticks / 2.0
        utilization: dict[str, float] = {}
        for name, flits in self.link_flits.items():
            if name in self._credit_links:
                # Each launched flit holds the wire for one cycle.
                utilization[name] = (flits / elapsed_cycles
                                     if elapsed_cycles else 0.0)
            else:
                utilization[name] = self._link_busy[name].mean(end)
        occupancy_peak: dict[str, int] = {}
        occupancy_mean: dict[str, float] = {}
        for router, gauge in self._occupancy.items():
            # Arrivals still pending at the end of the run have landed
            # in the FIFOs by now; fold them into a copy, so the live
            # gauge still applies a same-tick dequeue before them.
            gauge = copy(gauge)
            for arrival in self._pending[router]:
                if arrival > end:
                    break
                gauge.add(arrival, 1)
            occupancy_peak[router] = gauge.peak
            occupancy_mean[router] = gauge.mean(end)
        stall_cycles = {key: ticks / 2.0
                        for key, ticks in self.stall_ticks.items()}
        for key, start in self._stall_open.items():
            stall_cycles[key] = (stall_cycles.get(key, 0.0)
                                 + (end - start) / 2.0)
        return MetricsSummary(
            elapsed_cycles=elapsed_cycles,
            packets_injected=self.packets_injected,
            packets_delivered=self.packets_delivered,
            flits_delivered=self.flits_delivered,
            link_flits=dict(self.link_flits),
            link_utilization=utilization,
            router_grants=dict(self.router_grants),
            port_grants=dict(self.port_grants),
            occupancy_peak=occupancy_peak,
            occupancy_mean=occupancy_mean,
            stall_cycles=stall_cycles,
            stall_events=dict(self.stall_events),
            vc_allocations=dict(self.vc_allocations),
            latency=self.histogram.summary().to_dict(),
            latency_buckets=self.histogram.buckets(),
        )


def attach_metrics(network) -> MetricsRegistry:
    """Instrument a built network (any registered fabric) with the
    metrics registry. Attach before injecting traffic."""
    return MetricsRegistry(network.kernel).attach(network)
