"""Unit tests of the metrics primitives: gauge, histogram, summary."""

import json
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet
from repro.noc.stats import LatencySummary
from repro.telemetry import MetricsSummary, TimeWeightedGauge, attach_metrics
from repro.telemetry.metrics import (
    LatencyHistogram,
    _log2_bucket,
    percentile_from_buckets,
)
from repro.traffic.patterns import UniformRandom


class TestTimeWeightedGauge:
    def test_peak_tracks_maximum(self):
        gauge = TimeWeightedGauge()
        gauge.update(2, 3)
        gauge.update(4, 1)
        assert gauge.peak == 3
        assert gauge.value == 1

    def test_mean_is_time_weighted(self):
        gauge = TimeWeightedGauge(start_tick=0)
        gauge.update(0, 2)   # level 2 over [0, 10)
        gauge.update(10, 4)  # level 4 over [10, 20)
        assert gauge.mean(20) == pytest.approx(3.0)

    def test_mean_extends_last_level_to_end(self):
        gauge = TimeWeightedGauge(start_tick=0)
        gauge.update(0, 1)
        assert gauge.mean(100) == pytest.approx(1.0)

    def test_same_tick_updates_carry_zero_width(self):
        gauge = TimeWeightedGauge(start_tick=0)
        gauge.add(5, +1)
        gauge.add(5, +1)
        gauge.add(5, -1)
        assert gauge.peak == 2
        assert gauge.mean(10) == pytest.approx(0.5)  # level 1 over [5, 10)

    def test_mean_is_read_only(self):
        gauge = TimeWeightedGauge(start_tick=0)
        gauge.update(0, 2)
        assert gauge.mean(10) == gauge.mean(10)
        gauge.update(10, 2)  # still legal after reading

    def test_tick_regression_rejected(self):
        gauge = TimeWeightedGauge()
        gauge.update(10, 1)
        with pytest.raises(SimulationError):
            gauge.update(9, 2)

    def test_empty_span_mean(self):
        assert TimeWeightedGauge(start_tick=5, value=3).mean(5) == 3.0


class TestHistogram:
    def test_log2_buckets(self):
        assert _log2_bucket(0.5) == 1
        assert _log2_bucket(1.0) == 1
        assert _log2_bucket(1.5) == 2
        assert _log2_bucket(9.0) == 16

    def test_buckets_round_trip_json(self):
        histogram = LatencyHistogram((1.0, 3.0, 3.5, 20.0))
        buckets = histogram.buckets()
        assert buckets == {"1": 1, "4": 2, "32": 1}
        assert json.loads(json.dumps(buckets)) == buckets

    def test_summary_has_exact_percentiles(self):
        histogram = LatencyHistogram(float(i + 1) for i in range(100))
        summary = histogram.summary()
        assert summary.count == 100
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)

    def test_percentile_from_buckets_upper_bound(self):
        buckets = {"1": 50, "4": 40, "16": 10}
        assert percentile_from_buckets(buckets, 50) == 1.0
        assert percentile_from_buckets(buckets, 90) == 4.0
        assert percentile_from_buckets(buckets, 99) == 16.0

    def test_percentile_from_empty_buckets(self):
        assert percentile_from_buckets({}, 50) == 0.0


def sample_summary(**overrides):
    base = dict(
        elapsed_cycles=100.0,
        packets_injected=10, packets_delivered=10, flits_delivered=20,
        link_flits={"a>b": 20, "b>c": 5},
        link_utilization={"a>b": 0.2, "b>c": 0.05},
        router_grants={"a": 20, "b": 5},
        port_grants={"a:east": 20},
        occupancy_peak={"a": 3},
        occupancy_mean={"a": 1.5},
        stall_cycles={"a:east": 8.0},
        stall_events={"a:east": 2},
        vc_allocations={},
        latency={"count": 10, "mean": 5.0, "p50": 5.0, "p95": 9.0,
                 "p99": 9.8, "maximum": 10.0, "minimum": 1.0},
        latency_buckets={"8": 6, "16": 4},
    )
    base.update(overrides)
    return MetricsSummary(**base)


class TestMetricsSummary:
    def test_dict_round_trip(self):
        summary = sample_summary()
        clone = MetricsSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone == summary

    def test_pickles(self):
        summary = sample_summary()
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_top_links_ranked_by_utilization(self):
        top = sample_summary().top_links(5)
        assert [name for name, _, _ in top] == ["a>b", "b>c"]
        assert top[0] == ("a>b", 20, 0.2)

    def test_top_links_skips_idle(self):
        summary = sample_summary(link_flits={"a>b": 3, "idle": 0},
                                 link_utilization={"a>b": 0.1, "idle": 0.0})
        assert [name for name, _, _ in summary.top_links(5)] == ["a>b"]

    def test_top_routers_ranked_by_stall(self):
        top = sample_summary().top_routers(1)
        assert top == [("a", 8.0, 1.5, 20)]

    def test_top_routers_skips_idle(self):
        summary = sample_summary(
            router_grants={"a": 4, "idle": 0, "waiting": 0},
            occupancy_mean={"a": 0.5, "idle": 0.0, "waiting": 0.25},
            stall_cycles={}, stall_events={})
        assert [name for name, *_ in summary.top_routers(5)] == \
            ["a", "waiting"]

    def test_top_routers_keeps_a_stalled_router(self):
        summary = sample_summary(router_grants={"a": 0}, occupancy_mean={},
                                 stall_cycles={"a:east:vc0": 3.0})
        assert summary.top_routers(5) == [("a", 3.0, 0.0, 0)]

    @pytest.mark.parametrize("k", [0, -1])
    def test_report_sizes_below_one_are_refused(self, k):
        summary = sample_summary()
        for rank in (summary.top_links, summary.top_routers):
            with pytest.raises(ConfigurationError, match="at least 1 row"):
                rank(k)

    def test_merge_counters_and_peaks(self):
        one = sample_summary()
        two = sample_summary(occupancy_peak={"a": 7},
                             link_flits={"a>b": 10, "c>d": 1})
        merged = MetricsSummary.merge([one, two])
        assert merged.runs == 2
        assert merged.elapsed_cycles == 200.0
        assert merged.packets_delivered == 20
        assert merged.link_flits == {"a>b": 30, "b>c": 5, "c>d": 1}
        assert merged.occupancy_peak == {"a": 7}
        assert merged.stall_cycles == {"a:east": 16.0}

    def test_merge_weights_means_by_elapsed(self):
        one = sample_summary(elapsed_cycles=100.0,
                             link_utilization={"a>b": 0.2})
        two = sample_summary(elapsed_cycles=300.0,
                             link_utilization={"a>b": 0.6})
        merged = MetricsSummary.merge([one, two])
        assert merged.link_utilization["a>b"] == pytest.approx(0.5)

    def test_merge_percentiles_from_buckets(self):
        merged = MetricsSummary.merge([sample_summary(), sample_summary()])
        assert merged.latency["count"] == 20
        assert merged.latency["mean"] == pytest.approx(5.0)
        assert merged.latency["p50"] == 8.0   # bucket-resolution bound
        assert merged.latency["maximum"] == 10.0

    def test_merge_empty(self):
        merged = MetricsSummary.merge([])
        assert merged.runs == 1  # the default, an all-zero summary
        assert merged.packets_delivered == 0


def loaded_mesh_summary(activity_driven, summary_every_tick):
    """A 16-port mesh under uniform load 0.5 (4-flit packets, 60
    cycles), drained; the final summary as JSON, optionally after a
    ``summary()`` at every tick of the run."""
    net = FabricConfig(topology="mesh", ports=16,
                       activity_driven=activity_driven).build()
    registry = attach_metrics(net)
    schedule = UniformRandom(16, 0.5, size_flits=4).generate(
        60, np.random.default_rng(1))
    by_cycle = {}
    for injection in schedule:
        by_cycle.setdefault(injection.cycle, []).append(injection)
    tick = 0
    while tick < 120 or len(net.delivered) < len(schedule):
        assert tick < 20_000, "the mesh failed to drain"
        if tick % 2 == 0:
            for injection in by_cycle.get(tick // 2, []):
                net.send(injection.to_packet())
        net.run_ticks(1)
        tick += 1
        if summary_every_tick:
            registry.summary()
    return json.dumps(registry.summary().to_dict(), sort_keys=True)


class TestSummaryIsReadOnly:
    @pytest.mark.parametrize("activity_driven", (True, False),
                             ids=("fast", "naive"))
    def test_summaries_at_every_tick_leave_the_final_one_unchanged(
            self, activity_driven):
        # Arrivals due at a not-yet-executed tick fold into a copy of the
        # gauge: the live one still applies that tick's dequeues first.
        assert loaded_mesh_summary(activity_driven, True) == \
            loaded_mesh_summary(activity_driven, False)


class TestAttachMidRun:
    def test_counts_only_what_came_after_attach(self):
        """A registry attached mid-run counts the packets injected after
        attach and every packet delivered after it, one in flight at
        attach included; its latency samples are those deliveries'."""
        net = FabricConfig(topology="mesh", ports=16).build()
        net.send(Packet(src=0, dest=15, payload=[1, 2]))
        assert net.drain()
        net.send(Packet(src=0, dest=15, payload=[1, 2, 3]))
        net.run_ticks(2)
        assert net.stats.packets_delivered == 1   # the second in flight
        registry = attach_metrics(net)
        net.send(Packet(src=3, dest=12))
        net.send(Packet(src=5, dest=6, payload=[4, 5, 6, 7]))
        assert net.drain()
        summary = registry.summary()
        assert summary.packets_injected == 2
        assert summary.packets_delivered == 3
        assert summary.flits_delivered == 3 + 1 + 4
        after = [packet.latency_cycles for packet in net.delivered[1:]]
        assert summary.latency == LatencySummary.from_cycles(after).to_dict()
        assert sum(summary.latency_buckets.values()) == 3
