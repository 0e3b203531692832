"""Network statistics containers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet
from repro.noc.stats import LatencySummary


def delivered_packet(latency_ticks, flits=1, src=0, dest=1):
    packet = Packet(src=src, dest=dest,
                    payload=list(range(flits)) if flits > 1 else [])
    packet.inject_tick = 0
    packet.eject_tick = latency_ticks
    return packet


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_cycles([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_single(self):
        summary = LatencySummary.from_cycles([4.0])
        assert summary.count == 1
        assert summary.mean == 4.0
        assert summary.maximum == 4.0
        assert summary.minimum == 4.0

    def test_percentiles_ordered(self):
        summary = LatencySummary.from_cycles([float(i) for i in range(100)])
        assert summary.minimum <= summary.p50 <= summary.p95 \
            <= summary.p99 <= summary.maximum

    def test_p99_between_p95_and_max(self):
        summary = LatencySummary.from_cycles([float(i + 1)
                                              for i in range(1000)])
        assert summary.p99 == pytest.approx(990.01)

    def test_dict_round_trip(self):
        summary = LatencySummary.from_cycles([1.0, 5.0, 9.0])
        clone = LatencySummary.from_dict(summary.to_dict())
        assert clone == summary
        assert summary.to_dict()["p99"] == summary.p99

    def test_describe(self):
        text = LatencySummary.from_cycles([1.0, 2.0]).describe()
        assert "mean=1.50" in text
        assert "p99=" in text


def _same(ours: float, numpy_value) -> bool:
    """Bit-for-bit equal floats (a NaN both sides produce is the same)."""
    theirs = float(numpy_value)
    return ours == theirs or (math.isnan(ours) and math.isnan(theirs))


#: Latencies as every run records them: whole ticks over two.
half_cycles = st.lists(st.integers(min_value=0, max_value=200_000)
                       .map(lambda ticks: ticks / 2), min_size=1,
                       max_size=300)


class TestLatencySummaryMatchesNumpy:
    """``from_cycles`` computes in pure Python, field for field what
    numpy's ``mean`` / ``percentile`` / ``max`` / ``min`` give."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(half_cycles)
    @example([7.5])
    @example([3.0, 0.5])
    @example([2.0, 2.0, 2.0, 9.5, 9.5])
    def test_half_cycle_samples(self, samples):
        summary = LatencySummary.from_cycles(samples)
        arr = np.asarray(samples, dtype=float)
        assert summary.count == len(samples)
        assert summary.mean == float(arr.mean())
        for field, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert getattr(summary, field) == float(np.percentile(arr, q))
        assert summary.maximum == float(arr.max())
        assert summary.minimum == float(arr.min())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=60))
    @example([1e308, -1e308, 5.0])
    @example([0.1, 0.1])
    @example([-0.0, 0.0, 1.0 / 3.0])
    def test_percentiles_of_arbitrary_floats(self, samples):
        summary = LatencySummary.from_cycles(samples)
        arr = np.asarray(samples, dtype=float)
        for field, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert _same(getattr(summary, field), np.percentile(arr, q))
        assert summary.maximum == float(arr.max())
        assert summary.minimum == float(arr.min())


def stats_over(packets):
    """The stats of a 16-port mesh (4 x 4) whose delivery record is
    ``packets``."""
    net = FabricConfig(topology="mesh", ports=16).build()
    net.delivered.extend(packets)
    return net.stats


class TestNetworkStats:
    def test_counts_read_the_delivered_record(self):
        stats = stats_over([delivered_packet(10, flits=3)])
        assert stats.packets_delivered == 1
        assert stats.flits_delivered == 3
        assert stats.latencies_cycles == [5.0]
        assert stats.hop_counts == [2]   # 0 -> 1: two adjacent routers

    def test_throughput(self):
        stats = stats_over([delivered_packet(10, flits=4)])
        stats.elapsed_ticks = 20  # 10 cycles
        assert stats.throughput_flits_per_cycle == pytest.approx(0.4)

    def test_throughput_zero_without_time(self):
        assert stats_over([]).throughput_flits_per_cycle == 0.0

    def test_mean_hops(self):
        # Corner to corner (0 -> 15) crosses 3 + 3 links: 7 routers.
        stats = stats_over([delivered_packet(4),
                            delivered_packet(4, src=15, dest=0)])
        assert stats.hop_counts == [2, 7]
        assert stats.mean_hops == 4.5
        assert stats_over([]).mean_hops == 0.0

    def test_describe_mentions_counts(self):
        stats = stats_over([delivered_packet(4)])
        stats.packets_injected = 2
        stats.elapsed_ticks = 10
        assert "1/2 packets" in stats.describe()
