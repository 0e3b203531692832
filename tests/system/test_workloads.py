"""Streaming chain workloads and the mapping comparison."""

import pytest

from repro.errors import ConfigurationError
from repro.system.workloads import (
    StreamingConfig,
    StreamingWorkload,
    mapping_comparison,
)


class TestConfig:
    def test_short_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(chain=(0,))

    def test_duplicate_tiles_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(chain=(0, 1, 1))

    def test_out_of_range_tile_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(tiles=4, chain=(0, 5))

    def test_bad_burst_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(burst_flits=0)


class TestStreaming:
    @pytest.fixture(scope="class")
    def run(self):
        workload = StreamingWorkload(StreamingConfig(
            tiles=8, chain=(0, 1, 2, 3), burst_flits=4, bursts=10,
            interval_cycles=8,
        ))
        return workload.run()

    def test_all_bursts_complete(self, run):
        assert run.bursts_completed == 10

    def test_chain_latency_scales_with_stages(self, run):
        # 3 hops: end-to-end must exceed 3x the smallest hop latency.
        assert run.chain_latency.mean > 3 * run.per_hop_latency.minimum

    def test_hops_counted(self, run):
        # 10 bursts x 3 hops of the chain.
        assert run.per_hop_latency.count == 30

    def test_gating_present(self, run):
        assert 0.0 < run.gating_ratio < 1.0

    def test_describe(self, run):
        assert "bursts" in run.describe()


class TestMappingComparison:
    def test_adjacent_beats_scattered(self):
        """The Section 3 application-mapping claim, as a chain workload:
        a pipeline placed on adjacent tiles streams with much lower
        latency than the same pipeline scattered across the chip."""
        results = mapping_comparison(tiles=16, stages=4, burst_flits=4,
                                     bursts=10)
        adjacent = results["adjacent"].chain_latency.mean
        scattered = results["scattered"].chain_latency.mean
        assert adjacent < scattered
        assert results["adjacent"].bursts_completed == 10
        assert results["scattered"].bursts_completed == 10

    def test_chain_longer_than_machine_rejected(self):
        with pytest.raises(ConfigurationError):
            mapping_comparison(tiles=2, stages=4)


class TestBursty:
    @staticmethod
    def _run(activity_driven, **overrides):
        from repro.system.workloads import BurstyConfig, BurstySystem
        params = dict(tiles=4, storms=2, storm_cycles=6,
                      compute_cycles=120, packets_per_storm=2,
                      activity_driven=activity_driven)
        params.update(overrides)
        system = BurstySystem(BurstyConfig(**params))
        stats = system.run()
        gating = system.network.gating_stats()
        return system, {
            "delivered": stats.packets_delivered,
            "latencies": sorted(stats.latencies_cycles),
            "gating": (gating.edges_total, gating.edges_enabled),
            "tick": system.kernel.tick,
        }

    def test_every_scheduled_packet_delivered(self):
        system, result = self._run(True)
        assert result["delivered"] == system.packets_scheduled

    def test_modes_bit_identical(self):
        _, fast = self._run(True)
        _, naive = self._run(False)
        assert fast == naive

    def test_compute_phases_fast_forward(self):
        fast_sys, _ = self._run(True)
        naive_sys, _ = self._run(False)
        # Long quiet compute phases dominate the run; the fast path must
        # skip them wholesale.
        assert fast_sys.kernel.steps_executed \
            < naive_sys.kernel.steps_executed / 4

    def test_dma_targets_are_remote_memories(self):
        from repro.system.tile import is_memory_leaf, tile_of
        system, _ = self._run(True)
        for packet in system.network.delivered:
            assert is_memory_leaf(packet.dest)
            assert tile_of(packet.src) != tile_of(packet.dest)

    def test_config_validation(self):
        from repro.system.workloads import BurstyConfig
        with pytest.raises(ConfigurationError):
            BurstyConfig(tiles=3)
        with pytest.raises(ConfigurationError):
            BurstyConfig(storm_cycles=0)
        with pytest.raises(ConfigurationError):
            BurstyConfig(compute_cycles=0)

    def test_replay_deterministic(self):
        from repro.system.workloads import BurstyConfig, BurstySystem
        config = BurstyConfig(tiles=4, storms=1, compute_cycles=50)
        first, second = BurstySystem(config), BurstySystem(config)
        a, b = first.run(), second.run()
        assert first.drained and second.drained
        assert a.packets_delivered == b.packets_delivered
        assert a.latencies_cycles == b.latencies_cycles
