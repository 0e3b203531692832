"""The 32-tile demonstrator end to end (scaled down where speed matters)."""

import pytest

from repro.errors import ConfigurationError
from repro.system.demonstrator import (
    DemonstratorConfig,
    DemonstratorSystem,
)
from repro.system.processor import ProcessorConfig
from repro.system.tile import mem_leaf, proc_leaf, tile_of


class TestAddressing:
    def test_tile_leaves_are_siblings(self):
        for tile in range(32):
            assert proc_leaf(tile) + 1 == mem_leaf(tile)
            assert proc_leaf(tile) // 2 == mem_leaf(tile) // 2

    def test_tile_of_inverts(self):
        for tile in range(16):
            assert tile_of(proc_leaf(tile)) == tile
            assert tile_of(mem_leaf(tile)) == tile


class TestConfig:
    def test_leaves_double_the_tiles(self):
        assert DemonstratorConfig(tiles=32).leaves == 64

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            DemonstratorConfig(tiles=12)

    def test_paper_defaults(self):
        config = DemonstratorConfig()
        assert config.tiles == 32
        fabric = DemonstratorSystem(config).network.config
        assert fabric.chip_width_mm == 10.0
        assert fabric.max_segment_mm == 1.25


@pytest.fixture(scope="module")
def small_run():
    """An 8-tile run shared by the behavioural assertions."""
    system = DemonstratorSystem(DemonstratorConfig(tiles=8, seed=11))
    results = system.run(cycles=400)
    return system, results


class TestRun:
    def test_all_transactions_complete(self, small_run):
        _, results = small_run
        assert results.requests_issued > 50
        assert results.requests_completed == results.requests_issued

    def test_local_faster_than_remote(self, small_run):
        """Local memory is one 3x3 router away; remote crosses the tree."""
        _, results = small_run
        assert results.local_latency.mean < results.remote_latency.mean

    def test_local_latency_small(self, small_run):
        _, results = small_run
        # Request (1 router) + service (4 cy) + response burst: ~10-16 cy.
        assert results.local_latency.mean < 20.0

    def test_network_was_gated_part_time(self, small_run):
        _, results = small_run
        assert 0.0 < results.gating_ratio < 1.0

    def test_priority_keeps_local_access_unloaded(self):
        """The demonstrator claim: 'a processor always has priority to
        accessing its local memory'. Flood one tile's memory with remote
        requests; the local processor's requests must still cross at their
        unloaded latency."""
        from repro.fabric.registry import FabricConfig
        from repro.noc.network import ICNoCNetwork
        from repro.noc.packet import Packet

        net = ICNoCNetwork(FabricConfig(ports=16, arity=2),
                           arbiter_policy="local_priority")
        # Unloaded reference: one local request, nothing else.
        reference = Packet(src=0, dest=1)
        net.send(reference)
        net.drain(5000)
        unloaded = net.delivered[0].latency_cycles
        # Saturate memory leaf 1 from four distant processors while the
        # local processor keeps issuing.
        local_ids = set()
        for cycle in range(120):
            for src in (8, 10, 12, 14):
                net.send(Packet(src=src, dest=1))
            if cycle % 4 == 0:
                local = Packet(src=0, dest=1)
                local_ids.add(local.packet_id)
                net.send(local)
            net.run_ticks(2)
        assert net.drain(200_000)
        local_latencies = [p.latency_cycles for p in net.delivered
                           if p.packet_id in local_ids]
        remote_latencies = [p.latency_cycles for p in net.delivered
                            if p.src != 0]
        assert max(local_latencies) <= unloaded + 2.0
        # The remote flood, by contrast, queues heavily.
        assert max(remote_latencies) > 5 * unloaded

    def test_describe_renders(self, small_run):
        _, results = small_run
        assert "transactions" in results.describe()

    def test_uses_local_priority_arbiters(self, small_run):
        system, _ = small_run
        assert system.network.arbiter_policy == "local_priority"

    def test_deterministic_given_seed(self):
        a = DemonstratorSystem(DemonstratorConfig(tiles=4, seed=5)).run(200)
        b = DemonstratorSystem(DemonstratorConfig(tiles=4, seed=5)).run(200)
        assert a.requests_issued == b.requests_issued
        assert a.local_latency.mean == b.local_latency.mean
        assert a.remote_latency.mean == b.remote_latency.mean
