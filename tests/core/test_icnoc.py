"""The ICNoC facade."""

import pytest

from repro.core.config import ICNoCConfig
from repro.core.icnoc import ICNoC
from repro.errors import ConfigurationError, TimingViolationError
from repro.noc.packet import Packet
from repro.traffic.patterns import UniformRandom


@pytest.fixture(scope="module")
def noc16():
    return ICNoC(ICNoCConfig(ports=16))


class TestConfig:
    def test_defaults_match_demonstrator(self):
        config = ICNoCConfig()
        assert config.ports == 64
        assert config.topology == "binary"
        assert config.arity == 2
        assert config.max_segment_mm == 1.25

    def test_quad_arity(self):
        assert ICNoCConfig(topology="quad").arity == 4

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            ICNoCConfig(topology="torus")

    def test_network_config_propagation(self):
        spec = ICNoCConfig(ports=16, topology="quad").fabric_config()
        assert spec.ports == 16
        assert spec.arity == 4


class TestTiming:
    def test_validate_passes_at_operating_point(self, noc16):
        report = noc16.validate_timing()
        assert report.passed

    def test_validate_passes_at_1ghz(self, noc16):
        assert noc16.validate_timing(frequency=1.0).passed

    def test_validate_fails_well_above_limit(self, noc16):
        report = noc16.validate_timing(frequency=3.0)
        assert not report.passed

    def test_strict_mode_raises(self, noc16):
        with pytest.raises(TimingViolationError) as excinfo:
            noc16.validate_timing(frequency=3.0, strict=True)
        assert excinfo.value.violations

    def test_skew_limit_above_operating_point(self, noc16):
        """The FF-only skew windows leave headroom above the logic-limited
        operating frequency — consistent with the paper's observation that
        the 220 ps control logic, not the link timing, sets the speed."""
        assert noc16.skew_limited_frequency_ghz() > \
            noc16.operating_frequency_ghz()


class TestTraffic:
    def test_run_traffic_delivers(self):
        noc = ICNoC(ICNoCConfig(ports=16))
        stats = noc.run_traffic(UniformRandom(ports=16, load=0.05),
                                cycles=200, seed=1)
        assert stats.packets_injected > 0
        assert stats.packets_delivered == stats.packets_injected
        assert stats.latency.mean > 0.0

    def test_repeated_runs_do_not_double_count_gating(self):
        """gating_stats() is cumulative, so stats.gating is assigned, not
        merged: a second run on one ICNoC used to add the first run's
        edges in again (22096 reported against 14792 counted)."""
        noc = ICNoC(ICNoCConfig(ports=16))
        generator = UniformRandom(ports=16, load=0.1)
        for seed in (1, 2):
            stats = noc.run_traffic(generator, cycles=50, seed=seed)
            assert stats.gating == noc.network.gating_stats()
        assert stats.gating.edges_total > 0

    def test_direct_send(self):
        noc = ICNoC(ICNoCConfig(ports=16))
        noc.send(Packet(src=0, dest=9))
        assert noc.network.drain(10_000)

    def test_describe_renders(self, noc16):
        text = noc16.describe()
        assert "IC-NoC" in text
        assert "area" in text


class TestArea:
    def test_area_report_available(self, noc16):
        report = noc16.area_report()
        assert report.total_mm2 > 0.0
        assert report.chip_fraction < 0.02


class TestFabricBridge:
    def test_fabric_config_builds_the_same_tree(self):
        """The facade builds its tree from exactly the registry spec
        it hands to sweeps: same structure, same floorplan inputs."""
        from repro.core.config import ICNoCConfig
        config = ICNoCConfig(ports=16, topology="quad",
                             max_segment_mm=2.0)
        spec = config.fabric_config()
        assert spec.topology == "tree"
        assert spec.clock_distribution == "integrated"
        net = spec.build()
        expected = ICNoC(config).network
        assert net.config == expected.config
        assert net.topology.leaves == expected.topology.leaves == 16
        assert net.config.arity == 4
        assert net.config.max_segment_mm == 2.0
        assert net.floorplan.link_lengths == expected.floorplan.link_lengths

    def test_tree_alias_accepted(self):
        from repro.core.config import ICNoCConfig
        assert ICNoCConfig(ports=16, topology="tree").arity == 2
