"""Congestion attribution: the report, the live snapshot, the watchdog."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fabric.registry import FabricConfig
from repro.noc.debug import attach_watchdog
from repro.telemetry import (
    attach_metrics,
    congestion_snapshot,
    render_metrics_report,
)
from repro.traffic.patterns import HotspotTraffic


def run_hotspot_mesh(cycles=150, load=0.3):
    net = FabricConfig(topology="mesh", ports=16).build()
    registry = attach_metrics(net)
    gen = HotspotTraffic(16, load, hotspots=(15,), fraction=0.8)
    schedule = gen.generate(cycles, np.random.default_rng(7))
    by_cycle = {}
    for injection in schedule:
        by_cycle.setdefault(injection.cycle, []).append(injection)
    for cycle in range(cycles):
        for injection in by_cycle.get(cycle, []):
            net.send(injection.to_packet())
        net.run_ticks(2)
    assert net.drain(500_000)
    return net, registry


class TestReport:
    def test_hotspot_links_top_ranked(self):
        """The acceptance bar: a corner hotspot's adjacent links must be
        the named top-k of the attribution report."""
        _, registry = run_hotspot_mesh()
        summary = registry.summary()
        top = [name for name, _, _ in summary.top_links(3)]
        hotspot_adjacent = {"m15.ej", "m11>m15", "m14>m15", "m7>m11"}
        assert hotspot_adjacent.issuperset(top) or \
            len(hotspot_adjacent & set(top)) >= 2, top

    def test_render_names_links_and_routers(self):
        _, registry = run_hotspot_mesh(cycles=60)
        text = render_metrics_report(registry.summary(), top=3)
        assert "top 3 links by utilization" in text
        assert "m15.ej" in text
        assert "routers by congestion" in text
        assert "p99=" in text or "p99" in text

    def test_idle_mesh_reports_no_router_activity(self):
        net = FabricConfig(topology="mesh", ports=16).build()
        registry = attach_metrics(net)
        net.run_ticks(100)
        text = render_metrics_report(registry.summary())
        assert "top 0 routers by congestion:\n  (no router activity)" \
            in text

    def test_one_active_router_is_one_row(self):
        from repro.telemetry import MetricsSummary
        summary = MetricsSummary(
            router_grants={f"m{n}": 0 for n in range(16)} | {"m5": 3},
            occupancy_mean=dict.fromkeys((f"m{n}" for n in range(16)), 0.0))
        assert summary.top_routers(5) == [("m5", 0.0, 0.0, 3)]
        assert "top 1 routers by congestion" in \
            render_metrics_report(summary)

    def test_a_run_lists_only_the_routers_it_used(self):
        from repro.noc.packet import Packet
        net = FabricConfig(topology="mesh", ports=16).build()
        registry = attach_metrics(net)
        net.send(Packet(src=5, dest=6, payload=[1]))
        assert net.drain()
        assert sorted(name for name, *_ in
                      registry.summary().top_routers(5)) == ["m5", "m6"]

    def test_render_refuses_an_empty_report(self):
        from repro.errors import ConfigurationError
        _, registry = run_hotspot_mesh(cycles=20)
        with pytest.raises(ConfigurationError):
            render_metrics_report(registry.summary(), top=0)

    def test_render_empty_summary(self):
        from repro.telemetry import MetricsSummary
        text = render_metrics_report(MetricsSummary())
        assert "no packets delivered" in text
        assert "no link carried a flit" in text


class TestSnapshot:
    def test_quiescent_network_reports_clean(self):
        net = FabricConfig(topology="mesh", ports=16).build()
        assert "no flits buffered" in congestion_snapshot(net)

    def test_loaded_network_names_routers(self):
        net = FabricConfig(topology="mesh", ports=16).build()
        gen = HotspotTraffic(16, 0.5, hotspots=(15,), fraction=0.9)
        for injection in gen.generate(30, np.random.default_rng(7)):
            net.send(injection.to_packet())
        net.run_ticks(20)  # mid-flight: buffers hold flits, locks held
        text = congestion_snapshot(net)
        assert "congestion snapshot" in text
        assert "flits buffered" in text
        assert "m" in text  # at least one mesh router named
        net.drain(500_000)

    def test_vc_network_snapshot(self):
        net = FabricConfig(topology="torus", ports=16, flow_control="vc",
                           n_vcs=2).build()
        gen = HotspotTraffic(16, 0.5, hotspots=(5,), fraction=0.9)
        for injection in gen.generate(30, np.random.default_rng(7)):
            net.send(injection.to_packet())
        net.run_ticks(20)
        text = congestion_snapshot(net)
        assert "flits buffered" in text
        net.drain(500_000)

    def test_tree_network_snapshot(self):
        net = FabricConfig(topology="tree", ports=16).build()
        gen = HotspotTraffic(16, 0.5, hotspots=(3,), fraction=0.9)
        for injection in gen.generate(30, np.random.default_rng(7)):
            net.send(injection.to_packet())
        net.run_ticks(20)
        congestion_snapshot(net)  # duck-typing must not raise
        net.drain(500_000)


class TestWatchdogSnapshot:
    def test_firing_watchdog_dumps_congestion(self):
        """A stalled network's watchdog error carries the snapshot."""
        from repro.noc.packet import Packet
        net = FabricConfig(topology="mesh", ports=16).build()
        # Patience far below the corner-to-corner delivery latency: the
        # first delivery cannot arrive in time, so the watchdog fires
        # mid-flight — with flits buffered along the path.
        attach_watchdog(net, patience_ticks=8)
        net.send(Packet(src=0, dest=15, payload=[1, 2, 3, 4]))
        with pytest.raises(SimulationError) as excinfo:
            net.run_ticks(100_000)
        message = str(excinfo.value)
        assert "no progress" in message
        assert "congestion snapshot" in message
        assert "flits buffered" in message
