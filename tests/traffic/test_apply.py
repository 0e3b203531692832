"""The apply_traffic driver."""

import numpy as np
import pytest

from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.traffic.base import Injection, apply_traffic
from repro.traffic.patterns import UniformRandom


class TestApplyTraffic:
    def test_injects_at_scheduled_cycles(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        schedule = [
            Injection(cycle=0, src=0, dest=7),
            Injection(cycle=50, src=1, dest=6),
        ]
        apply_traffic(net, schedule)
        assert net.stats.packets_delivered == 2
        # The late injection cannot have been delivered before cycle 50.
        late = [p for p in net.delivered if p.src == 1][0]
        assert late.inject_tick >= 100

    def test_run_cycles_extends_past_last_injection(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        schedule = [Injection(cycle=0, src=0, dest=7)]
        apply_traffic(net, schedule, run_cycles=100)
        assert net.kernel.cycles >= 100

    def test_empty_schedule_is_fine(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        apply_traffic(net, [], run_cycles=10)
        assert net.stats.packets_injected == 0

    def test_drains_backlog(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        gen = UniformRandom(ports=8, load=0.4, size_flits=4)
        schedule = gen.generate(100, np.random.default_rng(0))
        apply_traffic(net, schedule, run_cycles=100)
        assert net.stats.packets_delivered == len(schedule)

    def test_stats_elapsed_updated(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        apply_traffic(net, [Injection(cycle=0, src=0, dest=1)])
        assert net.stats.elapsed_ticks == net.kernel.tick
