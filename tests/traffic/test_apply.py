"""The apply_traffic driver."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
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

    def test_injection_past_the_window_raises(self):
        """An injection the window never reaches is refused, named, and
        nothing is sent: silently dropping it reported a run that never
        offered it."""
        net = FabricConfig(topology="mesh", ports=16).build()
        schedule = [Injection(0, 0, 5), Injection(50, 1, 6),
                    Injection(60, 2, 7)]
        with pytest.raises(ConfigurationError,
                           match=r"cycle 50 \(1 -> 6\).*10-cycle"):
            apply_traffic(net, schedule, run_cycles=10)
        assert net.stats.packets_injected == 0
        assert net.kernel.tick == 0

    def test_injection_at_the_last_window_cycle_is_sent(self):
        net = FabricConfig(topology="mesh", ports=16).build()
        apply_traffic(net, [Injection(9, 1, 6)], run_cycles=10)
        assert net.stats.packets_delivered == 1

    def test_stats_elapsed_updated(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        apply_traffic(net, [Injection(cycle=0, src=0, dest=1)])
        assert net.stats.elapsed_ticks == net.kernel.tick
