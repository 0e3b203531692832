"""EXP-CP — clock distribution power: balanced global tree vs the
integrated forwarded clock, with measured gating activity.

Sections 1-2: balanced trees need "large power hungry buffers" for skew
management; the forwarded mesochronous clock avoids them, and the IC-NoC
flow control additionally gates register clocks when traffic is idle.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.clocking.power import (
    balanced_tree_clock_power_mw,
    forwarded_clock_power_mw,
)
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.traffic.base import apply_traffic
from repro.traffic.bursty import BurstyTraffic


def measure_clock_power():
    net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
    wire_mm = net.floorplan.total_link_length_mm()
    sinks = len(net.clock_tree)

    # Measure real gating under bursty traffic.
    gen = BurstyTraffic(ports=64, peak_load=0.4, mean_burst_cycles=20.0,
                        mean_idle_cycles=80.0)
    schedule = gen.generate(300, np.random.default_rng(4))
    apply_traffic(net, schedule, run_cycles=300)
    activity = net.gating_stats().activity

    balanced = balanced_tree_clock_power_mw(wire_mm, sinks, 1.0)
    forwarded_ungated = forwarded_clock_power_mw(wire_mm, sinks, 1.0,
                                                 sink_activity=1.0)
    forwarded_gated = forwarded_clock_power_mw(wire_mm, sinks, 1.0,
                                               sink_activity=activity)
    return wire_mm, sinks, activity, balanced, forwarded_ungated, \
        forwarded_gated


def test_clock_power(benchmark, log):
    wire_mm, sinks, activity, balanced, ungated, gated = benchmark.pedantic(
        measure_clock_power, rounds=1, iterations=1
    )

    log.add("EXP-CP", "clock trunk wire length (H-tree)", 105.0, wire_mm,
            "mm", tolerance=0.01)
    assert log.all_match

    # Who wins and by how much: removing the balancing buffers saves
    # power; gating saves more. These are the paper's qualitative claims.
    assert ungated.total_mw < balanced.total_mw
    assert gated.total_mw < ungated.total_mw
    saving_buffers = 1.0 - ungated.total_mw / balanced.total_mw
    saving_total = 1.0 - gated.total_mw / balanced.total_mw
    assert saving_buffers > 0.2
    assert saving_total > saving_buffers

    print()
    print(format_table(
        ["distribution", "wire (mW)", "buffers (mW)", "sinks (mW)",
         "total (mW)"],
        [
            ["balanced global tree", round(balanced.wire_mw, 2),
             round(balanced.buffer_mw, 2), round(balanced.sink_mw, 2),
             round(balanced.total_mw, 2)],
            ["forwarded (ungated)", round(ungated.wire_mw, 2),
             round(ungated.buffer_mw, 2), round(ungated.sink_mw, 2),
             round(ungated.total_mw, 2)],
            [f"forwarded + gating (activity {activity:.0%})",
             round(gated.wire_mw, 2), round(gated.buffer_mw, 2),
             round(gated.sink_mw, 2), round(gated.total_mw, 2)],
        ],
        title=f"Clock power, 64-port IC-NoC, {sinks} clocked elements @1GHz",
    ))
    print(f"buffer saving {saving_buffers:.1%}, total saving "
          f"{saving_total:.1%}")
