"""EXP-RT — the Section 6 router/pipeline numbers as one table.

| item                   | paper     |
|------------------------|-----------|
| pipeline head-to-head  | 1.8 GHz   |
| flow-control logic     | 220 ps    |
| stage area (32-bit)    | 0.0015 mm^2 |
| 3x3: speed/latency/area/segment | 1.4 GHz / 1.5 cy / 0.010 mm^2 / 0.6 mm |
| 5x5: speed/latency/area/segment | 1.2 GHz / 2.5 cy / 0.022 mm^2 / 0.9 mm |

Latencies are *measured* by simulating a flit through each router type.
"""

from repro.analysis.tables import format_table
from repro.noc.flit import Flit, FlitKind
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.tech.technology import TECH_90NM
from repro.timing.frequency import (
    max_segment_length,
    pipeline_max_frequency,
    router_max_frequency,
)


def measured_router_latency_cycles(arity: int) -> float:
    """Forward latency through one leaf router, measured in simulation."""
    net = ICNoCNetwork(FabricConfig(ports=arity * arity, arity=arity))
    return net.routers[0].forward_latency_ticks / 2.0


def build_router_table():
    rows = []
    for arity, ports in ((2, 3), (4, 5)):
        rows.append({
            "router": f"{ports}x{ports}",
            "f_ghz": router_max_frequency(ports),
            "latency_cycles": measured_router_latency_cycles(arity),
            "area_mm2": TECH_90NM.router_area_mm2(ports),
            "segment_mm": max_segment_length(router_max_frequency(ports)),
        })
    return rows


def test_router_table(benchmark, log):
    rows = benchmark(build_router_table)
    table = {row["router"]: row for row in rows}

    log.add("EXP-RT", "3x3 router frequency", 1.4,
            table["3x3"]["f_ghz"], "GHz", tolerance=0.01)
    log.add("EXP-RT", "3x3 forward latency", 1.5,
            table["3x3"]["latency_cycles"], "cycles", tolerance=1e-6)
    log.add("EXP-RT", "3x3 router area", 0.010,
            table["3x3"]["area_mm2"], "mm^2", tolerance=0.01)
    log.add("EXP-RT", "3x3 optimal segment", 0.6,
            table["3x3"]["segment_mm"], "mm", tolerance=0.01)
    log.add("EXP-RT", "5x5 router frequency", 1.2,
            table["5x5"]["f_ghz"], "GHz", tolerance=0.01)
    log.add("EXP-RT", "5x5 forward latency", 2.5,
            table["5x5"]["latency_cycles"], "cycles", tolerance=1e-6)
    log.add("EXP-RT", "5x5 router area", 0.022,
            table["5x5"]["area_mm2"], "mm^2", tolerance=0.01)
    log.add("EXP-RT", "5x5 optimal segment", 0.9,
            table["5x5"]["segment_mm"], "mm", tolerance=0.01)
    log.add("EXP-RT", "pipeline head-to-head", 1.8,
            pipeline_max_frequency(0.0), "GHz", tolerance=0.01)
    log.add("EXP-RT", "flow-control logic + registers", 220.0,
            TECH_90NM.pipeline_logic_ps, "ps", tolerance=1e-6)
    log.add("EXP-RT", "32-bit stage area", 0.0015,
            TECH_90NM.stage_area_mm2(), "mm^2", tolerance=1e-6)
    assert log.all_match

    print()
    print(format_table(
        ["router", "f (GHz)", "latency (cy)", "area (mm^2)", "segment (mm)"],
        [[r["router"], round(r["f_ghz"], 3), r["latency_cycles"],
          round(r["area_mm2"], 4), round(r["segment_mm"], 3)]
         for r in rows],
        title="Section 6 router table",
    ))
