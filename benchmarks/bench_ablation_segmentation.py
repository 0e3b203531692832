"""Ablation: the 1.25 mm segmentation choice of the demonstrator.

The paper picks 1.25 mm segments "near the root ... and hence get a 1 GHz
operating speed". This sweep shows the tradeoff that sits behind the
choice: shorter segments buy frequency but cost pipeline stages (area and
hop latency); longer segments slow the whole network. The knee around
1.25 mm on the 10 mm chip is visible in the table.

The segment points fan out over ``repro.analysis.parallel`` (the
evaluator is module-level and each point is fully determined by its
segment length — no randomness), so wall-clock is the slowest single
point instead of the sum.
"""

from repro.analysis.parallel import default_workers, parallel_map
from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.physical.descriptor import physical_model

SEGMENTS_MM = (0.6, 0.9, 1.25, 2.5)


def evaluate_segment(max_segment_mm: float) -> dict:
    net = ICNoCNetwork(FabricConfig(ports=64, arity=2,
                                     max_segment_mm=max_segment_mm))
    frequency = net.operating_frequency_ghz()
    area = physical_model(net).area_report()
    # Zero-load worst-case latency in cycles and in nanoseconds.
    net.send(Packet(src=0, dest=63))
    net.drain(10_000)
    latency_cycles = net.delivered[0].latency_cycles
    latency_ns = latency_cycles / frequency
    return {
        "segment_mm": max_segment_mm,
        "frequency_ghz": frequency,
        "link_stages": net.link_stage_count,
        "area_mm2": area.total_mm2,
        "latency_cycles": latency_cycles,
        "latency_ns": latency_ns,
    }


def run_sweep():
    return parallel_map(evaluate_segment, SEGMENTS_MM,
                        workers=min(len(SEGMENTS_MM), default_workers()))


def test_segmentation_ablation(benchmark, log):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    by_seg = {row["segment_mm"]: row for row in rows}

    log.add("EXP-SEG-ABL", "frequency at paper's 1.25 mm", 1.0,
            by_seg[1.25]["frequency_ghz"], "GHz", tolerance=0.01)
    assert log.all_match

    # Tradeoffs: frequency falls and stages drop as segments lengthen.
    freqs = [row["frequency_ghz"] for row in rows]
    stages = [row["link_stages"] for row in rows]
    assert freqs == sorted(freqs, reverse=True)
    assert stages == sorted(stages, reverse=True)
    # The knee: 0.6 mm segmentation costs >10x the stages of 1.25 mm for
    # at most the router-capped 1.41x frequency — while 2.5 mm loses
    # ~half the frequency to save only the last 12 stages. 1.25 mm is the
    # sweet spot the paper picked.
    assert by_seg[0.6]["link_stages"] > 10 * by_seg[1.25]["link_stages"]
    assert by_seg[0.6]["frequency_ghz"] <= 1.4 + 1e-6  # router cap
    assert by_seg[2.5]["frequency_ghz"] < 0.6 * by_seg[1.25]["frequency_ghz"]
    # End-to-end wall-clock latency is near-flat from 0.9 to 1.25 mm and
    # collapses at 2.5 mm: extra pipeline hops offset finer segmentation.
    assert by_seg[2.5]["latency_ns"] > 1.5 * by_seg[1.25]["latency_ns"]

    # End-to-end *time* (ns): the frequency gain of finer segmentation is
    # partly eaten by the extra pipeline hops.
    print()
    print(format_table(
        ["segment (mm)", "f (GHz)", "link stages", "area (mm^2)",
         "0->63 latency (cy)", "0->63 latency (ns)"],
        [[row["segment_mm"], round(row["frequency_ghz"], 3),
          row["link_stages"], round(row["area_mm2"], 3),
          row["latency_cycles"], round(row["latency_ns"], 1)]
         for row in rows],
        title="Segmentation ablation, 64-port demonstrator",
    ))
