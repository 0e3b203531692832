"""EXP-X1/X2/X3 — the paper's Section 7 future-work items, quantified.

X1: latch-based stages reduce area and clock power;
X2: ring shortcut links (bridged by conventional mesochronous
    synchronizers) cut latency for tree-distant geometric neighbours;
X3: weighted skew spreads the supply current surge temporally.
"""

from repro.analysis.tables import format_table
from repro.ext.latch_stage import LatchStageModel, latch_savings_table
from repro.ext.ring_links import RingAugmentedTree
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.topology import TreeTopology
from repro.physical.peak_current import (
    peak_current,
    peak_current_ratio,
    spread_arrivals,
)


def run_extensions():
    # X1: latch stages on the demonstrator's 76 pipeline stages.
    net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
    latch = latch_savings_table(net.pipeline_stage_count)

    # X2: neighbour ring on the 64-leaf tree.
    ring = RingAugmentedTree.neighbour_ring(TreeTopology(64, arity=2))
    ring_summary = ring.adjacent_pair_improvement()

    # X3: peak current of the demonstrator's clock arrivals, then with
    # deliberate +-150 ps weighted skew.
    period = 1000.0
    arrivals = []
    for name, delay in net.clock_tree.arrival_times().items():
        polarity = net.clock_tree.polarity(name)
        arrivals.append(delay + polarity * period / 2.0)
    natural_ratio = peak_current_ratio(arrivals, period)
    weighted = spread_arrivals(arrivals, period, max_adjust_ps=150.0)
    weighted_ratio = peak_current(weighted, period) / peak_current(
        [0.0] * len(arrivals), period
    )
    return latch, ring_summary, natural_ratio, weighted_ratio


def test_extensions(benchmark, log):
    latch, ring_summary, natural_ratio, weighted_ratio = benchmark.pedantic(
        run_extensions, rounds=1, iterations=1
    )

    log.add("EXP-X1", "latch stage area saving", 0.30,
            latch["area_saving_fraction"], "fraction", tolerance=0.10)
    log.add("EXP-X1", "latch clock-power saving", 0.50,
            latch["clock_power_saving_fraction"], "fraction",
            tolerance=1e-6)
    assert log.all_match

    # X1: "reduce the area as well as the power consumption" — and the
    # relaxed sequencing overhead helps speed too.
    assert latch["area_saving_mm2"] > 0.0
    assert latch["f_max_head_to_head_ghz"] > 1.8

    # X2: "much more flexibility while still leveraging the advantages":
    # adjacent pairs improve substantially on average.
    assert ring_summary["speedup"] > 1.5

    # X3: "distribute power surge temporally": the natural tree skew
    # already spreads the peak; weighted skew flattens it further.
    assert natural_ratio < 1.0
    assert weighted_ratio < natural_ratio

    print()
    print(format_table(
        ["extension", "metric", "value"],
        [
            ["X1 latches", "area saving",
             f"{latch['area_saving_fraction']:.1%} "
             f"({latch['area_saving_mm2']:.4f} mm^2)"],
            ["X1 latches", "clock-power saving",
             f"{latch['clock_power_saving_fraction']:.0%}"],
            ["X1 latches", "head-to-head f_max",
             f"{latch['f_max_head_to_head_ghz']:.2f} GHz"],
            ["X2 ring links", "adjacent-pair speedup",
             f"{ring_summary['speedup']:.2f}x"],
            ["X2 ring links", "avg adjacent latency",
             f"{ring_summary['augmented_cycles']:.1f} cy "
             f"(tree: {ring_summary['tree_only_cycles']:.1f})"],
            ["X3 weighted skew", "peak current vs zero-skew",
             f"natural {natural_ratio:.2f}, weighted {weighted_ratio:.2f}"],
        ],
        title="Future-work extensions (Section 7)",
    ))
