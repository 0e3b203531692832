"""EXP-LL — latency vs offered load: the supporting network evaluation.

Sweeps offered load on the 64-port binary-tree IC-NoC under uniform and
locality-weighted traffic, and on the 8x8 mesh baseline for the same
schedules. The shape to reproduce: flat zero-load latency, a knee, and
saturation; locality pushes the tree's knee far to the right (the
application-mapping argument of Section 3).

The twelve (config, load) points are independent simulations described by
picklable :class:`LoadPoint` specs and fanned out over worker processes
via :func:`parallel_map`; results are identical to the serial loop.
"""

import numpy as np

from repro.analysis.parallel import LoadPoint, default_workers, parallel_map
from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig
from repro.traffic.base import apply_traffic


LOADS = (0.02, 0.08, 0.16, 0.24)
CYCLES = 250
SEED = 13

CONFIGS = {
    "tree_uniform": LoadPoint(load=LOADS[0], pattern="uniform",
                              network=FabricConfig(ports=64, arity=2),
                              cycles=CYCLES, seed=SEED),
    "tree_local": LoadPoint(load=LOADS[0], pattern="neighbour", locality=0.8,
                            network=FabricConfig(ports=64, arity=2),
                            cycles=CYCLES, seed=SEED),
    "mesh_uniform": LoadPoint(load=LOADS[0], pattern="uniform",
                              network=FabricConfig(topology="mesh", ports=64),
                              cycles=CYCLES, seed=SEED),
}


def latency_point(spec: LoadPoint) -> float:
    """Worker entry point: mean packet latency of one (config, load)."""
    net = spec.build_network()
    gen = spec.build_generator()
    schedule = gen.generate(spec.cycles, np.random.default_rng(spec.seed))
    apply_traffic(net, schedule, run_cycles=spec.cycles)
    delivered = net.stats.packets_delivered
    assert delivered == net.stats.packets_injected, "network saturated"
    return net.stats.latency.mean


def sweep_all(workers: int | None = None):
    workers = default_workers() if workers is None else workers
    from dataclasses import replace
    names = list(CONFIGS)
    specs = [replace(CONFIGS[name], load=load)
             for name in names for load in LOADS]
    means = parallel_map(latency_point, specs, workers)
    return {name: means[i * len(LOADS):(i + 1) * len(LOADS)]
            for i, name in enumerate(names)}


def test_latency_vs_load(benchmark, log):
    curves = benchmark.pedantic(sweep_all, rounds=1, iterations=1)

    # Zero-load sanity: tree uniform ~ mean-hops x 1.5 cycles + overhead.
    log.add("EXP-LL", "tree zero-load latency (uniform)", 14.5,
            curves["tree_uniform"][0], "cycles", tolerance=0.25)
    assert log.all_match

    # Shapes: latency rises with load on every curve (small-sample noise
    # of up to one cycle tolerated point to point; the endpoints must
    # order strictly).
    for name, curve in curves.items():
        for a, b in zip(curve, curve[1:]):
            assert b >= a - 1.0, f"{name} latency dropped: {curve}"
        assert curve[-1] > curve[0], f"{name} shows no congestion: {curve}"
    # Locality beats uniform at every load on the tree.
    for local, uniform in zip(curves["tree_local"],
                              curves["tree_uniform"]):
        assert local < uniform
    # Congestion grows slower under locality: the gap widens with load.
    gap_low = curves["tree_uniform"][0] - curves["tree_local"][0]
    gap_high = curves["tree_uniform"][-1] - curves["tree_local"][-1]
    assert gap_high >= gap_low

    rows = [[load] + [round(curves[key][i], 1) for key in
                      ("tree_uniform", "tree_local", "mesh_uniform")]
            for i, load in enumerate(LOADS)]
    print()
    print(format_table(
        ["load (flits/cy/port)", "tree uniform", "tree local 0.8",
         "mesh uniform"],
        rows,
        title="Mean packet latency (cycles) vs offered load, 64 ports",
    ))
