"""Topology study: the binary-tree IC-NoC against an equal-port 2-D mesh
— hops, area, energy (with the locality crossover), and a live
latency-under-load race on the same traffic trace.

Run:  python examples/tree_vs_mesh.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig
from repro.physical.comparison import (
    compare_topologies,
    tree_mesh_energy_table,
)
from repro.traffic.base import apply_traffic
from repro.traffic.patterns import UniformRandom


def main() -> None:
    # --- structural comparison over sizes ------------------------------
    rows = [compare_topologies(n, include_energy=False)
            for n in (16, 64, 256)]
    print(format_table(
        ["N", "tree worst hops", "mesh worst hops", "tree routers",
         "mesh routers", "tree mm^2", "mesh mm^2"],
        [[r.ports, r.tree_worst_hops, r.mesh_worst_hops, r.tree_routers,
          r.mesh_routers, round(r.tree_area_mm2, 3),
          round(r.mesh_area_mm2, 3)] for r in rows],
        title="Tree vs mesh: structure (2logN-1 vs ~2sqrtN hops)",
    ))
    print()

    # --- energy with the locality crossover ----------------------------
    energy = tree_mesh_energy_table(64)
    print(format_table(
        ["traffic", "tree (pJ/flit)", "mesh (pJ/flit)", "winner"],
        [
            ["uniform random", round(energy["tree_uniform_pj"], 1),
             round(energy["mesh_uniform_pj"], 1), "mesh"],
            ["clustered (locality 0.8)", round(energy["tree_local_pj"], 1),
             round(energy["mesh_local_pj"], 1), "tree"],
        ],
        title="Per-flit energy, 64 ports",
    ))
    print(f"crossover locality: {energy['crossover_locality']:.2f} — "
          "beyond this clustering level the tree is cheaper per flit.")
    print()

    # --- a live race on one shared trace --------------------------------
    print("racing both networks on the same 64-port uniform trace "
          "(load 0.10)...")
    gen = UniformRandom(ports=64, load=0.10)
    schedule = gen.generate(300, np.random.default_rng(42))
    tree = FabricConfig(ports=64, arity=2).build()
    mesh = FabricConfig(topology="mesh", ports=64).build()
    apply_traffic(tree, schedule, run_cycles=300)
    apply_traffic(mesh, schedule, run_cycles=300)
    print(format_table(
        ["network", "packets", "mean latency (cy)", "p95 (cy)",
         "mean hops"],
        [
            ["IC-NoC binary tree", tree.stats.packets_delivered,
             round(tree.stats.latency.mean, 1),
             round(tree.stats.latency.p95, 1),
             round(tree.stats.mean_hops, 1)],
            ["8x8 mesh", mesh.stats.packets_delivered,
             round(mesh.stats.latency.mean, 1),
             round(mesh.stats.latency.p95, 1),
             round(mesh.stats.mean_hops, 1)],
        ],
        title="Same trace, both networks",
    ))
    print()
    print("Remember the clocking asymmetry the table does not show: the")
    print("mesh needs a skew-balanced global clock to work at all, while")
    print("the tree carries its own clock and is timing-safe at any skew.")


if __name__ == "__main__":
    main()
