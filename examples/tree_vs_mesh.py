"""Topology study: the binary-tree IC-NoC against an equal-port 2-D mesh
— hops, area, energy (with the locality crossover), and a live
latency-under-load race on the same traffic trace.

Every number is a query on the fabrics' physical descriptors; the
paper's Section 3 claims themselves are the record's EXP-TM.

Run:  python examples/tree_vs_mesh.py
"""

import numpy as np

from repro.analysis.experiments import evaluate
from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig
from repro.physical.descriptor import physical_model
from repro.traffic.base import apply_traffic
from repro.traffic.patterns import UniformRandom

#: Share of the traffic sent to a clustered partner (the paper's
#: application-mapping assumption).
LOCALITY = 0.8


def models(ports: int):
    """The (binary tree, square mesh) descriptors at ``ports`` ports."""
    return [physical_model(FabricConfig(topology=name, ports=ports).build())
            for name in ("tree", "mesh")]


def partner_energy_pj(model, partners) -> float:
    """Mean flit energy from every endpoint to its partner."""
    srcs = np.arange(model.endpoints)
    return sum(model.flit_energies_pj(srcs, partners)) / model.endpoints


def main() -> None:
    # --- structural comparison over sizes ------------------------------
    rows = []
    for ports in (16, 64, 256):
        tree, mesh = models(ports)
        rows.append([ports, tree.worst_case_hops(), mesh.worst_case_hops(),
                     len(tree.router_port_counts()),
                     len(mesh.router_port_counts()),
                     round(tree.area_report().total_mm2, 3),
                     round(mesh.area_report().total_mm2, 3)])
    print(format_table(
        ["N", "tree worst hops", "mesh worst hops", "tree routers",
         "mesh routers", "tree mm^2", "mesh mm^2"],
        rows,
        title="Tree vs mesh: structure (2logN-1 vs ~2sqrtN hops)",
    ))
    print()

    # --- energy with the locality crossover ----------------------------
    tree, mesh = models(64)
    srcs = np.arange(64)
    cols = mesh.network.topology.cols
    # Clustered partners: the tree's sibling leaf on the same 3x3
    # router, the mesh's neighbour along x.
    x_neighbour = np.where(srcs % cols + 1 < cols, srcs + 1, srcs - 1)
    local = {"tree": partner_energy_pj(tree, srcs ^ 1),
             "mesh": partner_energy_pj(mesh, x_neighbour)}
    uniform = {"tree": tree.average_flit_energy_pj(),
               "mesh": mesh.average_flit_energy_pj()}

    def at(name: str, locality: float) -> float:
        return locality * local[name] + (1.0 - locality) * uniform[name]

    print(format_table(
        ["traffic", "tree (pJ/flit)", "mesh (pJ/flit)"],
        [["uniform random", round(at("tree", 0.0), 1),
          round(at("mesh", 0.0), 1)],
         [f"clustered (locality {LOCALITY})",
          round(at("tree", LOCALITY), 1), round(at("mesh", LOCALITY), 1)]],
        title="Per-flit energy, 64 ports",
    ))
    # Both energies are linear in the locality: they cross where the
    # gap between them closes.
    gap0 = at("tree", 0.0) - at("mesh", 0.0)
    gap1 = at("tree", 1.0) - at("mesh", 1.0)
    print(f"crossover locality: {gap0 / (gap0 - gap1):.2f} — "
          "beyond this clustering level the tree is cheaper per flit.")
    print()
    print(evaluate(["EXP-TM"]).render(title="Section 3, as the record "
                                            "holds it"))
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
