"""EXP-TM — tree vs mesh: hops, routers, area, energy (Section 3 claims).

* worst-case hops 2*log2(N)-1 vs ~2*sqrt(N), sweep over N;
* fewer routers, less area (and hence leakage) for the tree;
* neighbour (sibling) communication passes one 3x3 router;
* per-flit energy: mesh wins uniform random, tree wins once traffic is
  clustered (the Lee [12] regime) — crossover locality reported.
"""

from repro.analysis.tables import format_table
from repro.physical.comparison import (
    tree_mesh_energy_table,
    tree_mesh_hop_table,
)


def build_comparison():
    rows = tree_mesh_hop_table([16, 64, 256])
    energy = tree_mesh_energy_table(64)
    return rows, energy


def test_tree_vs_mesh(benchmark, log):
    rows, energy = benchmark.pedantic(build_comparison, rounds=1,
                                      iterations=1)
    row64 = next(r for r in rows if r.ports == 64)

    log.add("EXP-TM", "tree worst hops @64 (2logN-1)", 11,
            row64.tree_worst_hops, "hops", tolerance=1e-6)
    log.add("EXP-TM", "mesh worst hops @64 (~2sqrtN)", 16,
            row64.mesh_worst_hops, "hops", tolerance=0.10)
    log.add("EXP-TM", "tree routers @64 (N-1)", 63,
            row64.tree_routers, "", tolerance=1e-6)
    log.add("EXP-TM", "mesh routers @64 (N)", 64,
            row64.mesh_routers, "", tolerance=1e-6)
    assert log.all_match

    # Who wins: tree on hops (from 64), area (everywhere), energy under
    # clustering; mesh on uniform-random wire energy (documented).
    for row in rows:
        if row.ports >= 64:
            assert row.tree_wins_hops
        assert row.tree_wins_area
    assert row64.tree_wins_energy_local
    assert row64.tree_energy_pj > row64.mesh_energy_pj  # uniform: mesh
    assert 0.0 < energy["crossover_locality"] <= 0.8

    print()
    print(format_table(
        ["N", "tree hops", "mesh hops", "tree rtrs", "mesh rtrs",
         "tree mm^2", "mesh mm^2"],
        [[r.ports, r.tree_worst_hops, r.mesh_worst_hops, r.tree_routers,
          r.mesh_routers, round(r.tree_area_mm2, 3),
          round(r.mesh_area_mm2, 3)] for r in rows],
        title="Tree vs mesh structural comparison",
    ))
    print()
    print(format_table(
        ["metric", "tree", "mesh"],
        [["uniform energy (pJ/flit)",
          round(energy["tree_uniform_pj"], 2),
          round(energy["mesh_uniform_pj"], 2)],
         ["clustered energy (pJ/flit, locality 0.8)",
          round(energy["tree_local_pj"], 2),
          round(energy["mesh_local_pj"], 2)],
         ["crossover locality", energy["crossover_locality"], ""]],
        title="Per-flit energy (64 ports)",
    ))
