"""EXP-SAT — saturation throughput: tree vs mesh, uniform vs local.

A supporting experiment behind the paper's Section 3 argument: the tree's
root is a bisection bottleneck under uniform random traffic, but with the
clustered traffic the paper assumes ("cores which communicate a lot will
be clustered"), the tree sustains several times more load — sibling pairs
never leave their leaf router.
"""

from repro.analysis.parallel import (
    LoadPoint,
    default_workers,
    parallel_saturation_throughput,
)
from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig

PORTS = 16
LOADS = [0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.60, 0.80]


def measure_saturation(workers: int | None = None):
    """Three saturation searches over picklable specs, one process pool
    fan-out per search (identical numbers to the old serial walk)."""
    workers = default_workers() if workers is None else workers
    tree = FabricConfig(ports=PORTS, arity=2)
    mesh = FabricConfig(topology="mesh", ports=PORTS)
    searches = {
        "tree_uniform": LoadPoint(load=LOADS[0], network=tree,
                                  pattern="uniform", cycles=250),
        "tree_local": LoadPoint(load=LOADS[0], network=tree,
                                pattern="neighbour", locality=0.9,
                                cycles=250),
        "mesh_uniform": LoadPoint(load=LOADS[0], network=mesh,
                                  pattern="uniform", cycles=250),
    }
    return {
        name: parallel_saturation_throughput(template, loads=LOADS,
                                             workers=workers)
        for name, template in searches.items()
    }


def test_saturation(benchmark, log):
    sat = benchmark.pedantic(measure_saturation, rounds=1, iterations=1)

    # Who wins where: locality rescues the tree's bisection — by at
    # least 3x in saturation load (measured: >5x).
    assert sat["tree_local"] >= 3.0 * sat["tree_uniform"]
    assert sat["tree_local"] > sat["tree_uniform"]
    assert sat["tree_local"] >= sat["mesh_uniform"]
    # All values are genuine loads.
    for value in sat.values():
        assert 0.0 < value <= LOADS[-1]

    print()
    print(format_table(
        ["configuration", "saturation load (flits/cy/port)"],
        [[name, value] for name, value in sat.items()],
        title=f"Saturation throughput, {PORTS} ports",
    ))
