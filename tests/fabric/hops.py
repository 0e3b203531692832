"""The structures' hop counts in closed form: the oracle the route
walk's hops are checked against.

The library reads every hop count off one route walk
(:meth:`repro.noc.base.Network.walk`); these formulas say independently
what the walk must find. A hop is one router: the one the source
attaches to plus one per link crossed, so ``src == dest`` counts 1.
"""

from repro.fabric.topologies import MeshTopology, RingTopology, TorusTopology


def closed_form_hops(topology, src: int, dest: int) -> int:
    """Routers between endpoints ``src`` and ``dest`` of ``topology``:
    the Manhattan distance + 1 on a mesh, the wrap distance per
    dimension + 1 on a torus and on a ring, and the tree's own
    ``hop_count`` (``2*l - 1`` for a lowest common router ``l`` levels
    up) on the trees."""
    if isinstance(topology, (MeshTopology, TorusTopology)):
        sx, sy = topology.coordinates(src)
        dx, dy = topology.coordinates(dest)
        ax, ay = abs(dx - sx), abs(dy - sy)
        if isinstance(topology, TorusTopology):
            ax, ay = min(ax, topology.cols - ax), min(ay, topology.rows - ay)
        return ax + ay + 1
    if isinstance(topology, RingTopology):
        d = abs(dest - src)
        return min(d, topology.nodes - d) + 1
    return topology.hop_count(src, dest)
