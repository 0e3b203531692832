"""Baseline mesh NoC: the architecture the paper's tree is compared against.

A conventional globally synchronous 2-D mesh with XY (dimension-order)
wormhole routing, input FIFOs and credit-based flow control — the stall
buffers and single-edge clocking the IC-NoC gets rid of. Used by the
tree-vs-mesh experiments (hops, area, energy, latency-vs-load).

This package holds the mesh's structure and the analytic tree-vs-mesh
tables; the runnable network is a registry fabric like any other —
``FabricConfig(topology="mesh", ports=...).build()`` returns a
:class:`repro.fabric.network.MeshNetwork`.
"""

from repro.mesh.topology import MeshTopology
from repro.mesh.comparison import (
    tree_mesh_hop_table,
    tree_mesh_area_table,
    tree_mesh_energy_table,
)

__all__ = [
    "MeshTopology",
    "tree_mesh_hop_table",
    "tree_mesh_area_table",
    "tree_mesh_energy_table",
]
