"""The shared fabric layer: one stack, many topologies.

The paper's comparison — a tree whose links double as the clock
distribution network vs meshes needing mesochronous fallbacks — used to
live in two hand-duplicated component stacks, one for the tree
(``repro.noc``) and one for the mesh. This package is the common
machinery both now stand on, and the place new fabrics plug into:

* :mod:`~repro.fabric.link` — the two link flavours (valid/accept
  handshake; tick-tagged credit wires);
* :mod:`~repro.fabric.routing` — pluggable per-node routing strategies
  (tree up*/down*, mesh XY, torus shortest-wrap XY, ring) and the bubble
  rule that keeps ring-closing fabrics deadlock-free for packets that
  fit one FIFO (enforced at ``send``);
* :mod:`~repro.fabric.router` — the N-port credit/wormhole
  :class:`FabricRouter` with the idle sleep contract, gating backfill,
  and the ``arbitration_grant``/``credit_exhausted`` kernel events;
* :mod:`~repro.fabric.endpoint` — the shared source/sink adapters;
* :mod:`~repro.fabric.topologies` — structure descriptions (mesh, torus,
  ring);
* :mod:`~repro.fabric.network` — the generic credit-fabric assembly on
  the shared :class:`~repro.noc.network.Network` base, and the mesh,
  torus and ring built on it;
* :mod:`~repro.fabric.registry` — where each topology declares its
  structure, routing, and clock-distribution capability (``integrated``
  vs ``mesochronous``), checked at build time. Its
  :class:`FabricConfig` is the only spec of a credit fabric.

``repro.noc`` keeps the handshake tree; the paper's tree-vs-mesh tables
are queries over the two built fabrics (:mod:`repro.physical.comparison`).
"""

from repro.fabric.allocator import (
    ALLOCATOR_NAMES,
    Allocator,
    EscapeReentryAllocator,
    RoundRobinAllocator,
    WeightedAllocator,
    make_allocator,
)
from repro.fabric.link import CreditLink
from repro.fabric.routing import (
    DatelineVc,
    EscapeVcAdaptive,
    RingDatelineVc,
    RingRouting,
    RoutingStrategy,
    TorusDatelineVc,
    TorusXYRouting,
    VcPolicy,
    XYRouting,
    tree_updown_route,
)
from repro.fabric.router import FabricRouter
from repro.fabric.endpoint import FabricSink, FabricSource
from repro.fabric.topologies import (
    MeshTopology,
    RingTopology,
    TorusTopology,
)
from repro.fabric.network import (
    CreditFabricNetwork,
    MeshNetwork,
    RingNetwork,
    TorusNetwork,
    make_vc_policy,
)
from repro.fabric.ctree import ConcentratedTreeNetwork
from repro.fabric.registry import (
    FLOW_VC,
    FLOW_WORMHOLE,
    FabricConfig,
    TopologyEntry,
    get_topology,
    register_topology,
    topology_names,
    topology_table,
)

__all__ = [
    "ALLOCATOR_NAMES",
    "Allocator",
    "RoundRobinAllocator",
    "WeightedAllocator",
    "EscapeReentryAllocator",
    "make_allocator",
    "CreditLink",
    "RoutingStrategy",
    "XYRouting",
    "TorusXYRouting",
    "RingRouting",
    "tree_updown_route",
    "VcPolicy",
    "DatelineVc",
    "TorusDatelineVc",
    "RingDatelineVc",
    "EscapeVcAdaptive",
    "make_vc_policy",
    "FabricRouter",
    "FLOW_WORMHOLE",
    "FLOW_VC",
    "FabricSource",
    "FabricSink",
    "MeshTopology",
    "TorusTopology",
    "RingTopology",
    "CreditFabricNetwork",
    "MeshNetwork",
    "TorusNetwork",
    "RingNetwork",
    "FabricConfig",
    "TopologyEntry",
    "get_topology",
    "register_topology",
    "topology_names",
    "topology_table",
    "ConcentratedTreeNetwork",
]
