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
  ring), each naming its routing strategy;
* :mod:`~repro.fabric.network` — :class:`CreditFabricNetwork`, the one
  builder of every credit fabric, on the shared
  :class:`~repro.noc.base.Network` base;
* :mod:`~repro.fabric.registry` — where each topology declares, once, its
  structure, VC policies, and clock-distribution capability
  (``integrated`` vs ``mesochronous``), checked at build time. Its
  :class:`FabricConfig` is the only spec of a credit fabric.

``repro.noc`` keeps the handshake tree; the paper's tree-vs-mesh tables
are queries over the two built fabrics (:mod:`repro.physical.comparison`).
"""

from repro._lazy import lazy_exports

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
    "TreeUpDownRouting",
    "VcPolicy",
    "DatelineVc",
    "TorusDatelineVc",
    "RingDatelineVc",
    "EscapeVcAdaptive",
    "FabricRouter",
    "FLOW_WORMHOLE",
    "FLOW_VC",
    "FabricSource",
    "FabricSink",
    "MeshTopology",
    "TorusTopology",
    "RingTopology",
    "CreditFabricNetwork",
    "FabricConfig",
    "TopologyEntry",
    "get_topology",
    "register_topology",
    "topology_names",
    "topology_table",
    "ConcentratedTreeNetwork",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fabric.allocator": (
        "ALLOCATOR_NAMES", "Allocator", "EscapeReentryAllocator",
        "RoundRobinAllocator", "WeightedAllocator", "make_allocator",
    ),
    "repro.fabric.link": ("CreditLink",),
    "repro.fabric.routing": (
        "DatelineVc", "EscapeVcAdaptive", "RingDatelineVc", "RingRouting",
        "RoutingStrategy", "TorusDatelineVc", "TorusXYRouting", "VcPolicy",
        "TreeUpDownRouting", "XYRouting",
    ),
    "repro.fabric.router": ("FabricRouter",),
    "repro.fabric.endpoint": ("FabricSink", "FabricSource"),
    "repro.fabric.topologies": (
        "MeshTopology", "RingTopology", "TorusTopology",
    ),
    "repro.fabric.network": ("CreditFabricNetwork",),
    "repro.fabric.ctree": ("ConcentratedTreeNetwork",),
    "repro.fabric.registry": (
        "FLOW_VC", "FLOW_WORMHOLE", "FabricConfig", "TopologyEntry",
        "get_topology", "register_topology", "topology_names",
        "topology_table",
    ),
})
