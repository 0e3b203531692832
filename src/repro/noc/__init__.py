"""The IC-NoC itself: flits, handshake links, tree routers, networks.

This package implements the packet-routing network of the paper's
Sections 3, 5 and 6 on top of the half-cycle kernel: capacity-1 pipeline
stages with valid/accept 2-phase flow control clocked at alternating edges,
wormhole 3x3/5x5 tree routers, H-tree floorplanning, and the assembled
network with its network interfaces and statistics.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Flit",
    "FlitKind",
    "Packet",
    "HandshakeChannel",
    "PipelineStage",
    "SourceStage",
    "SinkStage",
    "build_pipeline",
    "RoundRobinArbiter",
    "FixedPriorityArbiter",
    "TreeTopology",
    "Floorplan",
    "TreeRouter",
    "ICNoCNetwork",
    "Network",
    "NetworkStats",
    "ProtocolMonitor",
    "DeadlockWatchdog",
    "attach_monitors",
    "FaultInjector",
    "FaultKind",
    "inject_link_fault",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.noc.flit": ("Flit", "FlitKind"),
    "repro.noc.packet": ("Packet",),
    "repro.noc.handshake": ("HandshakeChannel",),
    "repro.noc.pipeline": (
        "PipelineStage", "SourceStage", "SinkStage", "build_pipeline",
    ),
    "repro.noc.arbiter": ("RoundRobinArbiter", "FixedPriorityArbiter"),
    "repro.noc.topology": ("TreeTopology",),
    "repro.noc.floorplan": ("Floorplan",),
    "repro.noc.router": ("TreeRouter",),
    "repro.noc.base": ("Network",),
    "repro.noc.network": ("ICNoCNetwork",),
    "repro.noc.stats": ("NetworkStats",),
    "repro.noc.debug": (
        "ProtocolMonitor", "DeadlockWatchdog", "attach_monitors",
    ),
    "repro.noc.faults": ("FaultInjector", "FaultKind", "inject_link_fault"),
})
