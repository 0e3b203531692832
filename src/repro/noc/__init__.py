"""The IC-NoC itself: flits, handshake links, tree routers, networks.

This package implements the packet-routing network of the paper's
Sections 3, 5 and 6 on top of the half-cycle kernel: capacity-1 pipeline
stages with valid/accept 2-phase flow control clocked at alternating edges,
wormhole 3x3/5x5 tree routers, H-tree floorplanning, and the assembled
network with its network interfaces and statistics.
"""

from repro.noc.flit import Flit, FlitKind
from repro.noc.packet import Packet
from repro.noc.handshake import HandshakeChannel
from repro.noc.pipeline import PipelineStage, SourceStage, SinkStage, build_pipeline
from repro.noc.arbiter import RoundRobinArbiter, FixedPriorityArbiter
from repro.noc.topology import TreeTopology
from repro.noc.floorplan import Floorplan, h_tree_floorplan, quad_tree_floorplan
from repro.noc.router import TreeRouter
from repro.noc.network import ICNoCNetwork, Network
from repro.noc.stats import NetworkStats
from repro.noc.debug import ProtocolMonitor, DeadlockWatchdog, attach_monitors
from repro.noc.faults import FaultInjector, FaultKind, inject_link_fault
from repro.noc.latency_model import (
    zero_load_latency_cycles,
    zero_load_latency_ticks,
)

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
    "h_tree_floorplan",
    "quad_tree_floorplan",
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
    "zero_load_latency_cycles",
    "zero_load_latency_ticks",
]
