"""Tree routers: forward latency, arbitration, wormhole locking, and the
tree's byte-identity pins (VCD, signal trace, router events, fault
findings)."""

import hashlib

import numpy as np
import pytest

from repro.errors import ProtocolError, RoutingError
from repro.fabric.registry import FabricConfig
from repro.noc.arbiter import FixedPriorityArbiter, RoundRobinArbiter
from repro.noc.debug import ProtocolMonitor, attach_monitors
from repro.noc.faults import FaultKind, inject_link_fault
from repro.noc.flit import Flit, FlitKind
from repro.noc.packet import Packet
from repro.noc.router import TreeRouter
from repro.noc.topology import TreeTopology
from repro.sim.kernel import SimKernel
from repro.sim.vcd import VCDWriter
from repro.system.demonstrator import DemonstratorConfig, DemonstratorSystem
from repro.traffic.base import apply_traffic
from repro.traffic.patterns import UniformRandom
from tests.integration.test_fast_path_contract import run as contract_run


def leaf_router_harness(arity=2, arbiter_factory=None):
    """A single leaf-level router with manual channel access.

    Uses the smallest tree of the arity; router index (count-1 - none)...
    we pick the first leaf-level router and drive its channels directly.
    """
    kernel = SimKernel()
    topo = TreeTopology(arity * arity, arity=arity)
    node = topo.leaf_router(0)
    kwargs = {}
    if arbiter_factory is not None:
        kwargs["arbiter_factory"] = arbiter_factory
    router = TreeRouter(kernel, "r", node, input_parity=0,
                        route=topo.routing().for_node(node.index), **kwargs)
    return kernel, topo, router


def drive_flit(kernel, channel, flit, max_ticks=50):
    """Producer-side helper: hold a flit on a channel until accepted."""
    done = {"accepted": False}

    from repro.sim.component import ClockedComponent

    class OneShot(ClockedComponent):
        def __init__(self, name):
            super().__init__(name, parity=1)
            self.sent = False
            kernel.add_component(self)

        def on_edge(self, tick):
            if self.sent and channel.accepted:
                done["accepted"] = True
                channel.drive(None, tick)
                return
            if not done["accepted"]:
                channel.drive(flit, tick)
                self.sent = True

    OneShot(f"drv{id(flit)}")
    return done


class TestForwardLatency:
    def test_3x3_router_is_three_half_cycles(self):
        kernel, topo, router = leaf_router_harness(arity=2)
        assert router.forward_latency_ticks == 3

    def test_5x5_router_is_five_half_cycles(self):
        kernel, topo, router = leaf_router_harness(arity=4)
        assert router.forward_latency_ticks == 5

    def test_measured_latency_matches_3x3(self):
        kernel, topo, router = leaf_router_harness(arity=2)
        flit = Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=0, seq=0)
        received = []
        from repro.sim.component import ClockedComponent

        class Sink(ClockedComponent):
            def __init__(self):
                super().__init__("sink", parity=1)
                kernel.add_component(self)

            def on_edge(self, tick):
                out = router.out_channels[2]  # port toward leaf 1
                if out.valid:
                    received.append((tick, out.data))
                    out.respond(True, tick)
                else:
                    out.respond(False, tick)

        Sink()
        drive_flit(kernel, router.in_channels[1], flit)
        kernel.run_ticks(30)
        assert len(received) == 1
        # Driven at tick 1 (parity-1 driver), then 3 router stages: input
        # latches t2, switch t3, output t4, sink sees it at t5.
        assert received[0][0] == 5

    def test_measured_latency_matches_5x5(self):
        kernel, topo, router = leaf_router_harness(arity=4)
        flit = Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=0, seq=0)
        received = []
        from repro.sim.component import ClockedComponent

        class Sink(ClockedComponent):
            def __init__(self):
                super().__init__("sink", parity=1)
                kernel.add_component(self)

            def on_edge(self, tick):
                out = router.out_channels[2]
                if out.valid:
                    received.append((tick, out.data))
                    out.respond(True, tick)
                else:
                    out.respond(False, tick)

        Sink()
        drive_flit(kernel, router.in_channels[1], flit)
        kernel.run_ticks(30)
        assert received[0][0] == 7  # two extra half-cycles vs the 3x3


class TestRouting:
    def test_routes_to_correct_child(self):
        kernel, topo, router = leaf_router_harness(arity=2)
        # dest 1 is under child port 2 (leaf 1 = second child).
        flit = Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=0, seq=0)
        assert router._route(flit) == 2

    def test_routes_up_for_remote(self):
        kernel, topo, router = leaf_router_harness(arity=2)
        flit = Flit(kind=FlitKind.SINGLE, src=0, dest=3, packet_id=0, seq=0)
        assert router._route(flit) == 0  # parent port

    def test_root_rejects_unroutable(self):
        kernel = SimKernel()
        topo = TreeTopology(4, arity=2)
        root = TreeRouter(kernel, "root", topo.router(0), input_parity=0,
                          route=topo.routing().for_node(0))
        flit = Flit(kind=FlitKind.SINGLE, src=0, dest=99, packet_id=0, seq=0)
        with pytest.raises(RoutingError):
            root._route(flit)

    @pytest.mark.parametrize("port, message", [(1, "U-turn on port 1"),
                                               (3, "bad route to port 3")])
    def test_switch_rejects_a_u_turn_and_a_port_out_of_range(self, port,
                                                             message):
        """A route plugged in from outside is checked at the switch edge
        that routes the flit, in both ways it can be wrong."""
        kernel = SimKernel()
        topo = TreeTopology(4, arity=2)
        router = TreeRouter(kernel, "r", topo.leaf_router(0),
                            input_parity=0, route=lambda flit: port)
        drive_flit(kernel, router.in_channels[1], Flit(
            kind=FlitKind.SINGLE, src=0, dest=1, packet_id=0, seq=0))
        with pytest.raises(RoutingError, match=f"r.switch: {message}"):
            kernel.run_ticks(10)


class TestWormhole:
    def test_packets_do_not_interleave(self):
        """Two multi-flit packets contending for the same output come out
        contiguous — the wormhole lock in action."""
        kernel, topo, router = leaf_router_harness(arity=2)
        pkt_a = Packet(src=0, dest=1, payload=[1, 2, 3])
        pkt_b = Packet(src=2, dest=1, payload=[10, 20, 30])
        from repro.noc.pipeline import SourceStage
        src_a = SourceStage(kernel, "sa", 1, router.in_channels[1])
        src_b = SourceStage(kernel, "sb", 1, router.in_channels[0])
        src_a.send(pkt_a.to_flits())
        src_b.send(pkt_b.to_flits())
        received = []
        from repro.sim.component import ClockedComponent

        class Sink(ClockedComponent):
            def __init__(self):
                super().__init__("sink", parity=1)
                kernel.add_component(self)

            def on_edge(self, tick):
                out = router.out_channels[2]
                if out.valid:
                    received.append(out.data)
                    out.respond(True, tick)
                else:
                    out.respond(False, tick)

        Sink()
        kernel.run_ticks(60)
        assert len(received) == 6
        ids = [f.packet_id for f in received]
        # Contiguous runs: once a packet starts it finishes.
        changes = sum(1 for a, b in zip(ids, ids[1:]) if a != b)
        assert changes == 1
        seqs_by_packet = {}
        for flit in received:
            seqs_by_packet.setdefault(flit.packet_id, []).append(flit.seq)
        for seqs in seqs_by_packet.values():
            assert seqs == [0, 1, 2]


class TestPriorityArbitration:
    def test_fixed_priority_wins_contention(self):
        """With the demonstrator policy, port-1 traffic always beats
        port-0 traffic toward output 2."""
        def factory(output_port, n_inputs):
            if output_port == 2:
                return FixedPriorityArbiter(n_inputs, order=[1, 0, 2])
            return RoundRobinArbiter(n_inputs)

        kernel, topo, router = leaf_router_harness(arbiter_factory=factory)
        from repro.noc.pipeline import SourceStage
        proc = SourceStage(kernel, "proc", 1, router.in_channels[1])
        parent = SourceStage(kernel, "parent", 1, router.in_channels[0])
        # Many single-flit packets from both.
        proc.send(Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=100 + i,
                       seq=0) for i in range(10))
        parent.send(Flit(kind=FlitKind.SINGLE, src=3, dest=1,
                         packet_id=200 + i, seq=0) for i in range(10))
        received = []
        from repro.sim.component import ClockedComponent

        class Sink(ClockedComponent):
            def __init__(self):
                super().__init__("sink", parity=1)
                kernel.add_component(self)

            def on_edge(self, tick):
                out = router.out_channels[2]
                if out.valid:
                    received.append(out.data)
                    out.respond(True, tick)
                else:
                    out.respond(False, tick)

        Sink()
        kernel.run_ticks(100)
        assert len(received) == 20
        first_ten = [f.packet_id for f in received[:10]]
        # All processor packets (ids 1xx) beat all parent packets (2xx).
        assert all(100 <= pid < 200 for pid in first_ten)


class TestGatingAggregation:
    def test_idle_router_gates_everything(self):
        kernel, topo, router = leaf_router_harness()
        kernel.run_ticks(50)
        stats = router.gating_stats()
        assert stats.edges_total > 0
        assert stats.edges_enabled == 0


# -- byte-identity pins -----------------------------------------------------
# Every digest below is the sha256 prefix of what the tree produced before
# its handshake wires were written on change and its switch edge was
# rebuilt around per-output request buckets; the rebuilt path must
# reproduce each one exactly.

def digest(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_instrumented_tree_vcd_and_trace_are_pinned(tmp_path):
    """The fast-path contract's ``instrumented`` tree: the root router's
    VCD text, the signal trace of one of its output valid wires and every
    router channel monitor's accept bursts. Its burst stays below the
    root, so the root's VCD is its initial dump; the busy roots are in
    the VCDs pinned with the switch events below."""
    observed = contract_run("instrumented", tmp_path)
    assert digest(observed["vcd"]) == "40fdc06321d93bfc"
    assert digest(observed["trace"]) == "46972f32d4d1f1ad"
    assert sum(observed["accept_bursts"]) == 29
    assert digest(observed["accept_bursts"]) == "b94be12bf5461d27"


TREE_EVENTS = ("arbitration_grant", "lock_acquire", "lock_release")


def tree_events(network, drive, vcd_path):
    """Every switch event ``drive()`` causes on ``network``, packet ids
    renumbered first-seen (raw ids are process-global), and the VCD text
    of the root router's valid and accept wires over the same run (a
    data wire's VCD value would carry those raw ids)."""
    root = network.routers[0]
    writer = VCDWriter(network.kernel, vcd_path, [
        wire for channel in root.in_channels + root.out_channels
        for wire in (channel.valid_signal, channel.accept_signal)])
    events = []
    packet_ids = {}

    def record(name):
        def on_event(tick, data):
            flit = data.get("flit")
            packet_id = data.get("packet_id",
                                 getattr(flit, "packet_id", None))
            events.append((tick, name, data["router"], data["output"],
                           data["input"],
                           packet_ids.setdefault(packet_id, len(packet_ids)),
                           getattr(flit, "seq", None)))
        return on_event

    for name in TREE_EVENTS:
        network.kernel.subscribe(name, record(name))
    drive()
    writer.close()
    return events, vcd_path.read_text()


def round_robin_tree_events(activity_driven, vcd_path):
    """A 64-leaf binary tree under uniform 3-flit traffic, drained."""
    net = FabricConfig(ports=64, arity=2,
                       activity_driven=activity_driven).build()
    schedule = UniformRandom(64, 0.3, size_flits=3).generate(
        60, np.random.default_rng(3))
    return tree_events(net, lambda: apply_traffic(
        net, schedule, run_cycles=60, drain_ticks=100_000), vcd_path)


def local_priority_events(activity_driven, vcd_path):
    """The 8-tile demonstrator (local-priority arbitration), 300 cycles
    of closed-loop reads plus its drain."""
    system = DemonstratorSystem(DemonstratorConfig(
        tiles=8, activity_driven=activity_driven))
    return tree_events(system.network, lambda: system.run(cycles=300),
                       vcd_path)


#: (run, event count, lock events among them, event digest, VCD digest).
EVENT_PINS = {
    "round_robin": (round_robin_tree_events, 20605, 8242,
                    "ac23e437b783aeee", "a4f747f4ec72551c"),
    "local_priority": (local_priority_events, 5082, 1452,
                       "8f38444ccbb8f579", "2e831246bd24f8c6"),
}


@pytest.mark.parametrize("policy", EVENT_PINS)
def test_switch_event_sequence_is_pinned(policy, tmp_path):
    """Grants and wormhole locks, event for event, and the root's wires,
    change for change, in both kernel modes."""
    run, count, locks, pinned, pinned_vcd = EVENT_PINS[policy]
    events, vcd = run(True, tmp_path / "fast.vcd")
    assert run(False, tmp_path / "naive.vcd") == (events, vcd)
    assert len(events) == count
    assert sum(event[1] != "arbitration_grant" for event in events) == locks
    assert digest(events) == pinned
    assert digest(vcd) == pinned_vcd


def fault_findings(kind, activity_driven):
    """Protocol monitors on every router channel and on both channels of
    the broken root-to-left-child link stage, under ``kind``: the error a
    monitor raised (if any), each monitor's violations and accept bursts,
    and what was delivered where."""
    net = FabricConfig(ports=64, arity=2,
                       activity_driven=activity_driven).build()
    monitors = attach_monitors(net)
    stage = net.link_stages[0]
    monitors += [ProtocolMonitor(net.kernel, stage.upstream),
                 ProtocolMonitor(net.kernel, stage.downstream)]
    injector = inject_link_fault(net, kind, stage_index=0, from_tick=40,
                                 corrupt_dest_to=5)
    for src in range(32, 64, 2):
        net.send(Packet(src=src, dest=63 - src, payload=[src, src + 1]))
    try:
        net.run_ticks(1_200)
        error = None
    except ProtocolError as raised:
        error = str(raised)
    return (error, injector.activations,
            [(m.channel.name, m.violations, m.accept_bursts)
             for m in monitors if m.violations or m.accept_bursts],
            sorted((p.src, p.dest, tuple(p.payload)) for p in net.delivered))


#: FaultKind -> (delivered packets, digest of the findings).
FAULT_PINS = {
    FaultKind.STUCK_STALL: (5, "7eafcef86240b7e0"),
    FaultKind.DROP_FLITS: (5, "4922ddc788e513b7"),
    FaultKind.CORRUPT_DEST: (5, "556a42327dfb4a10"),
}


@pytest.mark.parametrize("kind", FAULT_PINS, ids=lambda kind: kind.value)
def test_protocol_monitor_findings_under_each_fault_are_pinned(kind):
    """None of the faults breaks the handshake itself (each is caught by
    delivery accounting or the watchdog instead), so the monitors raise
    nothing; what the digest holds is every monitor's accept-burst count
    and the deliveries."""
    findings = fault_findings(kind, True)
    assert fault_findings(kind, False) == findings
    delivered, pinned = FAULT_PINS[kind]
    assert len(findings[3]) == delivered
    assert digest(findings) == pinned
