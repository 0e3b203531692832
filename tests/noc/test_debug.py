"""Protocol monitors and watchdogs."""

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.noc.debug import (
    DeadlockWatchdog,
    ProtocolMonitor,
    attach_monitors,
    attach_watchdog,
)
from repro.noc.flit import Flit, FlitKind
from repro.noc.handshake import HandshakeChannel
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.pipeline import build_pipeline
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel


def flits(n):
    return [Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=i, seq=0,
                 payload=i) for i in range(n)]


class TestProtocolMonitor:
    def test_clean_pipeline_has_no_violations(self):
        kernel = SimKernel()
        src, stages, sink = build_pipeline(kernel, "p", stages=3)
        monitors = [ProtocolMonitor(kernel, stage.downstream)
                    for stage in stages]
        src.send(flits(15))
        kernel.run_ticks(100)
        assert all(not m.violations for m in monitors)
        assert all(m.accept_bursts >= 1 for m in monitors)

    def test_stalled_pipeline_still_clean(self):
        kernel = SimKernel()
        src, stages, sink = build_pipeline(
            kernel, "p", stages=3, ready=lambda t: not 10 <= t < 50
        )
        monitors = [ProtocolMonitor(kernel, stage.downstream)
                    for stage in stages]
        src.send(flits(15))
        kernel.run_ticks(200)
        assert all(not m.violations for m in monitors)

    def test_detects_data_instability(self):
        """A buggy producer that swaps data before accept is caught."""
        kernel = SimKernel()
        channel = HandshakeChannel(kernel, "c")
        ProtocolMonitor(kernel, channel)

        class BadProducer(ClockedComponent):
            def on_edge(self, tick):
                # Presents a *different* flit every edge without waiting
                # for accept — violates hold-until-acknowledged.
                flit = Flit(kind=FlitKind.SINGLE, src=0, dest=1,
                            packet_id=tick, seq=0)
                channel.drive(flit, tick)

        kernel.add_component(BadProducer("bad", 0))
        with pytest.raises(ProtocolError, match="data changed"):
            kernel.run_ticks(20)

    def test_detects_valid_without_data(self):
        kernel = SimKernel()
        channel = HandshakeChannel(kernel, "c")
        ProtocolMonitor(kernel, channel)

        class Liar(ClockedComponent):
            def on_edge(self, tick):
                channel._valid.set(True, tick)  # valid with data None

        kernel.add_component(Liar("liar", 0))
        with pytest.raises(ProtocolError, match="no data"):
            kernel.run_ticks(10)

    def test_detects_spurious_accept(self):
        kernel = SimKernel()
        channel = HandshakeChannel(kernel, "c")
        ProtocolMonitor(kernel, channel)

        class EagerConsumer(ClockedComponent):
            def on_edge(self, tick):
                channel.respond(True, tick)  # accept with nothing valid

        kernel.add_component(EagerConsumer("eager", 1))
        with pytest.raises(ProtocolError, match="without valid"):
            kernel.run_ticks(10)

    def test_whole_network_instrumented_run_is_clean(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        monitors = attach_monitors(net)
        assert len(monitors) == 7 * 6  # 7 routers x 3 ports x 2 directions
        for src in range(8):
            net.send(Packet(src=src, dest=(src + 3) % 8))
        assert net.drain(50_000)
        assert all(not m.violations for m in monitors)


class TestDeadlockWatchdog:
    def test_quiet_network_never_fires(self):
        net = ICNoCNetwork(FabricConfig(ports=4, arity=2))
        watchdog = attach_watchdog(net, patience_ticks=100)
        net.run_ticks(500)  # idle: nothing pending
        assert not watchdog.fired

    def test_progressing_network_never_fires(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        watchdog = attach_watchdog(net, patience_ticks=50)
        for src in range(8):
            net.send(Packet(src=src, dest=(src + 1) % 8))
        assert net.drain(10_000)
        assert not watchdog.fired

    def test_fires_on_artificial_stall(self):
        kernel = SimKernel()
        DeadlockWatchdog(kernel, progress=lambda: 0,
                         pending=lambda: True, patience_ticks=20)
        with pytest.raises(SimulationError, match="no progress"):
            kernel.run_ticks(50)

    def test_bad_patience_rejected(self):
        kernel = SimKernel()
        with pytest.raises(SimulationError):
            DeadlockWatchdog(kernel, progress=lambda: 0,
                             pending=lambda: True, patience_ticks=0)

    def test_sustained_injection_does_not_mask_deadlock(self):
        """Regression: injections into a stalled network must not keep
        postponing the verdict — only deliveries are progress."""
        from repro.noc.faults import FaultKind, inject_link_fault

        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        inject_link_fault(net, FaultKind.DROP_FLITS, stage_index=0)
        watchdog = attach_watchdog(net, patience_ticks=500)
        with pytest.raises(SimulationError, match="no progress"):
            for _ in range(40):
                # src 32 -> dest 31 crosses the dropped link: never
                # delivered, so every injection finds traffic pending.
                net.send(Packet(src=32, dest=31))
                net.run_ticks(200)
        assert watchdog.fired

    def test_dormant_watchdog_keeps_quiescence(self):
        """An idle network's watchdog goes dormant after one expiry
        instead of stepping the kernel every patience window."""
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        watchdog = attach_watchdog(net, patience_ticks=100)
        net.send(Packet(src=0, dest=5))
        assert net.drain(10_000)
        base = net.kernel.steps_executed
        net.run_ticks(1_000_000)
        # A few settling edges after the delivery, one watchdog expiry,
        # then the remaining ~1M ticks are one fast-forward jump.
        assert net.kernel.steps_executed <= base + 8
        assert not watchdog.fired

    def test_rearms_after_dormant_idle_period(self):
        """The injection ending an idle period re-arms a dormant
        watchdog, which then still catches a stall."""
        from repro.noc.faults import FaultKind, inject_link_fault

        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        inject_link_fault(net, FaultKind.DROP_FLITS, stage_index=0)
        watchdog = attach_watchdog(net, patience_ticks=300)
        net.run_ticks(5_000)  # idle: expire once, go dormant
        assert not watchdog.fired
        net.send(Packet(src=32, dest=31))  # doomed; re-arms on inject
        with pytest.raises(SimulationError, match="no progress"):
            net.run_ticks(5_000)
        assert watchdog.fired
