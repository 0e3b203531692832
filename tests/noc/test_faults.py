"""Fault injection exercises the safety nets."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.noc.debug import attach_watchdog
from repro.noc.faults import FaultInjector, FaultKind, inject_link_fault
from repro.noc.flit import Flit, FlitKind
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.pipeline import build_pipeline
from repro.sim.kernel import SimKernel


def flits(n):
    return [Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=i, seq=0,
                 payload=i) for i in range(n)]


class TestStuckStall:
    def test_freezes_pipeline_without_loss(self):
        """A dead stage blocks but never corrupts: everything upstream is
        retained, nothing downstream is fabricated."""
        kernel = SimKernel()
        src, stages, sink = build_pipeline(kernel, "p", stages=4)
        FaultInjector(stages[2], FaultKind.STUCK_STALL, from_tick=10)
        src.send(flits(20))
        kernel.run_ticks(300)
        delivered = [f.payload for f in sink.flits]
        # Prefix only, in order, no duplicates or inventions.
        assert delivered == list(range(len(delivered)))
        assert len(delivered) < 20

    def test_watchdog_fires_on_network_fault(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        attach_watchdog(net, patience_ticks=300)
        # Link stage 0 is the root -> left-child downward stage, so break
        # it and route right-half sources to left-half destinations.
        inject_link_fault(net, FaultKind.STUCK_STALL, stage_index=0)
        for src in range(32, 64, 2):
            net.send(Packet(src=src, dest=63 - src))
        with pytest.raises(SimulationError, match="no progress"):
            net.run_ticks(20_000)

    def test_heal_restores_service(self):
        kernel = SimKernel()
        src, stages, sink = build_pipeline(kernel, "p", stages=4)
        injector = FaultInjector(stages[2], FaultKind.STUCK_STALL,
                                 from_tick=0)
        src.send(flits(10))
        kernel.run_ticks(100)
        blocked = len(sink.flits)
        injector.heal()
        kernel.run_ticks(200)
        assert len(sink.flits) == 10
        assert blocked < 10


class TestDropFlits:
    def test_delivery_accounting_catches_loss(self):
        kernel = SimKernel()
        src, stages, sink = build_pipeline(kernel, "p", stages=4)
        injector = FaultInjector(stages[1], FaultKind.DROP_FLITS,
                                 from_tick=20)
        src.send(flits(20))
        kernel.run_ticks(300)
        assert injector.activations > 0
        assert len(sink.flits) < 20  # the stats expose the loss
        # What did arrive is still in order (prefix property).
        payloads = [f.payload for f in sink.flits]
        assert payloads == sorted(payloads)


class TestCorruptDest:
    def test_misroute_detected_by_delivery_accounting(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        inject_link_fault(net, FaultKind.CORRUPT_DEST, stage_index=0,
                          corrupt_dest_to=5)
        # Traffic crossing the root -> left-child downward stage.
        for src in range(56, 64):
            net.send(Packet(src=src, dest=63 - src))
        net.drain(50_000)
        # At least one packet went somewhere other than its dest field
        # intended at injection (the reassembled dest is the corrupted
        # one, the leaf whose NI ejected it — the *injection* map is
        # what disagrees).
        misdelivered = [packet.packet_id for packet in net.delivered
                        if packet.dest == 5]
        assert misdelivered, "fault never activated"


class TestValidation:
    def test_bad_tick_rejected(self):
        kernel = SimKernel()
        _src, stages, _sink = build_pipeline(kernel, "p", stages=1)
        with pytest.raises(ConfigurationError):
            FaultInjector(stages[0], FaultKind.DROP_FLITS, from_tick=-1)

    def test_bad_stage_index_rejected(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        with pytest.raises(ConfigurationError):
            inject_link_fault(net, FaultKind.DROP_FLITS, stage_index=999)

    def test_network_without_link_stages_rejected(self):
        net = ICNoCNetwork(FabricConfig(ports=4, arity=2,
                                         chip_width_mm=2.0,
                                         chip_height_mm=2.0))
        assert not net.link_stages
        with pytest.raises(ConfigurationError):
            inject_link_fault(net, FaultKind.DROP_FLITS)
