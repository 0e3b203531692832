"""The telemetry tap: one probe per wire and one listener per event,
shared by the metrics registry and the flit tracer."""

import json

import pytest

from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet
from repro.sim.kernel import SimKernel
from repro.telemetry import attach_metrics, attach_tracer

WIRED = {
    "mesh": dict(topology="mesh", ports=16),
    "torus_vc": dict(topology="torus", ports=16, flow_control="vc",
                     n_vcs=2),
    "torus_vc_array": dict(topology="torus", ports=16, flow_control="vc",
                           n_vcs=2, backend="array"),
    "segmented": dict(topology="torus", ports=16, segment_links=True,
                      chip_width_mm=20, chip_height_mm=20),
}
EVENT_FED = {
    "pipelined": dict(topology="torus", ports=16, pipeline_depth=2),
    "tree": dict(topology="tree", ports=16),
}


def _probes_per_signal(net):
    return [len(signal._probes) for signal in net.kernel._signals
            if signal._probes]


@pytest.mark.parametrize("build", sorted(WIRED))
def test_grants_are_read_off_the_wires(build):
    net = FabricConfig(**WIRED[build]).build()
    attach_metrics(net)
    attach_tracer(net, sample_period=1)
    subs = net.kernel._event_subs
    assert "arbitration_grant" not in subs
    assert all(len(subs[event]) == 1 for event in subs)
    assert set(_probes_per_signal(net)) == {1}
    # Every flit wire and every grant wire carries the one probe.
    probed = {id(signal) for signal in net.kernel._signals
              if signal._probes}
    assert probed == {id(signal) for _n, signal, *_ in net.flit_wires()} \
        | {id(signal) for *_, signal in net.grant_wires()}


@pytest.mark.parametrize("build", sorted(EVENT_FED))
def test_staged_and_handshake_switches_are_read_from_events(build):
    net = FabricConfig(**EVENT_FED[build]).build()
    assert not list(net.grant_wires())
    attach_metrics(net)
    attach_tracer(net, sample_period=1)
    subs = net.kernel._event_subs
    assert len(subs["arbitration_grant"]) == 1
    assert set(_probes_per_signal(net)) == {1}


def test_a_second_registry_keeps_the_same_record():
    net = FabricConfig(topology="mesh", ports=16).build()
    first, second = attach_metrics(net), attach_metrics(net)
    for src in range(16):
        net.send(Packet(src=src, dest=15 - src if src != 15 - src else 0,
                        payload=[1, 2, 3]))
    assert net.drain()
    assert json.dumps(first.summary().to_dict(), sort_keys=True) == \
        json.dumps(second.summary().to_dict(), sort_keys=True)
    assert first.summary().packets_delivered == 16


class TestUnsubscribe:
    def test_removes_only_that_listener(self):
        kernel = SimKernel()
        heard = []
        first = lambda tick, data: heard.append(("first", data))  # noqa
        second = lambda tick, data: heard.append(("second", data))  # noqa
        kernel.subscribe("inject", first)
        kernel.subscribe("inject", second)
        kernel.unsubscribe("inject", first)
        kernel.emit("inject", 1)
        assert heard == [("second", 1)]

    def test_an_event_without_listeners_leaves_the_dict(self):
        kernel = SimKernel()
        listener = lambda tick, data: None  # noqa: E731
        kernel.subscribe("packet", listener)
        kernel.unsubscribe("packet", listener)
        kernel.unsubscribe("packet", listener)   # absent: a no-op
        assert not kernel._event_subs
