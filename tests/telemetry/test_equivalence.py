"""Telemetry's kernel-mode equivalence bar.

The registry and tracer ride probes and events only, so an instrumented
run must (a) deliver exactly the traffic an uninstrumented run does and
(b) serialise to byte-identical JSON whether the kernel fast-forwards
or steps every tick — on every registered topology under every flow
control it declares. This mirrors ``tests/fabric/test_equivalence.py``,
which is the acceptance bar the fabrics themselves clear.
"""

import json

import numpy as np
import pytest

from repro.telemetry import attach_metrics, attach_tracer
from repro.traffic.patterns import UniformRandom
from tests.fabric.test_equivalence import (
    _config,
    _ports_for,
    flow_control_matrix,
)


def run_instrumented(name, activity_driven, flow="wormhole", policy=None,
                     cycles=50, load=0.25, sample_period=4):
    net = _config(name, flow, policy, activity_driven).build()
    registry = attach_metrics(net)
    tracer = attach_tracer(net, sample_period=sample_period)
    ports = _ports_for(name)
    gen = UniformRandom(ports, load, size_flits=2)
    schedule = gen.generate(cycles, np.random.default_rng(5))
    by_cycle = {}
    for injection in schedule:
        by_cycle.setdefault(injection.cycle, []).append(injection)
    for cycle in range(cycles):
        for injection in by_cycle.get(cycle, []):
            net.send(injection.to_packet())
        net.run_ticks(2)
    assert net.drain(300_000), f"{name}/{flow} failed to drain"
    net.run_ticks(2_000)  # idle tail: instrumentation must not wake it
    return net, registry, tracer


def serialize(registry, tracer):
    return (
        json.dumps(registry.summary().to_dict(), sort_keys=True),
        json.dumps([t.to_dict() for t in tracer.traces], sort_keys=True),
    )


@pytest.mark.parametrize("name,flow,policy", flow_control_matrix())
def test_telemetry_byte_identical_across_modes(name, flow, policy):
    _, fast_reg, fast_trc = run_instrumented(name, True, flow, policy)
    _, naive_reg, naive_trc = run_instrumented(name, False, flow, policy)
    assert serialize(fast_reg, fast_trc) == serialize(naive_reg, naive_trc), \
        (name, flow, policy)


@pytest.mark.parametrize("name,flow,policy", flow_control_matrix())
def test_instrumented_delivery_matches_uninstrumented(name, flow, policy):
    from tests.fabric.test_equivalence import run_traffic
    net, registry, _ = run_instrumented(name, True, flow, policy,
                                        cycles=60)
    plain = run_traffic(name, True, flow, policy, cycles=60)
    summary = registry.summary()
    assert summary.packets_injected == plain["injected"]
    assert summary.packets_delivered == plain["injected"]
    assert sorted(net.stats.latencies_cycles) == plain["latencies"]
    # The registry's own latency view agrees with the network's stats.
    assert summary.latency["count"] == len(plain["latencies"])
    assert summary.latency["mean"] == pytest.approx(
        float(np.mean(plain["latencies"])))


@pytest.mark.parametrize("name", ["mesh", "tree"])
def test_instrumentation_keeps_fast_path(name):
    """An instrumented idle tail must still fast-forward: probes and
    subscriptions never force the kernel awake."""
    net, _, _ = run_instrumented(name, True)
    baseline = net.kernel.steps_executed
    net.run_ticks(50_000)
    assert net.kernel.steps_executed - baseline < 100


class TestSamplingDeterminism:
    def test_relative_ids_are_multiples_of_period(self):
        _, _, tracer = run_instrumented("mesh", True, sample_period=4)
        ids = [t.packet_id for t in tracer.traces]
        assert ids, "no packets sampled"
        assert all(pid % 4 == 0 for pid in ids)
        assert ids == sorted(ids)

    def test_period_one_samples_everything(self):
        _, registry, tracer = run_instrumented("mesh", True,
                                               sample_period=1)
        assert len(tracer.traces) == registry.summary().packets_injected

    def test_sampled_set_stable_across_repeat_runs(self):
        # The process-global packet-id counter advances between runs;
        # relative ids must not.
        _, _, first = run_instrumented("ring", True, sample_period=8)
        _, _, second = run_instrumented("ring", True, sample_period=8)
        assert [t.packet_id for t in first.traces] == \
            [t.packet_id for t in second.traces]

    def test_traces_complete_and_hop_timed(self):
        _, _, tracer = run_instrumented("torus", True, sample_period=8)
        for trace in tracer.traces:
            assert trace.deliver_tick is not None
            assert trace.hops, f"packet {trace.packet_id} has no hops"
            for i, hop in enumerate(trace.hops):
                assert hop.arrival_tick is None or \
                    hop.arrival_tick <= hop.grant_tick
                queue = hop.queue_cycles()
                assert queue is None or queue >= 0
                transit = trace.transit_cycles(i)
                assert transit is None or transit > 0
