"""The pluggable allocation policies and the QoS guarantees they carry.

Three layers of coverage:

* unit — :func:`make_allocator` validation, the weighted grant rule
  (entitled preemption, spare-bandwidth sharing, epoch halving), and the
  keyed/introspectable/picklable arbiter state contract;
* registry — the config-time legality checks (allocator vs flow
  control, reservation bounds, priority-flow endpoints);
* system — the QoS isolation scenario the feature exists for: on a 4x4
  mesh under adversarial hotspot background traffic, a priority flow
  with a weighted reservation on its lane keeps >= 90% of the reserved
  bandwidth, observed through delivered packets and corroborated by
  ``vc_allocated`` / ``credit_exhausted`` events. This is also the CI
  smoke gate.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.fabric.allocator import (
    EscapeReentryAllocator,
    RoundRobinAllocator,
    WeightedAllocator,
    make_allocator,
)
from repro.fabric.registry import FabricConfig
from repro.fabric.router import FabricRouter
from repro.noc.packet import Packet
from repro.sim.kernel import SimKernel


# -- unit: factory and validation ---------------------------------------

def test_make_allocator_dispatch():
    assert isinstance(make_allocator("rr"), RoundRobinAllocator)
    assert isinstance(make_allocator("escape-reentry"),
                      EscapeReentryAllocator)
    weighted = make_allocator("weighted", ((1, 0.5),))
    assert isinstance(weighted, WeightedAllocator)
    assert weighted.reservations == {1: 0.5}


def test_make_allocator_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown allocator"):
        make_allocator("lottery")


@pytest.mark.parametrize("name", ["rr", "escape-reentry"])
def test_reservations_need_weighted(name):
    with pytest.raises(ConfigurationError, match="weighted"):
        make_allocator(name, ((1, 0.5),))


def test_weighted_reservation_validation():
    with pytest.raises(ConfigurationError, match="at least one"):
        WeightedAllocator(())
    with pytest.raises(ConfigurationError, match="duplicate"):
        WeightedAllocator(((1, 0.2), (1, 0.3)))
    with pytest.raises(ConfigurationError, match="in \\(0, 1\\]"):
        WeightedAllocator(((1, 0.0),))
    with pytest.raises(ConfigurationError, match="in \\(0, 1\\]"):
        WeightedAllocator(((1, 1.5),))
    with pytest.raises(ConfigurationError, match="sum"):
        WeightedAllocator(((0, 0.6), (1, 0.6)))


def test_weighted_bind_checks_vc_bounds():
    with pytest.raises(ConfigurationError, match="vc3.*2 VCs"):
        WeightedAllocator(((3, 0.5),)).bind(5, 2)


def test_allocator_binds_once():
    allocator = make_allocator("rr").bind(5, 1)
    with pytest.raises(ConfigurationError, match="already bound"):
        allocator.bind(5, 1)


# -- unit: state contract (keyed, introspectable, picklable) ------------

def test_single_vc_switch_arbiters_are_the_wormhole_shape():
    allocator = make_allocator("rr").bind(5, 1)
    assert len(allocator.sa_arbiters) == 5
    assert all(a.inputs == 5 for a in allocator.sa_arbiters)
    # No VC stage in the degenerate regime.
    assert allocator.va_arbiters == {}


def test_va_arbiters_keyed_by_output_pair():
    allocator = make_allocator("rr").bind(5, 2)
    assert sorted(allocator.va_arbiters) == [
        (out_port, out_vc) for out_port in range(5) for out_vc in range(2)
    ]
    assert all(a.inputs == 10 for a in allocator.va_arbiters.values())


def test_bound_allocator_pickles():
    allocator = make_allocator("weighted", ((1, 0.25),)).bind(5, 2)
    allocator.switch_winner(0, [True] + [False] * 9, [1] + [0] * 9)
    clone = pickle.loads(pickle.dumps(allocator))
    assert clone.reservations == {1: 0.25}
    assert sorted(clone.va_arbiters) == sorted(allocator.va_arbiters)
    assert clone._sa_total == allocator._sa_total


def test_router_exposes_allocator_arbiters():
    kernel = SimKernel()
    router = FabricRouter(kernel, "r0", n_ports=5, route=lambda f: 0,
                          n_vcs=2, candidates=lambda p, v, f: ([(0, 0)], []))
    assert router.sa_arbiters is router.allocator.sa_arbiters
    assert router.va_arbiters is router.allocator.va_arbiters
    assert (0, 0) in router.va_arbiters


# -- unit: the weighted grant rule --------------------------------------

def _weighted(fraction=0.5, ports=2, vcs=2, vc=1):
    return make_allocator("weighted", ((vc, fraction),)).bind(ports, vcs)


def test_entitled_requester_preempts():
    allocator = _weighted()
    # Flat inputs 0..3; input 3 targets the reserved vc1, input 0 targets
    # vc0. Warm the window so the reservation has bandwidth to claim.
    out_vc_of = [0, 0, 0, 1]
    both = [True, False, False, True]
    wins = [allocator.switch_winner(0, both, out_vc_of)
            for _ in range(16)]
    # Under sustained two-way contention the reserved requester takes
    # half the grants (its reservation) and never starves the other.
    assert wins.count(3) >= 7
    assert wins.count(0) >= 1


def test_spare_bandwidth_shared_when_reserved_vc_idle():
    allocator = _weighted()
    out_vc_of = [0, 0, 0, 1]
    only_unreserved = [True, True, False, False]
    wins = [allocator.switch_winner(0, only_unreserved, out_vc_of)
            for _ in range(8)]
    # No entitled requester: plain round-robin between inputs 0 and 1.
    assert wins.count(0) == 4 and wins.count(1) == 4


def test_epoch_halves_the_window():
    allocator = _weighted()
    out_vc_of = [0, 0, 0, 1]
    request = [False, False, False, True]
    for _ in range(WeightedAllocator.EPOCH - 1):
        allocator.switch_winner(0, request, out_vc_of)
    assert allocator._sa_total[0] == WeightedAllocator.EPOCH - 1
    allocator.switch_winner(0, request, out_vc_of)
    assert allocator._sa_total[0] == WeightedAllocator.EPOCH // 2
    assert allocator._sa_share[0][1] == WeightedAllocator.EPOCH // 2


def test_escape_reentry_is_a_policy_knob():
    assert EscapeReentryAllocator.wants_reentry
    assert not RoundRobinAllocator.wants_reentry
    assert not WeightedAllocator.wants_reentry


# -- unit: the lone-requester forms ---------------------------------------

#: Every registered policy, as the router's network builds it.
REGISTERED = {
    "rr": lambda: make_allocator("rr"),
    "weighted": lambda: make_allocator("weighted", ((1, 0.5),)),
    "escape-reentry": lambda: make_allocator("escape-reentry"),
}


@st.composite
def allocator_histories(draw):
    """A registered policy's shape plus a seeded prefix of full-vector
    grants (long enough to cross the weighted window's epoch)."""
    name = draw(st.sampled_from(sorted(REGISTERED)))
    n_ports = draw(st.integers(min_value=2, max_value=3))
    n_vcs = draw(st.integers(min_value=1 if name == "rr" else 2,
                             max_value=3))
    return (name, n_ports, n_vcs, draw(st.integers(0, 3 * 64)),
            draw(st.integers(0, 2 ** 16)))


def _replay_history(allocator, length, seed):
    rng = random.Random(seed)
    flat = allocator.n_ports * allocator.n_vcs
    for _ in range(length):
        requests = [rng.random() < 0.4 for _ in range(flat)]
        out_vc_of = [rng.randrange(allocator.n_vcs) for _ in range(flat)]
        out_port = rng.randrange(allocator.n_ports)
        allocator.switch_winner(out_port, requests, out_vc_of)
        if allocator.n_vcs >= 2:
            allocator.vc_winner(out_port, rng.randrange(allocator.n_vcs),
                                requests)


@settings(max_examples=60, deadline=None)
@given(allocator_histories(), st.data())
def test_switch_lone_equals_a_one_hot_switch_winner(case, data):
    name, n_ports, n_vcs, length, seed = case
    lone = REGISTERED[name]().bind(n_ports, n_vcs)
    full = REGISTERED[name]().bind(n_ports, n_vcs)
    for allocator in (lone, full):
        _replay_history(allocator, length, seed)
    out_port = data.draw(st.integers(0, n_ports - 1))
    flat = data.draw(st.integers(0, n_ports * n_vcs - 1))
    out_vc = data.draw(st.integers(0, n_vcs - 1))
    requests = [i == flat for i in range(n_ports * n_vcs)]
    out_vc_of = [out_vc] * (n_ports * n_vcs)
    assert lone.switch_lone(out_port, flat, out_vc) == \
        full.switch_winner(out_port, requests, out_vc_of) == flat
    assert pickle.dumps(lone) == pickle.dumps(full)


@settings(max_examples=30, deadline=None)
@given(allocator_histories().filter(lambda case: case[2] >= 2), st.data())
def test_vc_lone_equals_a_one_hot_vc_winner(case, data):
    name, n_ports, n_vcs, length, seed = case
    lone = REGISTERED[name]().bind(n_ports, n_vcs)
    full = REGISTERED[name]().bind(n_ports, n_vcs)
    for allocator in (lone, full):
        _replay_history(allocator, length, seed)
    out_port = data.draw(st.integers(0, n_ports - 1))
    out_vc = data.draw(st.integers(0, n_vcs - 1))
    flat = data.draw(st.integers(0, n_ports * n_vcs - 1))
    requests = [i == flat for i in range(n_ports * n_vcs)]
    assert lone.vc_lone(out_port, out_vc, flat) == \
        full.vc_winner(out_port, out_vc, requests) == flat
    assert pickle.dumps(lone) == pickle.dumps(full)


def test_weighted_switch_lone_halves_the_window():
    """The lone form runs the epoch halving exactly as the full form."""
    allocator = _weighted()
    for _ in range(WeightedAllocator.EPOCH - 1):
        allocator.switch_lone(0, 3, 1)
    assert allocator._sa_share[0][1] == WeightedAllocator.EPOCH - 1
    allocator.switch_lone(0, 3, 1)
    assert allocator._sa_total[0] == WeightedAllocator.EPOCH // 2
    assert allocator._sa_share[0][1] == WeightedAllocator.EPOCH // 2
    assert allocator.sa_arbiters[0].grant_counts == \
        [0, 0, 0, WeightedAllocator.EPOCH]


# -- registry: config-time legality -------------------------------------

def test_allocator_needs_vc_flow_control():
    with pytest.raises(ConfigurationError, match="flow_control='vc'"):
        FabricConfig(topology="mesh", ports=16, allocator="weighted",
                     reservations=((1, 0.5),))


def test_escape_reentry_needs_escape_policy():
    with pytest.raises(ConfigurationError, match="escape"):
        FabricConfig(topology="torus", ports=16, flow_control="vc",
                     vc_policy="dateline", allocator="escape-reentry")


def test_reservation_vc_bounds_checked():
    with pytest.raises(ConfigurationError, match="vc5"):
        FabricConfig(topology="mesh", ports=16, flow_control="vc",
                     n_vcs=2, vc_policy="escape", allocator="weighted",
                     reservations=((5, 0.5),))


def test_priority_flow_endpoints_checked():
    with pytest.raises(ConfigurationError):
        FabricConfig(topology="mesh", ports=16, flow_control="vc",
                     n_vcs=3, vc_policy="escape",
                     priority_flows=((0, 99),))
    with pytest.raises(ConfigurationError):
        FabricConfig(topology="mesh", ports=16, flow_control="vc",
                     n_vcs=3, vc_policy="escape",
                     priority_flows=((4, 4),))


def test_allocator_reported():
    config = FabricConfig(topology="mesh", ports=16, flow_control="vc",
                          vc_policy="escape", n_vcs=3,
                          allocator="escape-reentry")
    assert config.allocator == "escape-reentry"
    assert "escape-reentry" in config.build().describe()


def test_array_backend_refuses_weighted():
    with pytest.raises(ConfigurationError, match="weighted"):
        FabricConfig(topology="mesh", ports=16, flow_control="vc",
                     n_vcs=2, vc_policy="escape", allocator="weighted",
                     reservations=((1, 0.5),), backend="array").build()
    # "auto" falls back to dispatch instead of erroring.
    net = FabricConfig(topology="mesh", ports=16, flow_control="vc",
                       n_vcs=2, vc_policy="escape", allocator="weighted",
                       reservations=((1, 0.5),), backend="auto").build()
    assert net.backend == "dispatch"


# -- system: escape-reentry delivers ------------------------------------

def test_escape_reentry_drains_under_load():
    net = FabricConfig(topology="torus", ports=16, flow_control="vc",
                       n_vcs=4, vc_policy="escape",
                       allocator="escape-reentry").build()
    for cycle in range(40):
        net.send(Packet(src=cycle % 16, dest=(cycle * 7 + 3) % 16,
                        payload=[cycle, cycle + 1]))
        net.run_ticks(2)
    assert net.drain(300_000)
    assert net.stats.packets_delivered == 40


# -- system: the QoS isolation guarantee --------------------------------

#: The reserved fraction of the contended port's bandwidth.
RESERVATION = 0.5
#: Injection cycles of the isolation scenario.
CYCLES = 400


def _isolation_run(allocator):
    """A 4x4 mesh where flow 0 -> 3 rides the priority lane at exactly
    its reserved rate while every other node floods node 3 (the
    corner-hotspot adversary contends for the same ejection port)."""
    kwargs = {}
    if allocator == "weighted":
        # The escape policy with a priority lane needs 2 + 1 VCs; the
        # lane is the top VC (vc2), and the reservation meters it.
        kwargs = {"allocator": "weighted",
                  "reservations": ((2, RESERVATION),)}
    net = FabricConfig(topology="mesh", ports=16, flow_control="vc",
                       n_vcs=3, vc_policy="escape",
                       priority_flows=((0, 3),), **kwargs).build()
    lane_allocations = 0
    exhausted = 0

    def on_vc_allocated(tick, data):
        nonlocal lane_allocations
        if data["vc"] == 2:
            lane_allocations += 1

    def on_credit_exhausted(tick, data):
        nonlocal exhausted
        exhausted += 1

    net.kernel.subscribe("vc_allocated", on_vc_allocated)
    net.kernel.subscribe("credit_exhausted", on_credit_exhausted)
    priority_injected = 0
    for cycle in range(CYCLES):
        if cycle % 2 == 0:
            # The reserved flow offers exactly its reservation:
            # one single-flit packet every second cycle.
            net.send(Packet(src=0, dest=3, payload=[cycle]))
            priority_injected += 1
        for aggressor in range(16):
            if aggressor not in (0, 3) and cycle % 4 == aggressor % 4:
                net.send(Packet(src=aggressor, dest=3,
                                payload=[cycle, aggressor]))
        net.run_ticks(2)
    delivered = sum(1 for p in net.delivered
                    if p.src == 0 and p.dest == 3)
    return {
        "injected": priority_injected,
        "delivered": delivered,
        "lane_allocations": lane_allocations,
        "exhausted": exhausted,
    }


def test_weighted_reservation_isolates_priority_flow():
    run = _isolation_run("weighted")
    # The adversarial background genuinely congests the fabric...
    assert run["exhausted"] > 0
    # ...the priority flow rides its reserved lane...
    assert run["lane_allocations"] > 0
    # ...and still receives >= 90% of its reservation inside the
    # injection window (no drain: this is a throughput guarantee, not
    # an eventual-delivery statement).
    assert run["delivered"] >= 0.9 * RESERVATION * CYCLES, run


def test_reservation_beats_fair_arbitration():
    """The guarantee is the allocator's doing: same scenario under plain
    round-robin serves the hotspot's aggressors at the priority flow's
    expense."""
    weighted = _isolation_run("weighted")
    fair = _isolation_run("rr")
    assert weighted["delivered"] >= fair["delivered"], (weighted, fair)
