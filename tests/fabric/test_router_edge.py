"""One router edge, pinned at the level the input-first forwarding works.

The golden matrix (``test_equivalence.py``) pins whole unobserved runs;
these tests pin the two things it can only hit by luck:

* the **same-edge double grant** of the single-VC edge — outputs are
  served in ascending order, and an input whose tail leaves through one
  output exposes a new head that a *later* output may still grant on the
  same edge (never an earlier one) — and its VC-regime counterpart, where
  one crossbar pass per input port forbids it;
* the **observed-mode contract** — router event sequences and final
  state identical between the two kernel modes, over a randomized slice
  of topology x VCs x pipeline depth x allocator;
* the **lone-requester grant** — a router whose allocator answers every
  lone request through the full one-hot ``requests`` vector produces the
  same events and the same final state, allocator pickles included, over
  the same slice;
* the **fused credit pass** — credits collected at each output's turn in
  the grant pass give the observed event sequences, starvation events
  included, that a separate collection pass gave (pinned digests).
"""

import contextlib
import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.fabric.allocator import Allocator, WeightedAllocator
from repro.fabric.link import CreditLink
from repro.fabric.registry import FabricConfig
from repro.fabric.router import FabricRouter
from repro.noc.flit import Flit, FlitKind
from repro.sim.kernel import SimKernel
from repro.traffic.base import apply_traffic
from repro.traffic.patterns import UniformRandom


def flit(kind, dest, packet_id, seq=0):
    return Flit(kind=kind, src=0, dest=dest, packet_id=packet_id, seq=seq)


def hand_router(n_ports, n_vcs=1):
    """A fully connected router whose flits name their output port in
    ``dest``; returns (kernel, router, in_links, out_links)."""
    kernel = SimKernel()
    if n_vcs == 1:
        router = FabricRouter(kernel, "r", n_ports=n_ports,
                              route=lambda f: f.dest)
    else:
        router = FabricRouter(
            kernel, "r", n_ports=n_ports, n_vcs=n_vcs,
            candidates=lambda port, vc, head: (
                [(head.dest, out_vc) for out_vc in range(n_vcs)], []))
    in_links, out_links = [], []
    for port in range(n_ports):
        in_links.append(CreditLink(kernel, f"in{port}", n_vcs))
        out_links.append(CreditLink(kernel, f"out{port}", n_vcs))
        router.connect(port, in_links[port], out_links[port])
    return kernel, router, in_links, out_links


def launched(link, tick):
    """The flit the router drove onto ``link`` at ``tick`` (or None)."""
    payload = link.flit.value
    if payload is None or payload[1] != tick:
        return None
    return payload[0] if link.n_vcs == 1 else payload[0][0]


class TestSameEdgeDoubleGrant:
    def test_exposed_head_wanting_a_later_output_leaves_too(self):
        kernel, router, in_links, out_links = hand_router(3)
        tail_a = flit(FlitKind.TAIL, dest=1, packet_id=1, seq=1)
        head_b = flit(FlitKind.SINGLE, dest=2, packet_id=2)
        router.fifos[0].extend([tail_a, head_b])
        router.locks[1] = 0   # packet A's head went out earlier
        kernel.run_ticks(1)
        assert router.flits_forwarded == 2
        assert launched(out_links[1], 0) is tail_a
        assert launched(out_links[2], 0) is head_b
        assert not router.fifos[0]
        # Both dequeues are returned upstream as one count of two.
        assert in_links[0].credits[0].value == (2, 0)

    def test_exposed_head_wanting_an_earlier_output_waits(self):
        kernel, router, in_links, out_links = hand_router(3)
        tail_a = flit(FlitKind.TAIL, dest=2, packet_id=1, seq=1)
        head_b = flit(FlitKind.SINGLE, dest=1, packet_id=2)
        router.fifos[0].extend([tail_a, head_b])
        router.locks[2] = 0
        kernel.run_ticks(1)
        assert router.flits_forwarded == 1
        assert launched(out_links[2], 0) is tail_a
        assert launched(out_links[1], 0) is None
        assert in_links[0].credits[0].value == (1, 0)
        kernel.run_ticks(2)   # output 1's turn comes on the next edge
        assert router.flits_forwarded == 2
        assert launched(out_links[1], 2) is head_b

    @staticmethod
    def _contended_later_output():
        """Input 0 exposes head B -> out 3 behind a tail -> out 1, while
        input 2's head C already waits for out 3."""
        kernel, router, _in_links, out_links = hand_router(4)
        tail_a = flit(FlitKind.TAIL, dest=1, packet_id=1, seq=1)
        head_b = flit(FlitKind.SINGLE, dest=3, packet_id=2)
        head_c = flit(FlitKind.SINGLE, dest=3, packet_id=3)
        router.fifos[0].extend([tail_a, head_b])
        router.fifos[2].append(head_c)
        router.locks[1] = 0
        return kernel, router, out_links, head_b, head_c

    def test_exposed_head_competes_with_the_waiting_requesters(self):
        """Round-robin (pointer at input 0 first) must see the late
        requester exactly as a full per-output scan would."""
        kernel, router, out_links, head_b, head_c = \
            self._contended_later_output()
        kernel.run_ticks(1)
        assert launched(out_links[3], 0) is head_b
        assert list(router.fifos[2]) == [head_c]
        assert router.sa_arbiters[3].grant_counts == [1, 0, 0, 0]

    def test_starvation_names_the_lowest_waiting_input(self):
        kernel, router, _out_links, _head_b, _head_c = \
            self._contended_later_output()
        router.credits[3] = 0
        starved = []
        kernel.subscribe("credit_exhausted",
                         lambda tick, data: starved.append(
                             (tick, data["output"], data["input"])))
        kernel.run_ticks(1)
        assert router.flits_forwarded == 1   # only the tail left
        assert starved == [(0, 3, 0)]

    def test_vc_regime_allows_one_crossbar_pass_per_input_port(self):
        kernel, router, in_links, out_links = hand_router(3, n_vcs=2)
        tail_a = flit(FlitKind.TAIL, dest=1, packet_id=1, seq=1)
        head_b = flit(FlitKind.SINGLE, dest=2, packet_id=2)
        head_c = flit(FlitKind.SINGLE, dest=2, packet_id=3)
        router.fifos[0][0].extend([tail_a, head_b])
        router.fifos[0][1].append(head_c)
        router.allocation[0][0] = (1, 0)   # packet A holds out 1, VC 0
        router.vc_owner[1][0] = (0, 0)
        kernel.run_ticks(1)
        # C was allocated an output VC this edge and wants the later
        # output 2, but input port 0 already crossed the switch.
        assert router.allocation[0][1] is not None
        assert router.flits_forwarded == 1
        assert launched(out_links[1], 0) is tail_a
        assert launched(out_links[2], 0) is None
        assert in_links[0].credits[0].value == (1, 0)
        assert in_links[0].credits[1].value == 0
        kernel.run_ticks(2)
        assert router.flits_forwarded == 2   # B and C still share port 0
        kernel.run_ticks(2)
        assert router.flits_forwarded == 3
        assert router.buffered_flits == 0


class TestVcRequestOrder:
    """The VC edge buckets requests in one pass over the occupied input
    VCs and collects them again after an allocation, so each output's
    requesters stay ascending by (in_port, in_vc)."""

    def test_an_allocation_joins_the_holder_of_the_same_output(self):
        kernel, router, _in_links, out_links = hand_router(3, n_vcs=2)
        fresh = flit(FlitKind.SINGLE, dest=2, packet_id=1)
        held = flit(FlitKind.TAIL, dest=2, packet_id=2, seq=1)
        router.fifos[0][0].append(fresh)
        router.fifos[1][0].append(held)
        router.allocation[1][0] = (2, 0)   # packet 2 holds out 2, VC 0
        router.vc_owner[2][0] = (1, 0)
        allocated = []
        kernel.subscribe("vc_allocated", lambda tick, data: allocated.append(
            (tick, data["input"], data["output"], data["vc"])))
        kernel.run_ticks(1)
        # Input 0 got out 2's free VC on this edge and requested out 2
        # beside input 1: the arbiter (pointer at the last input) serves
        # the lower one first, the other on the next edge.
        assert allocated == [(0, 0, 2, 1)]
        assert launched(out_links[2], 0) is fresh
        kernel.run_ticks(2)
        assert launched(out_links[2], 2) is held
        assert router.buffered_flits == 0

    @pytest.mark.parametrize("out_vcs", ((0, 1), (1, 0)))
    def test_starved_output_vcs_report_in_requester_order(self, out_vcs):
        kernel, router, _in_links, _out_links = hand_router(3, n_vcs=2)
        for in_port, out_vc in zip((0, 1), out_vcs):
            router.fifos[in_port][0].append(
                flit(FlitKind.SINGLE, dest=2, packet_id=in_port))
            router.allocation[in_port][0] = (2, out_vc)
            router.vc_owner[2][out_vc] = (in_port, 0)
        router.credits[2] = [0, 0]
        starved = []
        kernel.subscribe("credit_exhausted", lambda tick, data: starved.append(
            (data["input"], data["vc"])))
        kernel.run_ticks(1)
        assert starved == [(0, out_vcs[0]), (1, out_vcs[1])]
        assert router.flits_forwarded == 0


def test_connect_rejects_a_link_with_another_vc_count():
    """The router unpacks arriving payloads by its own ``n_vcs``; a link
    tagged differently must fail at wiring time, not mid-run."""
    kernel, router, _in_links, _out_links = hand_router(3)
    with pytest.raises(ConfigurationError):
        router.connect(1, CreditLink(kernel, "wide", n_vcs=2), None)


ROUTER_EVENTS = ("arbitration_grant", "credit_exhausted", "lock_acquire",
                 "lock_release", "vc_allocated")


def observed_run(config, load, size_flits, seed, cycles=30,
                 traffic=UniformRandom):
    """Run ``traffic`` (uniform by default) with every router event
    subscribed; returns the event sequence and the final observable
    state."""
    net = config.build()
    events = []
    packet_ids = {}   # raw ids are process-global: renumber first-seen

    def record(name):
        def on_event(tick, data):
            moved = data.get("flit")
            packet_id = data.get("packet_id",
                                 getattr(moved, "packet_id", None))
            if packet_id is not None:
                packet_id = packet_ids.setdefault(packet_id,
                                                  len(packet_ids))
            events.append((tick, name, data["router"], data["output"],
                           data["vc"], data["input"], data["input_vc"],
                           packet_id, getattr(moved, "seq", None)))
        return on_event

    for name in ROUTER_EVENTS:
        net.kernel.subscribe(name, record(name))
    schedule = traffic(config.ports, load, size_flits=size_flits) \
        .generate(cycles, np.random.default_rng(seed))
    apply_traffic(net, schedule, run_cycles=cycles, drain_ticks=100_000)
    assert len(net.delivered) == len(schedule)   # drained
    net.run_ticks(500)
    # Only drain() writes the array engine's state back into the routers
    # read below; the fabric is idle, so this steps nothing.
    net.drain()
    gating = net.gating_stats()
    final = {
        "delivered": sorted((p.src, p.dest, tuple(p.payload))
                            for p in net.delivered),
        "latencies": net.stats.latencies_cycles,
        "gating": (gating.edges_total, gating.edges_enabled),
        "tick": net.kernel.tick,
        "routers": [(r.flits_forwarded, r.vcs_allocated, r.credits,
                     [a.grant_counts for a in r.sa_arbiters],
                     [(a._last, a.grant_counts)
                      for a in r.va_arbiters.values()],
                     pickle.dumps(r.allocator))
                    for r in net.routers],
    }
    return events, final


@st.composite
def fabric_cases(draw):
    topology = draw(st.sampled_from(("mesh", "torus", "ring")))
    n_vcs = draw(st.sampled_from((1, 2)))
    kwargs = {}
    if n_vcs == 2:
        kwargs["flow_control"] = "vc"
        # Only the VC regime has the allocator knob; escape re-entry
        # needs the escape policy, which runs on 2 VCs on the mesh only.
        allocator = draw(st.sampled_from(
            ("rr", "weighted", "escape-reentry") if topology == "mesh"
            else ("rr", "weighted")))
        if allocator == "weighted":
            kwargs["allocator"] = "weighted"
            kwargs["reservations"] = ((1, 0.5),)
        elif allocator == "escape-reentry":
            kwargs["allocator"] = "escape-reentry"
            kwargs["vc_policy"] = "escape"
    depth = draw(st.sampled_from((1, 2)))
    if depth != 1:
        kwargs["pipeline_depth"] = depth
    return {
        "topology": topology,
        "kwargs": kwargs,
        "load": draw(st.sampled_from((0.1, 0.3, 0.6))),
        "size_flits": draw(st.sampled_from((1, 2, 3))),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fabric_cases())
def test_observed_runs_identical_in_both_kernel_modes(case):
    def run(activity_driven):
        config = FabricConfig(topology=case["topology"], ports=16,
                              activity_driven=activity_driven,
                              **case["kwargs"])
        return observed_run(config, case["load"], case["size_flits"],
                            case["seed"])
    fast_events, fast_final = run(True)
    naive_events, naive_final = run(False)
    assert fast_events, case   # a case without traffic proves nothing
    assert fast_events == naive_events, case
    assert fast_final == naive_final, case


def _one_hot_switch(allocator, out_port, flat, out_vc):
    width = allocator.n_ports * allocator.n_vcs
    return allocator.switch_winner(
        out_port, [i == flat for i in range(width)], [out_vc] * width)


def _one_hot_vc(allocator, out_port, out_vc, flat):
    width = allocator.n_ports * allocator.n_vcs
    return allocator.vc_winner(out_port, out_vc,
                               [i == flat for i in range(width)])


@contextlib.contextmanager
def full_vector_grants():
    """Answer every lone request through the full-vector allocator forms:
    the reference the lone-requester forms must be indistinguishable
    from."""
    with mock.patch.object(Allocator, "switch_lone", _one_hot_switch), \
            mock.patch.object(WeightedAllocator, "switch_lone",
                              _one_hot_switch), \
            mock.patch.object(Allocator, "vc_lone", _one_hot_vc):
        yield


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fabric_cases())
def test_lone_grants_match_the_full_vector_path(case):
    config = FabricConfig(topology=case["topology"], ports=16,
                          **case["kwargs"])
    lone = observed_run(config, case["load"], case["size_flits"],
                        case["seed"])
    with full_vector_grants():
        full = observed_run(config, case["load"], case["size_flits"],
                            case["seed"])
    assert lone[0], case
    assert lone == full, case


#: Saturated cases with starvation in them, and the sha256 prefix of the
#: observed event sequence each produced when credit returns were still
#: collected in a pass of their own, ahead of the grants.
FUSED_CREDIT_PINS = (
    ("mesh", {}, 0.6, 3, 1, 1775, 45, "5b1b6d710a78015d"),
    ("torus", {}, 0.6, 2, 2, 2008, 20, "3127d59b73d9bb7e"),
    ("ring", {"pipeline_depth": 2}, 0.6, 2, 3, 3465, 97,
     "ef2eaccaa75d2dea"),
    ("torus", {"flow_control": "vc"}, 0.6, 3, 4, 1669, 7,
     "85c3f13aece91494"),
    ("mesh", {"flow_control": "vc", "allocator": "weighted",
              "reservations": ((1, 0.5),), "pipeline_depth": 2},
     0.6, 3, 5, 2163, 21, "b5ce226aae6fbbb5"),
)


@pytest.mark.parametrize("pin", FUSED_CREDIT_PINS,
                         ids=lambda pin: f"{pin[0]}-{len(pin[1])}")
def test_fused_credit_pass_keeps_the_observed_sequence(pin):
    """Each output's credit return is collected at that output's turn in
    the grant pass: starvation latches clear and ``credit_exhausted``
    fires on exactly the edges the separate pass gave, in both modes."""
    topology, kwargs, load, size_flits, seed, count, starved, digest = pin
    runs = []
    for activity_driven in (True, False):
        config = FabricConfig(topology=topology, ports=16,
                              activity_driven=activity_driven, **kwargs)
        runs.append(observed_run(config, load, size_flits, seed))
    (events, final), naive = runs
    assert (events, final) == naive
    assert len(events) == count
    assert sum(event[1] == "credit_exhausted" for event in events) == starved
    assert hashlib.sha256(repr(events).encode()).hexdigest()[:16] == digest
