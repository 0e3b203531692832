"""Array-backend equivalence and lowering contract.

``backend="array"`` replaces per-router event dispatch with one
whole-fabric vectorized kernel; its acceptance bar is byte-identical
observables against dispatch — delivered packets, latencies, hop counts,
gating counts, the kernel tick, and (observed) every router event in
order plus the final router state — across every credit fabric, flow
control, and kernel mode. Configs the engine cannot lower must refuse
loudly at :class:`FabricConfig` construction (``backend="auto"`` is the
one sanctioned silent fallback).
"""

import functools
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig, get_topology, topology_names
from repro.noc.packet import Packet
from repro.traffic.patterns import HotspotTraffic, UniformRandom

from tests.fabric.test_router_edge import observed_run

#: Per-topology port counts satisfying each family's shape constraints.
PORTS = {"mesh": 16, "torus": 16, "ring": 10}


def array_matrix():
    """(topology, flow, policy, activity_driven) for every combo the
    array lowering supports (the ``supports_pipeline`` credit fabrics)."""
    combos = []
    for name in topology_names():
        entry = get_topology(name)
        if not entry.supports_pipeline:
            continue
        for flow in entry.flow_control:
            policies = entry.vc_policies if flow == "vc" else (None,)
            for policy in policies:
                for activity_driven in (True, False):
                    combos.append((name, flow, policy, activity_driven))
    return combos


def _config(name, flow, policy, activity_driven, backend):
    kwargs = {}
    if flow == "vc":
        kwargs["flow_control"] = "vc"
        kwargs["vc_policy"] = policy
        kwargs["n_vcs"] = 4 if policy == "escape" and name == "torus" else 2
    return FabricConfig(topology=name, ports=PORTS.get(name, 16),
                        activity_driven=activity_driven, backend=backend,
                        **kwargs)


def run_traffic(name, flow, policy, activity_driven, backend,
                size_flits=2, cycles=50, load=0.25, telemetry=False,
                storms=1):
    """``storms`` injection windows, each drained and followed by a
    5000-tick idle tail before the next begins."""
    ports = PORTS.get(name, 16)
    net = _config(name, flow, policy, activity_driven, backend).build()
    registry = None
    if telemetry:
        from repro.telemetry import attach_metrics
        registry = attach_metrics(net)
    gen = UniformRandom(ports, load, size_flits=size_flits)
    rng = np.random.default_rng(5)
    for _ in range(storms):
        by_cycle = {}
        for injection in gen.generate(cycles, rng):
            by_cycle.setdefault(injection.cycle, []).append(injection)
        for cycle in range(cycles):
            for injection in by_cycle.get(cycle, []):
                net.send(injection.to_packet())
            net.run_ticks(2)
        assert net.drain(300_000), \
            f"{name}/{flow}/{backend} failed to drain"
        net.run_ticks(5_000)
    gating = net.gating_stats()
    result = {
        "injected": net.stats.packets_injected,
        "delivered": sorted((p.src, p.dest, tuple(p.payload))
                            for p in net.delivered),
        "latencies": sorted(net.stats.latencies_cycles),
        "hops": sorted(net.stats.hop_counts),
        "gating": (gating.edges_total, gating.edges_enabled),
        "tick": net.kernel.tick,
    }
    if registry is not None:
        result["telemetry"] = registry.summary().to_dict()
    return result


@pytest.mark.parametrize("name,flow,policy,activity_driven", array_matrix())
def test_array_matches_dispatch(name, flow, policy, activity_driven):
    dispatch = run_traffic(name, flow, policy, activity_driven, "dispatch")
    array = run_traffic(name, flow, policy, activity_driven, "array")
    assert array == dispatch, (name, flow, policy, activity_driven)
    assert len(array["delivered"]) == array["injected"]


@pytest.mark.parametrize("name,flow,policy,activity_driven",
                         [c for c in array_matrix() if c[3]])
def test_array_single_flit_matches_dispatch(name, flow, policy,
                                            activity_driven):
    dispatch = run_traffic(name, flow, policy, activity_driven, "dispatch",
                           size_flits=1, cycles=40)
    array = run_traffic(name, flow, policy, activity_driven, "array",
                        size_flits=1, cycles=40)
    assert array == dispatch, (name, flow, policy)


@pytest.mark.parametrize("name,flow,policy,activity_driven",
                         [c for c in array_matrix() if c[3]])
def test_array_second_storm_matches_dispatch(name, flow, policy,
                                             activity_driven):
    """A drained engine has synced its state back to the routers and
    slept through an idle window; the next injection must wake it into
    exactly the state dispatch is in."""
    dispatch = run_traffic(name, flow, policy, activity_driven, "dispatch",
                           storms=2)
    array = run_traffic(name, flow, policy, activity_driven, "array",
                        storms=2)
    assert array == dispatch, (name, flow, policy)
    assert len(array["delivered"]) == array["injected"]


@pytest.mark.parametrize("flow", ("wormhole", "vc"))
def test_lone_single_flit_packet_delivers(flow):
    """Regression: a lone in-flight flit must not be declared quiet
    mid-route. Arrivals land after the grant phase of their step, so a
    freshly exposed head still needs one more arbitration pass before
    the engine may sleep."""
    kwargs = {"flow_control": "vc", "n_vcs": 2} if flow == "vc" else {}
    net = FabricConfig(topology="mesh", ports=16, backend="array",
                       **kwargs).build()
    net.send(Packet(src=0, dest=15, payload=[]))
    assert net.drain(max_ticks=50_000)
    assert net.stats.packets_delivered == 1


#: Mesh flows steered onto the escape policy's priority lane.
_PRIORITY_FLOWS = (tuple((0, dest) for dest in range(1, 16))
                   + tuple((src, 15) for src in range(1, 15)))
_ESCAPE = {"flow_control": "vc", "vc_policy": "escape"}

#: Every regime the engine lowers, as (topology, FabricConfig kwargs).
OBSERVED_CONFIGS = (
    [(name, {}) for name in ("mesh", "torus", "ring")]
    + [(name, {"flow_control": "vc", "vc_policy": "dateline", "n_vcs": n})
       for name in ("torus", "ring") for n in (2, 4)]
    + [("mesh", {**_ESCAPE, "n_vcs": 2}), ("mesh", {**_ESCAPE, "n_vcs": 4}),
       ("torus", {**_ESCAPE, "n_vcs": 4}),
       ("mesh", {**_ESCAPE, "n_vcs": 2, "allocator": "escape-reentry"}),
       ("torus", {**_ESCAPE, "n_vcs": 4, "allocator": "escape-reentry"}),
       ("mesh", {**_ESCAPE, "n_vcs": 3,
                 "priority_flows": _PRIORITY_FLOWS})]
)
#: (load, size_flits, seed): sparse single flits up to contended worms.
OBSERVED_POINTS = ((0.1, 1, 11), (0.3, 2, 23), (0.6, 3, 37))


@pytest.mark.parametrize("load,size_flits,seed", OBSERVED_POINTS)
@pytest.mark.parametrize("name,kwargs", OBSERVED_CONFIGS)
def test_observed_array_matches_dispatch(name, kwargs, load, size_flits,
                                         seed):
    """All five router event streams, in order, and the routers' final
    counters, credits and arbiter state — the observed-mode branches of
    the engine's allocation phases, which the matrices above never
    enter."""
    def run(backend):
        config = FabricConfig(topology=name, ports=PORTS[name],
                              backend=backend, **kwargs)
        return observed_run(config, load, size_flits, seed)
    array_events, array_final = run("array")
    dispatch_events, dispatch_final = run("dispatch")
    assert dispatch_events
    assert array_events == dispatch_events
    assert array_final == dispatch_final


def test_vc_hotspot_observed_array_matches_dispatch():
    """A 64-port VC torus under two hotspots: the event stream and the
    final router state match dispatch on a run that has an edge where
    one router wins two or more outputs (flits_forwarded must count
    every one) and an edge where two or more routers enter starvation
    (per-router event order around the grant rounds)."""
    traffic = functools.partial(HotspotTraffic, hotspots=(0, 36),
                                fraction=0.3)

    def run(backend):
        config = FabricConfig(topology="torus", ports=64, flow_control="vc",
                              n_vcs=2, backend=backend)
        return observed_run(config, 0.3, 4, 3, traffic=traffic)
    array_events, array_final = run("array")
    dispatch_events, dispatch_final = run("dispatch")
    assert array_events == dispatch_events
    assert array_final == dispatch_final
    grants = Counter((tick, router) for tick, name, router, *_rest
                     in array_events if name == "arbitration_grant")
    assert max(grants.values()) >= 2
    starving = defaultdict(set)
    for tick, name, router, *_rest in array_events:
        if name == "credit_exhausted":
            starving[tick].add(router)
    assert max(len(routers) for routers in starving.values()) >= 2


def test_telemetry_byte_identical():
    dispatch = run_traffic("torus", "wormhole", None, True, "dispatch",
                           telemetry=True)
    array = run_traffic("torus", "wormhole", None, True, "array",
                        telemetry=True)
    assert array == dispatch


def test_vc_telemetry_byte_identical():
    """The metrics registry probes every flit wire, so the VC engine
    runs in write-through through its one grant phase; the registry
    must serialise exactly as it does under dispatch."""
    from repro.telemetry import attach_metrics
    net = _config("torus", "vc", "dateline", True, "array").build()
    attach_metrics(net)
    net.engine.refresh_observers()
    assert net.engine._write_through
    dispatch = run_traffic("torus", "vc", "dateline", True, "dispatch",
                           telemetry=True)
    array = run_traffic("torus", "vc", "dateline", True, "array",
                        telemetry=True)
    assert array == dispatch


class TestUnsupportedConfigs:
    """Everything the engine cannot lower refuses at config time, naming
    the limitation; ``backend="auto"`` falls back to dispatch silently."""

    @pytest.mark.parametrize("name", ("tree", "ctree"))
    def test_tree_family_refused(self, name):
        with pytest.raises(ConfigurationError, match="lowering"):
            FabricConfig(topology=name, ports=16, backend="array")

    def test_pipeline_depth_refused(self):
        with pytest.raises(ConfigurationError, match="pipeline_depth"):
            FabricConfig(topology="mesh", ports=16, backend="array",
                         pipeline_depth=2)

    def test_segmented_links_refused(self):
        with pytest.raises(ConfigurationError, match="segment"):
            FabricConfig(topology="torus", ports=16, backend="array",
                         segment_links=True)

    @pytest.mark.parametrize("kwargs,cause", [
        ({"pipeline_depth": 2}, "pipeline_depth"),
        ({"segment_links": True}, "segmented links"),
        ({"flow_control": "vc", "allocator": "weighted",
          "reservations": ((1, 0.5),)}, "weighted"),
    ])
    def test_make_engine_rechecks_naming_the_cause(self, kwargs, cause):
        """The engine re-checks a built network through the config's one
        statement of the rule, and names the cause too."""
        from repro.fabric.array_backend import make_engine
        net = FabricConfig(topology="mesh", ports=16, **kwargs).build()
        with pytest.raises(ConfigurationError, match=cause):
            make_engine(net)

    def test_unknown_backend_refused(self):
        with pytest.raises(ConfigurationError, match="backend"):
            FabricConfig(topology="mesh", ports=16, backend="simd")

    @pytest.mark.parametrize("kwargs", (
        {"topology": "tree"},
        {"topology": "mesh", "pipeline_depth": 2},
        {"topology": "torus", "segment_links": True},
    ))
    def test_auto_falls_back_silently(self, kwargs):
        net = FabricConfig(ports=16, backend="auto", **kwargs).build()
        net.send(Packet(src=0, dest=3, payload=[1]))
        assert net.drain(max_ticks=50_000)
        assert net.stats.packets_delivered == 1

    def test_auto_uses_the_array_engine_when_supported(self):
        net = FabricConfig(topology="mesh", ports=16, backend="auto").build()
        assert getattr(net, "engine", None) is not None
