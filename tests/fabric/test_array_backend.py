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

import copy
import functools
import re
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ConfigurationError, RoutingError
from repro.fabric.registry import FabricConfig, get_topology, topology_names
from repro.noc.packet import Packet
from repro.traffic.base import inject_window
from repro.traffic.patterns import HotspotTraffic, UniformRandom

from tests.fabric.test_router_edge import ROUTER_EVENTS, observed_run

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


class TestDatapathView:
    """Under ``backend="array"`` the routers, links and endpoints are a
    view of the engine: built (unregistered) on first read, synced then
    and at every later drain, and never built by a run that does not
    read them."""

    VC_TORUS = {"topology": "torus", "ports": 64, "flow_control": "vc",
                "n_vcs": 2}

    def test_load_point_never_builds_the_datapath(self, monkeypatch):
        from repro.analysis.parallel import LoadPoint, evaluate_load_point
        from repro.fabric.network import CreditFabricNetwork
        spec = LoadPoint(network=FabricConfig(backend="array",
                                              **self.VC_TORUS),
                         load=0.2, cycles=40, seed=3, size_flits=4,
                         pattern="hotspot", hotspots=(0, 33),
                         hotspot_fraction=0.1)
        dispatch = evaluate_load_point(replace(
            spec, network=FabricConfig(backend="dispatch", **self.VC_TORUS)))

        def refuse(net):
            raise AssertionError("the datapath was built")
        monkeypatch.setattr(CreditFabricNetwork, "_build", refuse)
        with pytest.raises(AssertionError, match="datapath"):
            FabricConfig(backend="dispatch", **self.VC_TORUS).build()
        array = evaluate_load_point(spec)
        assert array == dispatch
        assert array["drained"] == 1.0 and "energy_pj_per_flit" in array

    @staticmethod
    def _datapath_state(net):
        """Routers, sources and sinks, copied (dispatch mutates in
        place). Packet ids are process-wide: a flit is its (src, dest,
        seq)."""
        def flits(queue):
            return [(f.src, f.dest, f.seq) for f in queue]
        return copy.deepcopy((
            [(r.flits_forwarded, r.vcs_allocated, r.credits,
              [[flits(fifo) for fifo in port] for port in r.fifos],
              [a.grant_counts for a in r.sa_arbiters])
             for r in net.routers],
            [(s.credits, flits(s.flits), [p.dest for p in s.packets])
             for s in net.sources],
            [(s.flits_received, sorted(flits(f) for f
                                       in s._assembly.values()))
             for s in net.sinks]))

    def _split_run(self, backend, attach):
        """Inject the first half of the window, read the datapath (or
        ``attach`` telemetry, which reads it), run the second half and
        drain; returns the events, the mid-window router state and the
        final observed state."""
        config = FabricConfig(backend=backend, **self.VC_TORUS)
        net = config.build()
        events = []
        for name in ROUTER_EVENTS:
            net.kernel.subscribe(
                name, lambda tick, data, name=name: events.append(
                    (tick, name, data["router"], data["output"],
                     data["vc"], data["input"], data["input_vc"])))
        cycles, half = 40, 20
        schedule = HotspotTraffic(64, 0.3, size_flits=4, hotspots=(0, 36),
                                  fraction=0.3).generate(
            cycles, np.random.default_rng(7))
        inject_window(net, [i for i in schedule if i.cycle < half], half)
        registry = attach(net) if attach else None
        middle = self._datapath_state(net)
        inject_window(net, [replace(i, cycle=i.cycle - half)
                            for i in schedule if i.cycle >= half],
                      cycles - half)
        assert net.drain(100_000)
        gating = net.gating_stats()
        final = {
            "delivered": [(p.src, p.dest, p.eject_tick)
                          for p in net.delivered],
            "latencies": net.stats.latencies_cycles,
            "gating": (gating.edges_total, gating.edges_enabled),
            "tick": net.kernel.tick,
            "datapath": self._datapath_state(net),
        }
        if registry is not None:
            final["telemetry"] = registry.summary().to_dict()
        return events, middle, final

    @pytest.mark.parametrize("attach", (None, "metrics"))
    def test_first_read_mid_window_matches_dispatch(self, attach):
        from repro.telemetry import attach_metrics
        hook = attach_metrics if attach else None
        array = self._split_run("array", hook)
        dispatch = self._split_run("dispatch", hook)
        assert array[0] and array[0] == dispatch[0]
        _routers, sources, sinks = array[1]      # read mid-flight:
        assert any(packets for _c, _f, packets in sources)
        assert any(assembly for _n, assembly in sinks)
        assert array[1] == dispatch[1]
        assert array[2] == dispatch[2]

    def test_drain_syncs_only_a_read_datapath(self):
        net = FabricConfig(backend="array", **self.VC_TORUS).build()
        net.send(Packet(src=0, dest=9, payload=[1, 2]))
        assert net.drain(10_000)
        assert not net.kernel._signals      # nothing read it: not built
        assert sum(r.flits_forwarded for r in net.routers) > 0
        # Two directed links per torus edge (128) and an inject/eject
        # pair per node, each one flit wire and two credit wires.
        assert len(net.kernel._signals) == (2 * 128 + 2 * 64) * 3
        assert net.kernel.components == [net.engine]

    def test_structural_views_never_build_the_datapath(self):
        from repro.physical.descriptor import physical_model
        net = FabricConfig(backend="array", **self.VC_TORUS).build()
        dispatch = FabricConfig(backend="dispatch", **self.VC_TORUS).build()
        model, reference = physical_model(net), physical_model(dispatch)
        views = (
            lambda n, m: n.describe(),
            lambda n, m: list(n.switches()),
            lambda n, m: n.link_stage_count,
            lambda n, m: n.router_stage_registers,
            lambda n, m: n.total_buffer_flits(),
            lambda n, m: m.router_port_counts(),
        )
        for view in views:
            assert view(net, model) == view(dispatch, reference)
        assert not net.kernel._signals
        assert net.total_buffer_flits() == sum(
            r.buffer_capacity for r in dispatch.routers)

    def test_refresh_observers_scans_only_a_built_datapath(self):
        """An unbuilt wire carries no probe: the scan leaves the view
        unbuilt, and a probe on a built flit wire turns write-through
        on."""
        net = FabricConfig(topology="torus", ports=16,
                           backend="array").build()
        net.engine.refresh_observers()
        assert not net.kernel._signals and not net.engine._write_through
        net.links[0].flit.attach_probe(lambda *args: None)
        net.engine.refresh_observers()
        assert net.engine._write_through

    def test_load_point_builds_no_flit(self, monkeypatch):
        """The engine interns each packet as a flit-id range: a run that
        reads no flit builds none (the dispatch run shows the counter
        counts)."""
        from repro.analysis.parallel import LoadPoint, evaluate_load_point
        from repro.noc.flit import Flit
        built = []
        init = Flit.__init__

        def counted(flit, *args, **kwargs):
            built.append(args)
            init(flit, *args, **kwargs)
        monkeypatch.setattr(Flit, "__init__", counted)
        spec = LoadPoint(network=FabricConfig(backend="array",
                                              **self.VC_TORUS),
                         load=0.2, cycles=40, seed=3, size_flits=4,
                         pattern="hotspot", hotspots=(0, 33),
                         hotspot_fraction=0.1)
        array = evaluate_load_point(spec)
        assert array["drained"] == 1.0 and not built
        dispatch = evaluate_load_point(replace(
            spec, network=FabricConfig(backend="dispatch", **self.VC_TORUS)))
        assert array == dispatch and built

    def test_events_carry_one_flit_object(self):
        """A flit read by an event is built once: its grants and its
        sink ``flit`` event carry the same object."""
        net = FabricConfig(backend="array", **self.VC_TORUS).build()
        granted, ejected = defaultdict(set), []
        net.kernel.subscribe("arbitration_grant", lambda tick, data: (
            granted[(data["flit"].packet_id, data["flit"].seq)]
            .add(id(data["flit"]))))
        net.kernel.subscribe("flit", lambda tick, flit: ejected.append(flit))
        schedule = HotspotTraffic(64, 0.3, size_flits=4, hotspots=(0, 36),
                                  fraction=0.3).generate(
            20, np.random.default_rng(7))
        inject_window(net, schedule, 20)
        assert net.drain(100_000)
        assert len(ejected) == sum(i.size_flits for i in schedule)
        for flit in ejected:
            assert granted[(flit.packet_id, flit.seq)] == {id(flit)}

    def test_escape_torus_mid_window_read_matches_dispatch(self):
        """A 64-port escape torus (3 VCs) under two hotspots, with the
        datapath read mid-window: a head asks for several output VCs
        (both productive ports' adaptive VC, every LOCAL VC at its
        destination)."""
        self.VC_TORUS = {**self.VC_TORUS, "vc_policy": "escape",
                         "n_vcs": 3}
        net = FabricConfig(backend="array", **self.VC_TORUS).build()
        # Injected at node 0 towards 27 (two productive ports), and
        # ejecting at 27.
        local = np.zeros(2, dtype=np.int64)
        preferred, _fallback = net.vc_policy.candidate_masks(
            np.array([0, 27]), local, local, np.array([27, 27]),
            np.array([0, 0]))
        assert preferred.sum(axis=(1, 2)).tolist() == [2, 3]
        array = self._split_run("array", None)
        dispatch = self._split_run("dispatch", None)
        assert array[0] and array[0] == dispatch[0]
        _routers, sources, sinks = array[1]
        assert any(packets for _c, _f, packets in sources)
        assert any(assembly for _n, assembly in sinks)
        assert array[1] == dispatch[1]
        assert array[2] == dispatch[2]

    def test_sink_refuses_a_flit_out_of_sequence(self):
        """Duplicating a buffered flit in a FIFO ring mid-run delivers
        it twice: the sink names it and raises, as reassembly does on
        dispatch."""
        from repro.errors import ProtocolError
        net = FabricConfig(backend="array", **self.VC_TORUS).build()
        for src in range(1, 64):
            net.send(Packet(src=src, dest=0, payload=[1, 2, 3, 4]))
        engine, store = net.engine, net.engine._store
        for _ in range(200):
            net.run_ticks(2)
            occupied = zip(*np.nonzero(engine._fifo_len >= 2))
            rpv = next((rpv for rpv in occupied if not store.is_tail[
                engine._fifo_buf[rpv][engine._fifo_start[rpv]]]), None)
            if rpv is not None:
                break
        start = engine._fifo_start[rpv]
        ring = engine._fifo_buf[rpv]
        ring[(start + 1) % engine._C] = ring[start]
        twice = store.flit(ring[start])
        with pytest.raises(ProtocolError, match=re.escape(str(twice))):
            net.drain(100_000)


class TestCorruptedState:
    """The engine's two loud checks on router state, each provoked by
    corrupting one router mid-run on both backends: a body flit heading
    an input VC that holds no allocation, and a FIFO overflow after an
    output VC gains a credit its consumer never returned. Both backends
    raise the same message, naming the router, the port and the VC."""

    VC_TORUS = {"topology": "torus", "ports": 64, "flow_control": "vc",
                "n_vcs": 2}

    def _corrupted_run(self, backend, packets, find, corrupt):
        """Send ``packets``, run until ``find(net)`` names a site,
        ``corrupt(net, site)`` and drain; returns the site and the
        message of the ``RoutingError`` the drain raises."""
        net = FabricConfig(backend=backend, **self.VC_TORUS).build()
        for packet in packets:
            net.send(packet)
        for _ in range(200):
            net.run_ticks(2)
            site = find(net)
            if site is not None:
                break
        assert site is not None
        corrupt(net, site)
        with pytest.raises(RoutingError) as raised:
            net.drain(100_000)
        return site, str(raised.value)

    def _both(self, find, corrupt):
        """The corrupted run on each backend, on the same packets (so
        flits print alike); ``find`` and ``corrupt`` map a backend to
        its hook. Returns the site and the message, which agree."""
        packets = [Packet(src=src, dest=0, payload=[1, 2, 3, 4])
                   for src in range(1, 64)]
        array = self._corrupted_run("array", packets, find["array"],
                                    corrupt["array"])
        dispatch = self._corrupted_run("dispatch", packets,
                                       find["dispatch"],
                                       corrupt["dispatch"])
        assert array == dispatch
        return array

    def test_body_flit_without_an_allocation(self):
        def find_array(net):
            e = net.engine
            body = (e._head_fid >= 0) & ~e._head_is_head & (e._alloc_out >= 0)
            return tuple(map(int, np.argwhere(body)[0])) if body.any() \
                else None

        def find_dispatch(net):
            return next(((r, p, v) for r, router in enumerate(net.routers)
                         for p, port in enumerate(router.fifos)
                         for v, fifo in enumerate(port)
                         if fifo and not fifo[0].is_head
                         and router.allocation[p][v] is not None), None)

        def clear_array(net, site):
            net.engine._alloc_out[site] = net.engine._alloc_vc[site] = -1
            net.engine._va_dirty[site[0]] = True

        def clear_dispatch(net, site):
            r, p, v = site
            net.routers[r].allocation[p][v] = None
            net.routers[r].wake()

        (r, p, v), message = self._both(
            {"array": find_array, "dispatch": find_dispatch},
            {"array": clear_array, "dispatch": clear_dispatch})
        net = FabricConfig(**self.VC_TORUS).build()
        assert re.fullmatch(
            rf"{net.routers[r].name}: body flit (body|tail)\[pkt\d+ \d+->0 #[123]\] "
            rf"without an allocation on {net.port_labels[p]} vc{v}",
            message), message

    def test_fifo_overflow_after_an_extra_credit(self):
        from repro.fabric.routing import LOCAL

        def find_array(net):
            e = net.engine
            dry = (e._credits == 0) & e._conn_out[:, :, None]
            dry[:, LOCAL] = False
            return tuple(map(int, np.argwhere(dry)[0])) if dry.any() \
                else None

        def find_dispatch(net):
            return next(((r, o, v) for r, router in enumerate(net.routers)
                         for o, credits in enumerate(router.credits)
                         for v, count in enumerate(credits)
                         if o != LOCAL and router.out_links[o] is not None
                         and count == 0), None)

        def credit_array(net, site):
            net.engine._credits[site] += 1

        def credit_dispatch(net, site):
            r, o, v = site
            net.routers[r].credits[o][v] += 1
            net.routers[r].wake()

        (r, o, v), message = self._both(
            {"array": find_array, "dispatch": find_dispatch},
            {"array": credit_array, "dispatch": credit_dispatch})
        # The consumer of (r, o): the overflow is in its FIFO on VC v.
        net = FabricConfig(backend="array", **self.VC_TORUS).build()
        r2, p2 = divmod(int(net.engine._dst[r, o]), net.engine._P)
        assert message == (f"{net.engine._names[r2]}: FIFO overflow on "
                           f"{net.port_labels[p2]} vc{v} (credit "
                           f"violation)")


def sequential_rounds_reference(rounds, size, vcs):
    """The rounds one at a time, in plain Python. ``rounds`` maps
    ``(router, stage)`` to ``(pointer, requesting inputs)``; input ``i``
    arbitrates for owner ``i // vcs`` of its router. Per router, stages
    ascending: the winner is the live requester nearest after the
    pointer, and its owner drops out of the later stages. Returns the
    winning input per round and the stage each owner won at."""
    winners, won = {}, {}
    for router, stage in sorted(rounds):
        pointer, inputs = rounds[router, stage]
        live = [i for i in inputs if (router, i // vcs) not in won]
        if live:
            i = min(live, key=lambda i: (i - pointer - 1) % size)
            winners[router, stage] = i
            won[router, i // vcs] = stage
    return winners, won


def solve_sequential_rounds(rounds, size, vcs, n_routers, n_stages):
    """The same instance through the engine's fixed point, its requests
    listed in reverse."""
    from repro.fabric.array_backend import _sequential_rounds
    router, stage, pointer, inputs = map(np.array, zip(*(
        (r, s, pointer, i) for (r, s), (pointer, requests)
        in sorted(rounds.items(), reverse=True) for i in requests)))
    owners = size // vcs
    win, won = _sequential_rounds(
        router * n_stages + stage, stage, router * owners + inputs // vcs,
        (inputs - pointer - 1) % size, n_routers * owners, n_stages)
    rounds_won = [(int(router[w]), int(stage[w])) for w in win]
    assert rounds_won == sorted(rounds_won)       # group order
    return ({key: int(inputs[w]) for key, w in zip(rounds_won, win)},
            {divmod(owner, owners): s for owner, s in enumerate(won.tolist())
             if s != n_stages})


class TestSequentialRounds:
    """``_sequential_rounds`` (both allocation phases' fixed point)
    equals running the rounds one after another."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_sequential_reference(self, data):
        n_routers = data.draw(st.integers(1, 4))
        ports, vcs = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        size = ports * vcs
        n_stages = data.draw(st.integers(1, size))
        rounds = {}
        for router in range(n_routers):
            for stage in range(n_stages):
                # Any order within a round; several inputs of one owner
                # (an input port's VCs) may request together.
                inputs = data.draw(st.lists(st.integers(0, size - 1),
                                            unique=True, max_size=size))
                if inputs:
                    rounds[router, stage] = (
                        data.draw(st.integers(0, size - 1)), inputs)
        assume(rounds)
        assert solve_sequential_rounds(rounds, size, vcs, n_routers,
                                       n_stages) == \
            sequential_rounds_reference(rounds, size, vcs)

    @pytest.mark.parametrize("rounds, winners, passes", [
        # One pass: input 0 wins stage 0 and input 1 stage 1, so no
        # owner wins twice and nothing drops out.
        ({(0, 0): (3, [1, 0]), (0, 1): (3, [2, 1])}, {(0, 0): 0, (0, 1): 1},
         1),
        # Two passes: with every request live, input 0 wins both
        # stages; the second pass drops it from stage 1, where input 1
        # wins.
        ({(0, 0): (3, [0, 1]), (0, 1): (3, [1, 0])}, {(0, 0): 0, (0, 1): 1},
         2),
    ], ids=["one_pass", "two_passes"])
    def test_examples(self, rounds, winners, passes):
        all_live = {key: min(inputs, key=lambda i: (i - pointer - 1) % 4)
                    for key, (pointer, inputs) in rounds.items()}
        assert (all_live == winners) == (passes == 1)
        expected = (winners, {(0, i): stage for (_r, stage), i
                              in winners.items()})
        assert sequential_rounds_reference(rounds, 4, 1) == expected
        assert solve_sequential_rounds(rounds, 4, 1, 1, 2) == expected
