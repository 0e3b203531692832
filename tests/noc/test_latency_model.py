"""The zero-load latency model (``Network.zero_load_latency_ticks``) and
the route walk it reads (``Network.walk``) must agree with the simulator
exactly, on every fabric."""

import dataclasses

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.fabric.registry import FabricConfig, get_topology
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.physical.descriptor import physical_model
from repro.telemetry.trace import attach_tracer


def measure(net, src, dest, flits=1):
    payload = list(range(flits)) if flits > 1 else []
    packet = Packet(src=src, dest=dest, payload=payload)
    net.send(packet)
    assert net.drain(50_000)
    return packet.packet_id


def ticks(net, src, dest, flits=1):
    return int(net.zero_load_latency_ticks([src], [dest], flits)[0])


def all_pairs(endpoints):
    """Every ordered pair of distinct endpoints, as (srcs, dests)."""
    srcs, dests = np.divmod(np.arange(endpoints * endpoints), endpoints)
    keep = srcs != dests
    return srcs[keep], dests[keep]


class TestExactAgreement:
    def test_all_pairs_8_leaf_binary(self):
        """Tick-exact for every ordered pair of an 8-leaf binary tree."""
        for src in range(8):
            for dest in range(8):
                if src == dest:
                    continue
                net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
                measure(net, src, dest)
                predicted = ticks(net, src, dest)
                simulated = net.delivered[0].latency_ticks
                assert simulated == predicted, (src, dest)

    def test_all_pairs_16_leaf_quad(self):
        for src in range(0, 16, 3):
            for dest in range(16):
                if src == dest:
                    continue
                net = ICNoCNetwork(FabricConfig(ports=16, arity=4))
                measure(net, src, dest)
                assert net.delivered[0].latency_ticks == \
                    ticks(net, src, dest), (src, dest)

    def test_64_leaf_with_link_stages(self):
        """Paths crossing the pipelined 2.5 mm root links."""
        for src, dest in ((0, 63), (31, 32), (0, 1), (15, 48)):
            net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
            measure(net, src, dest)
            assert net.delivered[0].latency_ticks == \
                ticks(net, src, dest), (src, dest)

    def test_multiflit_packets(self):
        for flits in (1, 2, 5, 9):
            net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
            measure(net, 0, 7, flits=flits)
            assert net.delivered[0].latency_ticks == \
                ticks(net, 0, 7, flits=flits)


class TestModelStructure:
    def test_link_stage_count_cross_root(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        unstaged = ICNoCNetwork(FabricConfig(ports=64, arity=2,
                                             max_segment_mm=10.0))
        # 0 -> 63 climbs through a level-2 and level-1 link (1 stage each)
        # and descends the mirror pair: 4 stages, a tick each.
        assert ticks(net, 0, 63) - ticks(unstaged, 0, 63) == \
            4 * net.link_stage_ticks

    def test_link_stage_count_sibling(self):
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        unstaged = ICNoCNetwork(FabricConfig(ports=64, arity=2,
                                             max_segment_mm=10.0))
        assert ticks(net, 0, 1) == ticks(unstaged, 0, 1)

    def test_flits_add_full_cycles(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        one = ticks(net, 0, 7, flits=1)
        four = ticks(net, 0, 7, flits=4)
        assert four == one + 6

    def test_same_leaf_rejected(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        with pytest.raises(TopologyError):
            ticks(net, 3, 3)

    def test_zero_flits_rejected(self):
        net = ICNoCNetwork(FabricConfig(ports=8, arity=2))
        with pytest.raises(TopologyError):
            ticks(net, 0, 1, flits=0)

    @pytest.mark.parametrize("topology", ["ctree", "mesh"])
    @pytest.mark.parametrize("endpoint", [-1, 16, 1.5])
    def test_unknown_endpoint_rejected(self, topology, endpoint):
        net = FabricConfig(topology=topology, ports=16).build()
        with pytest.raises(TopologyError, match=f"source {endpoint}"):
            net.zero_load_latency_ticks([endpoint], [3])
        with pytest.raises(TopologyError, match=f"destination {endpoint}"):
            net.zero_load_latency_ticks([3], [endpoint])


class TestAggregates:
    def test_worst_case_is_cross_tree(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        worst = net.zero_load_latency_ticks(*all_pairs(16)).max() / 2
        assert worst == ticks(net, 0, 15) / 2

    def test_mean_between_best_and_worst(self):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        latency = net.zero_load_latency_ticks(*all_pairs(16)) / 2
        best = ticks(net, 0, 1) / 2
        assert best < latency.mean() < latency.max()


# -- every registered build ---------------------------------------------

#: The segmented die: long enough that every credit fabric's links need
#: register stages.
SEGMENTED = dict(segment_links=True, chip_width_mm=20.0,
                 chip_height_mm=20.0)
#: Most flits a bubble-rule (wormhole torus / ring) packet may carry at
#: the default buffer depth: exercises the serialisation term everywhere.
FLITS = 3


@pytest.mark.parametrize("topology", ["mesh", "torus", "ring"])
def test_credit_terms_are_the_priced_path(topology):
    """On a credit fabric the model is ``4·hops + 2·stage_registers + 2``
    over the physical descriptor's priced paths."""
    net = FabricConfig(topology=topology, ports=16, pipeline_depth=2,
                       **SEGMENTED).build()
    costs = physical_model(net).pair_costs(*all_pairs(16))
    assert net.zero_load_latency_ticks(*all_pairs(16)).tolist() == \
        (4 * costs.hops + 2 * costs.stage_registers + 2).tolist()


def builds():
    yield pytest.param(FabricConfig(ports=16, arity=2), id="tree-2")
    yield pytest.param(FabricConfig(ports=16, arity=4), id="tree-4")
    for concentration in (2, 4):
        yield pytest.param(FabricConfig(topology="ctree", ports=16,
                                        concentration=concentration),
                           id=f"ctree-{concentration}")
    for name in ("mesh", "torus", "ring"):
        flows = [("wormhole", None)]
        flows += [("vc", policy) for policy in get_topology(name).vc_policies]
        for flow, policy in flows:
            for depth in (1, 2):
                for segmented in (False, True):
                    config = FabricConfig(
                        topology=name, ports=16, flow_control=flow,
                        vc_policy=policy, pipeline_depth=depth,
                        backend="dispatch",
                        # The torus escape policy needs a third VC.
                        **(dict(n_vcs=3) if policy == "escape" else {}),
                        **(SEGMENTED if segmented else {}))
                    backends = [config]
                    if config._array_refusal is None:
                        backends.append(dataclasses.replace(
                            config, backend="array"))
                    for built in backends:
                        ident = (f"{name}-{policy or flow}-d{depth}"
                                 f"{'-seg' if segmented else ''}"
                                 f"-{built.backend}")
                        marks = ()
                        if policy == "escape" and name == "torus" \
                                and segmented:
                            marks = pytest.mark.xfail(strict=True, reason=(
                                "the walk prices the deterministic XY "
                                "route; the escape policy breaks a "
                                "y-distance tie the other way round, "
                                "over links of another length (ROADMAP "
                                "new direction A)"))
                        yield pytest.param(built, id=ident, marks=marks)


def link_disjoint_rounds(net, srcs, dests):
    """The pairs packed greedily into rounds in which no two pairs share
    a link that any minimal route between them could take (attach links
    included), so no two packets of a round can meet whatever a
    (minimal, possibly adaptive) router chooses: a round sent at once
    runs at zero load. Read from the link table alone, not the routing."""
    topo = net.topology
    ahead = {}
    for a, a_port, b, b_port in topo.links():
        ahead[a, a_port], ahead[b, b_port] = b, a
    hops = []
    for start in range(topo.router_count):
        dist, frontier = {start: 0}, {start}
        while frontier:
            layer = set()
            for (node, _port), there in ahead.items():
                if node in frontier and there not in dist:
                    dist[there] = dist[node] + 1
                    layer.add(there)
            frontier = layer
        hops.append(dist)
    rounds = []
    for src, dest in zip(srcs.tolist(), dests.tolist()):
        a, b = topo.attach(src)[0], topo.attach(dest)[0]
        route = {("inject", topo.attach(src)), ("eject", topo.attach(dest))}
        route |= {link for link, node in ahead.items()
                  if hops[a][link[0]] + 1 + hops[node][b] == hops[a][b]}
        for taken, members in rounds:
            if taken.isdisjoint(route):
                taken |= route
                members.append((src, dest))
                break
        else:
            rounds.append((route, [(src, dest)]))
    return [members for _taken, members in rounds]


@pytest.mark.parametrize("config", builds())
def test_model_equals_simulation_on_every_pair(config):
    """One network; every ordered pair sent once, a link-disjoint round
    at a time, each round drained before the next: every delivered
    latency is the model's, tick for tick."""
    net = config.build()
    srcs, dests = all_pairs(net.endpoints)
    for members in link_disjoint_rounds(net, srcs, dests):
        for src, dest in members:
            net.send(Packet(src=src, dest=dest, payload=list(range(FLITS))))
        assert net.drain(50_000)
    simulated = {(p.src, p.dest): p.latency_ticks for p in net.delivered}
    predicted = net.zero_load_latency_ticks(srcs, dests, FLITS)
    assert predicted.tolist() == [simulated[pair] for pair
                                  in zip(srcs.tolist(), dests.tolist())]


def walk_builds():
    """Every registered build at 16 ports, depth 1, unsegmented, on the
    dispatch backend."""
    yield pytest.param(FabricConfig(ports=16, arity=2), id="tree-2")
    yield pytest.param(FabricConfig(ports=16, arity=4), id="tree-4")
    for concentration in (2, 4):
        yield pytest.param(FabricConfig(topology="ctree", ports=16,
                                        concentration=concentration),
                           id=f"ctree-{concentration}")
    for name in ("mesh", "torus", "ring"):
        flows = [("wormhole", None)]
        flows += [("vc", policy) for policy in get_topology(name).vc_policies]
        for flow, policy in flows:
            marks = ()
            if policy == "escape":
                marks = pytest.mark.xfail(strict=True, reason=(
                    "the walk follows the deterministic XY route; the "
                    "minimal-adaptive escape policy takes another minimal "
                    "route on 108 of 240 mesh pairs and 128 of 240 torus "
                    "pairs at zero load, and on the torus breaks a "
                    "y-distance tie toward north where TorusXYRouting "
                    "goes south, on any die (ROADMAP new direction A)"))
            yield pytest.param(
                FabricConfig(topology=name, ports=16, flow_control=flow,
                             vc_policy=policy,
                             **(dict(n_vcs=3) if policy == "escape" else {})),
                id=f"{name}-{policy or flow}", marks=marks)


@pytest.mark.parametrize("config", walk_builds())
def test_walk_is_the_route_taken(config):
    """Every ordered pair sent once, a link-disjoint round at a time:
    each packet's traced routers are the walk's, in order."""
    net = config.build()
    tracer = attach_tracer(net, 1)
    srcs, dests = all_pairs(net.endpoints)
    for members in link_disjoint_rounds(net, srcs, dests):
        for src, dest in members:
            net.send(Packet(src=src, dest=dest))
        assert net.drain(50_000)
    index = {router.name: i for i, router in enumerate(net.routers)}
    traced = {(trace.src, trace.dest): [index[hop.router]
                                        for hop in trace.hops]
              for trace in tracer.traces}
    walked = {pair: [net.topology.attach(pair[0])[0]]
              for pair in zip(srcs.tolist(), dests.tolist())}
    pairs = list(walked)
    for idx, _node, _port, ahead in net.walk(srcs, dests):
        for i, router in zip(idx.tolist(), ahead.tolist()):
            walked[pairs[i]].append(router)
    if config.topology == "ctree":
        # The concentrator mux turns a same-leaf pair round: no tree
        # router sees it.
        leaf_of = net.topology.leaf_of
        for src, dest in pairs:
            if leaf_of(src) == leaf_of(dest):
                walked[src, dest] = []
    assert traced == walked
