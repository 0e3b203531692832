"""One network contract: what every built network shares.

Every registered topology x flow control, built the one way a network is
built (``FabricConfig(...).build()``), must present the
:class:`~repro.noc.base.Network` base's surface — the same address
checks, delivery callbacks, elapsed-tick bookkeeping and telemetry /
physical hooks — so no consumer has to ask which family it was handed.
"""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.fabric.registry import FabricConfig, topology_names
from repro.noc.base import Network
from repro.noc.debug import attach_watchdog
from repro.noc.packet import Packet
from repro.physical.descriptor import physical_model
from repro.telemetry import attach_metrics, attach_tracer

from tests.fabric.hops import closed_form_hops
from tests.fabric.test_equivalence import _config, flow_control_matrix

MATRIX = flow_control_matrix()


@pytest.fixture(params=MATRIX, ids=["-".join(filter(None, combo))
                                    for combo in MATRIX])
def net(request):
    return _config(*request.param, activity_driven=True).build()


class TestNetworkContract:
    def test_is_a_network_named_by_its_config(self, net):
        assert isinstance(net, Network)
        assert net.endpoints == net.config.ports
        assert net.kernel.activity_driven == net.config.activity_driven

    def test_bad_addresses_raise_topology_error(self, net):
        for dest in (net.endpoints, net.endpoints + 7):
            with pytest.raises(TopologyError):
                net.send(Packet(src=0, dest=dest))
        with pytest.raises(TopologyError):
            net.send(Packet(src=3, dest=3))
        for endpoint in (-1, net.endpoints):
            with pytest.raises(TopologyError):
                net.set_handler(endpoint, lambda packet, tick: None)
        assert net.stats.packets_injected == 0

    def test_handler_fires_once_per_packet_with_eject_tick(self, net):
        last = net.endpoints - 1
        seen = []
        for endpoint in (1, last):
            net.set_handler(endpoint,
                            lambda packet, tick: seen.append((packet, tick)))
        # Endpoint 1 is a same-leaf neighbour of 0 on the concentrated
        # tree (its local turnaround); the last endpoint crosses the
        # whole fabric everywhere.
        sent = [Packet(src=0, dest=1, payload=[1, 2]),
                Packet(src=0, dest=last),
                Packet(src=2, dest=last, payload=[3])]
        for packet in sent:
            net.send(packet)
        assert net.drain()
        assert sorted(p.packet_id for p, _ in seen) == \
            sorted(p.packet_id for p in sent)
        for packet, tick in seen:
            assert packet.eject_tick == tick
            assert packet.inject_tick is not None
        assert net.stats.packets_delivered == len(sent)
        assert len(net.delivered) == len(sent)

    def test_elapsed_ticks_track_the_kernel(self, net):
        net.send(Packet(src=0, dest=net.endpoints - 1))
        net.run_ticks(3)
        assert net.stats.elapsed_ticks == net.kernel.tick == 3
        net.run_cycles(2)
        assert net.stats.elapsed_ticks == net.kernel.tick == 7
        assert net.drain()
        assert net.stats.elapsed_ticks == net.kernel.tick

    def test_drain_assigns_the_cumulative_gating(self, net):
        for _ in range(2):
            net.send(Packet(src=0, dest=net.endpoints - 1))
            assert net.drain()
            assert net.stats.gating == net.gating_stats()
        assert net.stats.gating.edges_total > 0

    def test_flit_wires_and_switches_name_the_datapath(self, net):
        wires = list(net.flit_wires())
        names = [name for name, _signal, _consumer, _is_credit in wires]
        assert names and len(set(names)) == len(names)
        routers = {router.name for router in net.routers}
        for name, signal, consumer, is_credit in wires:
            assert isinstance(name, str)
            assert hasattr(signal, "attach_probe")
            assert consumer is None or consumer in routers
            assert isinstance(is_credit, bool)
        switches = list(net.switches())
        assert [router for _grant, router, _labels in switches] == \
            [router.name for router in net.routers]
        grant_names = [grant for grant, *_ in switches]
        assert len(set(grant_names)) == len(grant_names)

    def test_probes_and_descriptors_accept_it(self, net):
        registry = attach_metrics(net)
        tracer = attach_tracer(net, sample_period=1)
        attach_watchdog(net)
        net.send(Packet(src=0, dest=net.endpoints - 1, payload=[1]))
        assert net.drain()
        summary = registry.summary()
        assert summary.packets_delivered == 1
        assert set(summary.link_flits) == \
            {name for name, *_ in net.flit_wires()}
        assert set(summary.router_grants) == \
            {grant for grant, *_ in net.switches()}
        assert sum(summary.router_grants.values()) > 0
        (trace,) = tracer.traces
        assert trace.deliver_tick is not None and trace.hops
        model = physical_model(net)
        assert model.name == net.config.topology
        assert model.clock_distribution == net.config.clock_distribution
        assert model.endpoints == net.endpoints
        assert model.path(0, net.endpoints - 1).hops == \
            net.stats.hop_counts[0]


#: Every registered structure at 16 ports, plus the quad tree and the
#: second concentration.
WALK_BUILDS = ([(name, {}) for name in topology_names()]
               + [("tree", {"arity": 4}), ("ctree", {"concentration": 2})])


def _walk_build(name, kwargs):
    return FabricConfig(topology=name, ports=16, **kwargs).build()


@pytest.mark.parametrize("name,kwargs", WALK_BUILDS)
def test_hop_count_is_the_walks_hop_count(name, kwargs):
    """The structure's closed form counts the routers the one route walk
    visits, on every ordered pair of distinct endpoints."""
    net = _walk_build(name, kwargs)
    n = net.endpoints
    srcs, dests = np.divmod(np.arange(n * n), n)
    srcs, dests = srcs[srcs != dests], dests[srcs != dests]
    hops = np.ones(srcs.size, dtype=np.int64)
    for idx, _node, _port, _ahead in net.walk(srcs, dests):
        hops[idx] += 1
    assert hops.tolist() == [closed_form_hops(net.topology, src, dest)
                             for src, dest in zip(srcs.tolist(),
                                                  dests.tolist())]


def _all_pairs_run(net):
    """Send one packet between every ordered pair of distinct endpoints
    (two rounds, so packets queue behind each other) and drain."""
    n = net.endpoints
    for _round in range(2):
        for src in range(n):
            for dest in range(n):
                if src != dest:
                    net.send(Packet(src=src, dest=dest))
        net.run_cycles(n)
    assert net.drain()
    return net


@pytest.mark.parametrize("name,kwargs", WALK_BUILDS)
def test_delivery_record_is_in_order_with_walked_hops(name, kwargs):
    """After an all-ordered-pairs run (same-leaf and cross-leaf mixed on
    the concentrated trees), ``net.delivered`` is in delivery order —
    ``eject_tick`` never decreases — and ``stats.hop_counts`` lists the
    closed-form hop count of each of its packets, in that order."""
    net = _all_pairs_run(_walk_build(name, kwargs))
    assert net.stats.packets_delivered == 2 * net.endpoints * \
        (net.endpoints - 1)
    ejects = [packet.eject_tick for packet in net.delivered]
    assert ejects == sorted(ejects)
    assert net.stats.hop_counts == \
        [closed_form_hops(net.topology, packet.src, packet.dest)
         for packet in net.delivered]


@pytest.mark.parametrize("name,kwargs", WALK_BUILDS)
def test_src_equal_dest_counts_one_hop_everywhere(name, kwargs):
    """``send`` refuses ``src == dest``; the analyses count such a pair
    as one hop, the router the endpoint attaches to, on every
    structure."""
    net = _walk_build(name, kwargs)
    ends = np.arange(net.endpoints)
    assert list(net.walk(ends, ends)) == []
    assert {closed_form_hops(net.topology, end, end)
            for end in ends.tolist()} == {1}
    assert set(physical_model(net).pair_costs(ends, ends).hops.tolist()) \
        == {1}
