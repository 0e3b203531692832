"""The base of every built network: one spec, one kernel, one run-time API.

:class:`Network` is what every built network is, whatever moves its
flits: the handshake tree (:class:`~repro.noc.network.ICNoCNetwork` and
the concentrated tree) and the credit fabrics
(:class:`~repro.fabric.network.CreditFabricNetwork`) subclass it. It
imports neither family's datapath, so a credit fabric loads no tree
module.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import ConfigurationError, TopologyError
from repro.noc.stats import NetworkStats
from repro.sim.kernel import SimKernel
from repro.timing.frequency import (
    pipeline_max_frequency,
    router_max_frequency,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.clocking.gating import GatingStats
    from repro.fabric.registry import FabricConfig
    from repro.noc.packet import Packet


class Network:
    """What every built network is, whatever its datapath.

    One spec (``config``, always a :class:`~repro.fabric.registry
    .FabricConfig`), one kernel, one delivery record (``delivered``, which
    ``stats`` reads), ``endpoints ==
    config.ports`` addressable ports, what its registry entry names
    (``topology``, ``routing``, ``vc_policy``) and one run-time surface:
    ``send`` / ``set_handler`` / ``run_ticks`` / ``run_cycles`` /
    ``drain``. A family supplies its datapath — ``routers``,
    :meth:`_submit`, :meth:`gating_stats`, ``floorplan`` — and its
    zero-load latency terms (:meth:`router_ticks`, ``link_stage_ticks``,
    ``endpoint_ticks``), and declares its wires and switches to the
    telemetry layer through :meth:`flit_wires` / :meth:`switches`.
    """

    #: Longest packet ``send`` accepts, in flits (None: unbounded).
    max_packet_flits: int | None = None

    def __init__(self, config: "FabricConfig",
                 kernel: SimKernel | None = None):
        # An external kernel lets system models (the demonstrator's tile
        # drivers) register components *before* the network's, so their
        # submissions reach the NIs the same tick — it must agree with
        # the config on the execution mode.
        if kernel is not None and \
                kernel.activity_driven != config.activity_driven:
            raise ConfigurationError(
                "provided kernel's activity_driven flag contradicts the "
                "network config"
            )
        # Lazy: the registry imports the credit network, built on this.
        from repro.fabric.registry import get_topology
        entry = get_topology(config.topology)
        self.config = config
        self.topology = entry.structure.from_config(config)
        self.routing = self.topology.routing()
        self.vc_policy = entry.build_vc_policy(config, self.topology)
        self.endpoints = config.ports
        self.kernel = kernel if kernel is not None \
            else SimKernel(activity_driven=config.activity_driven)
        #: Every delivered packet, in delivery order: the run's one
        #: delivery record, which ``stats`` reads.
        self.delivered: list[Packet] = []
        self.stats = NetworkStats(self)
        self._handlers: dict[int, Callable[[Packet, int], None]] = {}
        self._inflight: dict[int, Packet] = {}

    # -- what a family supplies -------------------------------------------

    def _submit(self, packet: Packet) -> None:
        """Hand a validated packet to its source endpoint (may still
        reject it, before anything is recorded)."""
        raise NotImplementedError

    def gating_stats(self) -> GatingStats:
        """Clock-gating counters summed over the datapath (cumulative)."""
        raise NotImplementedError

    def router_ticks(self) -> list[int]:
        """Ticks a head flit spends crossing each router, input link to
        output link, on an empty network."""
        raise NotImplementedError

    def _link_segments(self, node: int, port: int) -> int:
        """Pipeline segments of the link driven at (node, port): it
        carries one register stage per direction per extra segment."""
        from repro.noc.floorplan import segment_count
        return segment_count(self.floorplan.link_length(node, port),
                             self.config.max_segment_mm)

    def longest_segment_mm(self) -> float:
        """Longest wire any clock period must cover: the longest segment
        of any link."""
        return max(length / self._link_segments(node, port)
                   for (node, port), length
                   in self.floorplan.link_lengths.items())

    def flit_wires(self) -> Iterator[tuple[str, Any, str | None, bool]]:
        """Yield ``(name, signal, consumer, is_credit)`` for every
        flit-carrying wire: the signal to probe, the router that reads
        it (None on ejection wires) and whether it is a tick-tagged
        credit wire into that router's input FIFO or a handshake
        channel's data wire (busy while a flit is offered or held)."""
        raise NotImplementedError

    def switches(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        """Yield ``(grant_name, router, port_labels)`` for every
        switching element: the name its ``arbitration_grant`` events
        carry, the router name :meth:`flit_wires` lists as the consumer,
        and its port labels (empty: ports print as ``pN``)."""
        raise NotImplementedError

    def grant_wires(self) -> Iterator[tuple[str, int, Any]]:
        """Yield ``(grant_name, output, signal)`` for every switch output
        whose tick-tagged flit wire the switch drives in the edge that
        grants it: one change per grant, at the grant tick. A switch
        that stages its grants (a pipelined router) or latches them into
        a handshake stage (the tree's) has none; its grants are read
        from its ``arbitration_grant`` events."""
        return iter(())

    # -- the route walk ---------------------------------------------------

    @cached_property
    def _walk_links(self) -> tuple[np.ndarray, np.ndarray]:
        """The walk's lookups: ``ahead[router, port]``, the router that
        port's link leads to (-1: no link), and ``attached[endpoint]``,
        the router :meth:`attach` names."""
        import numpy as np
        topo = self.topology
        ahead = np.full((topo.router_count, topo.max_ports), -1,
                        dtype=np.int64)
        for a, a_port, b, b_port in topo.links():
            ahead[a, a_port], ahead[b, b_port] = b, a
        attached = np.array([topo.attach(endpoint)[0]
                             for endpoint in range(self.endpoints)],
                            dtype=np.int64)
        return ahead, attached

    def endpoint_pairs(self, srcs, dests) -> tuple[np.ndarray, np.ndarray]:
        """``srcs`` and ``dests`` as endpoint arrays, every entry checked
        to be an integer in ``range(endpoints)``: the one check of every
        query that indexes per-endpoint tables (a negative endpoint
        would wrap, a fraction would truncate)."""
        import numpy as np
        checked = []
        for role, ends in (("source", srcs), ("destination", dests)):
            ends = np.asarray(ends)
            if ends.size and ends.dtype.kind not in "iu":
                raise TopologyError(f"unknown {role} {ends.flat[0].item()!r}"
                                    f": endpoints are integers")
            ends = ends.astype(np.int64, copy=False)
            if ends.size and (ends.min() < 0 or ends.max() >= self.endpoints):
                bad = ends[(ends < 0) | (ends >= self.endpoints)]
                raise TopologyError(f"unknown {role} {int(bad[0])}")
            checked.append(ends)
        return tuple(checked)

    def walk(self, srcs: np.ndarray, dests: np.ndarray
             ) -> Iterator[tuple[np.ndarray, ...]]:
        """Step every (src, dest) endpoint pair at once from the router
        ``src`` attaches to (``topology.attach``) to the one ``dest``
        attaches to, asking the network's own routing strategy
        (``route_array``) at every router. Yields, per step, the indices
        of the pairs still en route, the (router, out port) each leaves
        through and the router it reaches. A pair that attaches to one
        router — ``src == dest`` on every structure, a shared leaf
        router on a tree — takes no step."""
        import numpy as np
        ahead_of, attached = self._walk_links
        route = self.routing.route_array
        node, stop = attached[srcs], attached[dests]
        idx = np.flatnonzero(node != stop)
        node, dest, stop = node[idx], dests[idx], stop[idx]
        # A route longer than the fabric has directed links loops.
        for _step in range(int((ahead_of >= 0).sum())):
            if idx.size == 0:
                return
            port = route(node, dest)
            ahead = ahead_of[node, port]
            unwired = np.flatnonzero(ahead < 0)
            if unwired.size:
                j = unwired[0]
                raise ConfigurationError(
                    f"routing sends {int(srcs[idx[j]])} -> "
                    f"{int(dest[j])} out of router {int(node[j])} on port "
                    f"{int(port[j])}, which has no link"
                )
            yield idx, node, port, ahead
            moving = ahead != stop
            idx, node, dest, stop = (idx[moving], ahead[moving],
                                     dest[moving], stop[moving])
        if idx.size:
            raise ConfigurationError(
                f"routing never reaches {int(dests[idx[0]])} from "
                f"{int(srcs[idx[0]])}: the strategy and the link table "
                f"disagree"
            )

    @cached_property
    def link_register_stages(self) -> tuple[np.ndarray, np.ndarray]:
        """Register stages one direction of a link carries: ``on[router,
        port]`` of that port's link (0: none or no link), ``end[endpoint]``
        of the endpoint's attach link."""
        import numpy as np
        topo = self.topology
        on = np.zeros((topo.router_count, topo.max_ports), dtype=np.int64)
        for a, a_port, b, b_port in topo.links():
            on[a, a_port] = on[b, b_port] = self._link_segments(a, a_port) - 1
        end = np.array([self._link_segments(*topo.attach(end)) - 1
                        for end in range(self.endpoints)], dtype=np.int64)
        return on, end

    def zero_load_latency_ticks(self, srcs, dests,
                                flits: int = 1) -> np.ndarray:
        """Inject-to-eject ticks of a ``flits``-flit packet between each
        ``zip(srcs, dests)`` pair on an empty network, from one walk for
        all pairs. A head flit advances one clocked element per tick, so
        it pays :meth:`router_ticks` at every router on the route,
        ``link_stage_ticks`` at every link register stage (both attach
        links included) and ``endpoint_ticks`` at the endpoints; each
        further flit streams one cycle (2 ticks) behind."""
        import numpy as np
        srcs, dests = self.endpoint_pairs(srcs, dests)
        if flits < 1:
            raise TopologyError("packets have at least one flit")
        same = srcs[srcs == dests]
        if same.size:
            raise TopologyError(f"src == dest ({int(same[0])}) has no path")
        router = np.array(self.router_ticks(), dtype=np.int64)
        on, end = self.link_register_stages
        stage = self.link_stage_ticks
        attached = self._walk_links[1]
        ticks = router[attached[srcs]] + stage * (end[srcs] + end[dests])
        ticks += self.endpoint_ticks + 2 * (flits - 1)
        for idx, node, port, ahead in self.walk(srcs, dests):
            ticks[idx] += router[ahead] + stage * on[node, port]
        return ticks

    # -- run-time API -----------------------------------------------------

    def _deliver(self, packet: Packet, tick: int) -> None:
        """The delivery hook of every sink endpoint."""
        # Reassembly built a fresh Packet; recover the injection time
        # recorded on the submitted original.
        original = self._inflight.pop(packet.packet_id, None)
        if original is not None:
            packet.inject_tick = original.inject_tick
        self.delivered.append(packet)
        handler = self._handlers.get(packet.dest)
        if handler is not None:
            handler(packet, tick)

    def set_handler(self, endpoint: int,
                    handler: Callable[[Packet, int], None]) -> None:
        """Install a delivery callback at an endpoint (used by system
        models)."""
        if not 0 <= endpoint < self.endpoints:
            raise TopologyError(f"unknown endpoint {endpoint}")
        self._handlers[endpoint] = handler

    def send(self, packet: Packet) -> None:
        if not 0 <= packet.dest < self.endpoints:
            raise TopologyError(f"unknown destination {packet.dest}")
        if not 0 <= packet.src < self.endpoints:
            raise TopologyError(f"unknown source {packet.src}")
        if packet.src == packet.dest:
            raise TopologyError(
                "src == dest: packets never enter the network")
        self._submit(packet)
        self._inflight[packet.packet_id] = packet
        self.stats.packets_injected += 1
        self.kernel.emit("inject", packet)

    def run_ticks(self, ticks: int) -> None:
        self.kernel.run_ticks(ticks)
        self.stats.elapsed_ticks = self.kernel.tick

    def run_cycles(self, cycles: float) -> None:
        self.kernel.run_cycles(cycles)
        self.stats.elapsed_ticks = self.kernel.tick

    def drain(self, max_ticks: int = 1_000_000) -> bool:
        """Run until every injected packet is delivered (or give up)."""
        stats, delivered = self.stats, self.delivered
        done = self.kernel.run_until(
            lambda: len(delivered) >= stats.packets_injected, max_ticks)
        stats.elapsed_ticks = self.kernel.tick
        # Assigned, not merged: gating_stats() is cumulative already.
        stats.gating = self.gating_stats()
        return done

    def operating_frequency_ghz(self) -> float:
        """Max clock rate: min of the router critical path (amortised
        over the pipeline depth) and the Fig. 7 pipeline model at the
        longest wire segment — one rule, so the physical reports cost
        every fabric at a comparable frequency."""
        tech = self.config.tech
        f_router = router_max_frequency(self.topology.max_ports, tech,
                                        self.config.pipeline_depth)
        f_links = pipeline_max_frequency(self.longest_segment_mm(), tech)
        return min(f_router, f_links)
