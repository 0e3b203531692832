"""Per-topology physical descriptors — the registry-driven cost layer.

Every :class:`~repro.fabric.registry.TopologyEntry` registers a
``physical`` hook that maps a *built* network to a :class:`PhysicalModel`:
the one object the generic area / energy / clock-power reports consume.
The contract a model fulfils (docs/physical.md has the worked example):

* ``router_port_counts()`` — in-use ports of every switching element;
* ``floorplan`` — physical link lengths (``repro.noc.floorplan``);
* ``path(src, dest)`` — the :class:`PathProfile` a flit traverses:
  switch port counts, link lengths, and how many of those switches
  charge input-FIFO energy (credit fabrics do, the bufferless tree
  does not);
* ``pair_costs(srcs, dests)`` — the same path's priced totals for many
  pairs at once, as :class:`PairCosts` arrays. Lengths and switch
  energies add left to right along the path (:func:`left_to_right`), so
  every entry equals the :meth:`PhysicalModel.priced_path` it stands
  for, bit for bit; the all-pairs queries and the run report read it;
* ``buffer_flits()`` / ``pipeline_stage_count()`` — storage the area
  model prices. Since the flow-control unification there is one
  :class:`~repro.fabric.router.FabricRouter` whose
  ``buffer_capacity`` is ``ports x n_vcs x buffer_depth``; a wormhole
  build is the ``n_vcs=1`` point of the same formula, so a VC build
  pays exactly ``n_vcs x`` the wormhole budget with no per-flavour
  pricing branch. Allocation policy (``rr`` / ``weighted`` /
  ``escape-reentry``) steers *which* VC wins a cycle, not how much
  silicon exists — it is free in area and priced only through the
  activity it produces;
* ``clock_sink_count()`` / ``clock_wire_mm()`` / ``clock_power()`` — the
  clock network, costed per the entry's *declared* clock-distribution
  capability: ``integrated`` fabrics pay the forwarded-clock model with
  the measured gating activity, ``mesochronous`` fabrics pay the
  balanced-tree model (free-running, no gating).

**Hop convention** (the ctree bugfix): a hop is one switching element on
the datapath between source NI and destination NI — a router, or the
concentrated tree's local mux when it is the only switch (same-leaf
pairs record 1 hop, not 0). Cross-leaf ctree paths count tree routers,
matching the delivered-packet statistics; their energy additionally pays
the two concentrator-mux traversals bracketing the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.clocking.power import (
    ClockPowerBreakdown,
    balanced_tree_clock_power_mw,
    forwarded_clock_power_mw,
)
from repro.errors import ConfigurationError
from repro.noc.floorplan import LOCAL_PORT
from repro.noc.base import Network
from repro.physical.area import AreaReport, BUFFER_SLOT_AREA_MM2
from repro.physical.power import (
    BUFFER_ENERGY_PJ_PER_FLIT,
    ROUTER_ENERGY_DENSITY_PJ_PER_MM2,
    link_energy_pj_per_flit,
    router_energy_pj_per_flit,
)

if TYPE_CHECKING:
    from repro.noc.floorplan import Floorplan


def left_to_right(values: Iterable[float]) -> float:
    """``values`` summed one by one from the left: the one summation
    order every path total follows (the built-in ``sum`` compensates
    float rounding on newer Pythons)."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class PathProfile:
    """What one flit traverses between two endpoints.

    ``hops`` follows the hop convention above and matches the hop count
    the network's statistics record for the same pair. ``switch_ports``
    may be longer than ``hops`` (ctree cross-leaf paths include the two
    concentrator muxes the statistics fold into the NIs).
    """

    hops: int
    switch_ports: tuple[int, ...]
    link_lengths_mm: tuple[float, ...]
    buffered_hops: int = 0
    #: Pipeline register banks crossed on the way: link-segment stages
    #: plus (pipeline_depth - 1) per staged router. Each charges one
    #: register-bank write of flit energy. The tree keeps 0 here — its
    #: stage traversals are part of the calibrated per-hop energy.
    stage_registers: int = 0

    @property
    def length_mm(self) -> float:
        return left_to_right(self.link_lengths_mm)


@dataclass(frozen=True)
class PairCosts:
    """:meth:`PhysicalModel.pair_costs`: one entry per (src, dest) pair,
    each the matching :class:`PathProfile` total (``switch_pj`` is the
    :meth:`PhysicalModel.priced_path` price)."""

    hops: np.ndarray
    length_mm: np.ndarray
    switch_pj: np.ndarray
    buffered_hops: np.ndarray
    stage_registers: np.ndarray


class PhysicalModel:
    """Physical accounting of one built network (see module docstring)."""

    def __init__(self, network):
        self.network = network
        self.name = network.config.topology
        self.clock_distribution = network.config.clock_distribution
        self._paths: dict[tuple[int, int], tuple[PathProfile, float]] = {}

    def priced_path(self, src: int, dest: int) -> tuple[PathProfile, float]:
        """The (memoised) path profile and the energy of its switch
        traversals in pJ per flit — both depend only on the pair, so
        all-pairs sweeps and per-packet run reports share one walk and
        one per-path price."""
        pair = (src, dest)
        priced = self._paths.get(pair)
        if priced is None:
            profile = self._path(src, dest)
            tech = self.tech
            priced = self._paths[pair] = (
                profile, left_to_right(router_energy_pj_per_flit(ports, tech)
                                       for ports in profile.switch_ports))
        return priced

    def path(self, src: int, dest: int) -> PathProfile:
        return self.priced_path(src, dest)[0]

    def pair_costs(self, srcs, dests) -> PairCosts:
        """Priced path totals of the pairs ``zip(srcs, dests)``. The
        default maps :meth:`priced_path`; a fabric may override it with
        a batched walk that returns the same numbers."""
        pairs = zip(np.asarray(srcs).tolist(), np.asarray(dests).tolist())
        priced = [self.priced_path(src, dest) for src, dest in pairs]
        return PairCosts(
            hops=np.array([p.hops for p, _e in priced], dtype=np.int64),
            length_mm=np.array([p.length_mm for p, _e in priced],
                               dtype=np.float64),
            switch_pj=np.array([e for _p, e in priced], dtype=np.float64),
            buffered_hops=np.array([p.buffered_hops for p, _e in priced],
                                   dtype=np.int64),
            stage_registers=np.array([p.stage_registers for p, _e in priced],
                                     dtype=np.int64),
        )

    # -- contract (overridden per fabric family) ------------------------

    @property
    def tech(self):
        return self.network.config.tech

    @property
    def floorplan(self) -> "Floorplan":
        return self.network.floorplan

    @property
    def endpoints(self) -> int:
        return self.network.endpoints

    def router_port_counts(self) -> list[int]:
        raise NotImplementedError

    def _path(self, src: int, dest: int) -> PathProfile:
        raise NotImplementedError

    def buffer_flits(self) -> int:
        return 0

    def pipeline_stage_count(self) -> int:
        return 0

    def mux_area_mm2(self) -> float:
        return 0.0

    def clock_sink_count(self) -> int:
        raise NotImplementedError

    def clock_wire_mm(self) -> float:
        return self.floorplan.total_link_length_mm()

    def frequency_ghz(self) -> float:
        return self.network.operating_frequency_ghz()

    def measured_sink_activity(self) -> float:
        return self.network.gating_stats().activity

    # -- generic reports -------------------------------------------------

    def area_report(self) -> AreaReport:
        tech = self.tech
        router_mm2 = sum(tech.router_area_mm2(ports)
                         for ports in self.router_port_counts())
        return AreaReport(
            router_mm2=router_mm2 + self.mux_area_mm2(),
            pipeline_mm2=self.pipeline_stage_count() * tech.stage_area_mm2(),
            buffer_mm2=self.buffer_flits() * BUFFER_SLOT_AREA_MM2,
            chip_mm2=self.floorplan.chip_area_mm2,
        )

    def flit_energies_pj(self, srcs, dests) -> list[float]:
        """Energy of one flit from each ``srcs`` entry to its ``dests``
        entry, in pJ: switches, wire, input FIFOs and stage registers."""
        costs = self.pair_costs(srcs, dests)
        tech = self.tech
        energy = costs.switch_pj + (link_energy_pj_per_flit(1.0, tech)
                                    * costs.length_mm)
        energy += BUFFER_ENERGY_PJ_PER_FLIT * costs.buffered_hops
        # One register-bank write per stage crossed, priced at the same
        # switching-energy density as the router datapath.
        energy += (costs.stage_registers * tech.stage_area_mm2()
                   * ROUTER_ENERGY_DENSITY_PJ_PER_MM2)
        return energy.tolist()

    def flit_energy_pj(self, src: int, dest: int) -> float:
        return self.flit_energies_pj([src], [dest])[0]

    def _source_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every ordered pair of distinct endpoints, one source per row
        (memory stays O(endpoints x diameter)), dest ascending."""
        dests = np.arange(self.endpoints)
        for src in range(self.endpoints):
            row = dests[dests != src]
            yield np.full(row.size, src), row

    def average_flit_energy_pj(self) -> float:
        total = 0.0
        pairs = 0
        for srcs, dests in self._source_rows():
            for energy in self.flit_energies_pj(srcs, dests):
                total += energy
            pairs += dests.size
        return total / pairs

    def mean_hops(self) -> float:
        total = 0
        pairs = 0
        for srcs, dests in self._source_rows():
            total += int(self.pair_costs(srcs, dests).hops.sum())
            pairs += dests.size
        return total / pairs

    def worst_case_hops(self) -> int:
        return self.network.topology.worst_case_hops()

    def clock_power(self, frequency_ghz: float | None = None,
                    sink_activity: float | None = None,
                    ) -> ClockPowerBreakdown:
        """Clock distribution power per the declared capability.

        ``integrated`` rides the data links: forwarded-clock model, sink
        pins gated at ``sink_activity`` (the run's measured gating when
        None). ``mesochronous`` pays the balanced-tree model over the
        same routed wire — free-running, so activity does not apply.
        """
        if frequency_ghz is None:
            frequency_ghz = self.frequency_ghz()
        if self.clock_distribution == "integrated":
            if sink_activity is None:
                sink_activity = self.measured_sink_activity()
            return forwarded_clock_power_mw(
                self.clock_wire_mm(), sinks=self.clock_sink_count(),
                frequency=frequency_ghz, sink_activity=sink_activity,
                tech=self.tech,
            )
        return balanced_tree_clock_power_mw(
            self.clock_wire_mm(), sinks=self.clock_sink_count(),
            frequency=frequency_ghz, tech=self.tech,
        )


class TreePhysical(PhysicalModel):
    """The hand-written tree model, now one descriptor among equals."""

    def router_port_counts(self) -> list[int]:
        topo = self.network.topology
        return [topo.max_ports] * topo.router_count

    def pipeline_stage_count(self) -> int:
        return self.network.pipeline_stage_count

    def clock_sink_count(self) -> int:
        return len(self.network.clock_tree)

    def _path(self, src: int, dest: int) -> PathProfile:
        """Every link on the tree route, the two leaf links included."""
        topo = self.network.topology
        link_length = self.network.floorplan.link_length
        routers = topo.route_path(src, dest)
        src_router = topo.leaf_router(src)
        lengths = [link_length(src_router.index,
                               topo.child_port_for_leaf(src_router, src))]
        for a, b in zip(routers, routers[1:]):
            upper, lower = (a, b) if topo.router(b).parent == a else (b, a)
            child_slot = topo.router(upper).children.index(lower)
            lengths.append(link_length(upper, child_slot + 1))
        dest_router = topo.leaf_router(dest)
        lengths.append(link_length(
            dest_router.index, topo.child_port_for_leaf(dest_router, dest)))
        return PathProfile(hops=len(routers),
                           switch_ports=(topo.max_ports,) * len(routers),
                           link_lengths_mm=tuple(lengths))


class CtreePhysical(TreePhysical):
    """Concentrated tree: the tree plus one local mux per leaf NI.

    The mux is priced as a ``concentration + 1``-port crossbar; endpoint
    stubs assume endpoints tile the die (half an endpoint-tile pitch of
    wire each, the same convention as the grid fabrics' local stubs).
    """

    @property
    def _mux_ports(self) -> int:
        return self.network.topology.concentration + 1

    def _stub_mm(self) -> float:
        plan = self.floorplan
        side = max(1, round(self.endpoints ** 0.5))
        return (plan.chip_width_mm / side + plan.chip_height_mm / side) / 4.0

    def mux_area_mm2(self) -> float:
        if self.network.topology.concentration < 2:
            return 0.0  # a 1:1 "mux" is a wire
        return (self.network.topology.leaves
                * self.tech.router_area_mm2(self._mux_ports))

    def clock_sink_count(self) -> int:
        # The tree's sinks plus one endpoint-side register bank each.
        return len(self.network.clock_tree) + self.endpoints

    def clock_wire_mm(self) -> float:
        return (self.floorplan.total_link_length_mm()
                + self.endpoints * self._stub_mm())

    def _path(self, src: int, dest: int) -> PathProfile:
        stub = self._stub_mm()
        from_leaf, to_leaf = map(self.network.topology.leaf_of, (src, dest))
        if from_leaf == to_leaf:
            # Same-leaf pairs traverse the one-cycle concentrator mux
            # alone — one hop, matching the delivered statistics.
            return PathProfile(hops=1, switch_ports=(self._mux_ports,),
                               link_lengths_mm=(stub, stub))
        # The uncached inner walk: the shared cache is keyed by
        # *endpoint* pairs, and leaf pairs would collide with them.
        tree = super()._path(from_leaf, to_leaf)
        return PathProfile(
            hops=tree.hops,
            switch_ports=(self._mux_ports,) + tree.switch_ports
            + (self._mux_ports,),
            link_lengths_mm=(stub,) + tree.link_lengths_mm + (stub,),
        )


class CreditFabricPhysical(PhysicalModel):
    """Any :class:`~repro.fabric.network.CreditFabricNetwork` fabric.

    Port counts and buffer capacity come from the fabric's structure
    (``input_fifo_depths``, what every build wires into the same unified
    :class:`~repro.fabric.router.FabricRouter`), so the descriptor never
    builds an array backend's datapath. Capacity scales as ``ports x
    n_vcs x buffer_depth``, so a VC build pays ``n_vcs x`` the single-VC
    FIFO budget automatically and the allocator choice costs nothing
    here — link
    lengths from the fabric floorplan, and paths from a walk driven by
    the network's **own** routing strategy (``routing.route_array``)
    over the topology's link table, all pairs stepped together — the
    descriptor cannot drift from what the simulation routes. (VC builds
    keep the deterministic strategy as the path model: the adaptive
    policies are minimal, so hop counts and minimal-path lengths are
    unchanged.)
    """

    def __init__(self, network):
        super().__init__(network)
        self._walk_tables: _WalkTables | None = None

    def router_port_counts(self) -> list[int]:
        return [len(ports) for ports in self.network.input_fifo_depths]

    def buffer_flits(self) -> int:
        return self.network.total_buffer_flits()

    def pipeline_stage_count(self) -> int:
        """Stage registers the area model prices: the segmented links'
        register banks (all directions, straight from the built links)
        plus the routers' internal stage registers (one bank per in-use
        output port per extra pipeline stage)."""
        return (self.network.link_stage_count
                + self.network.router_stage_registers)

    def _link_stages_on(self, length_mm: float) -> int:
        """Register stages one direction of a link of this length has."""
        if not self.network.config.segment_links:
            return 0
        from repro.noc.floorplan import segment_count
        return segment_count(length_mm,
                             self.network.config.max_segment_mm) - 1

    def clock_sink_count(self) -> int:
        # Router + source + sink register banks at every node, plus one
        # sink per link and router stage register bank.
        return (3 * self.network.topology.nodes
                + self.pipeline_stage_count())

    def _tables(self) -> "_WalkTables":
        """Per-node and per-(node, out port) lookups the walk reads."""
        if self._walk_tables is None:
            topo = self.network.topology
            plan = self.floorplan
            ahead = np.full((topo.nodes, topo.max_ports), -1, dtype=np.int64)
            link_mm = np.zeros(ahead.shape)
            link_stages = np.zeros(ahead.shape, dtype=np.int64)
            for a, a_port, b, b_port in topo.links():
                length = plan.link_length(a, a_port)
                stages = self._link_stages_on(length)
                for node, port, neighbour in ((a, a_port, b), (b, b_port, a)):
                    ahead[node, port] = neighbour
                    link_mm[node, port] = length
                    link_stages[node, port] = stages
            stub_mm = [plan.link_length(node, LOCAL_PORT)
                       for node in range(topo.nodes)]
            # One switch price per distinct port count.
            counts = self.router_port_counts()
            price = {ports: router_energy_pj_per_flit(ports, self.tech)
                     for ports in set(counts)}
            self._walk_tables = _WalkTables(
                ahead=ahead, link_mm=link_mm, link_stages=link_stages,
                stub_mm=np.array(stub_mm),
                stub_stages=np.array([self._link_stages_on(length)
                                      for length in stub_mm],
                                     dtype=np.int64),
                switch_pj=np.array([price[ports] for ports in counts]),
            )
        return self._walk_tables

    def _walk(self, srcs: np.ndarray, dests: np.ndarray):
        """Step every (src, dest) pair toward its destination at once,
        asking the network's own routing strategy (``route_array``) at
        every node. Yields, per step, the indices of the pairs still en
        route, the (node, out port) each leaves through and the node it
        reaches."""
        ahead_of = self._tables().ahead
        route = self.network.routing.route_array
        idx = np.flatnonzero(srcs != dests)
        node, dest = srcs[idx], dests[idx]
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
                    f"{int(dest[j])} out of node {int(node[j])} on port "
                    f"{int(port[j])}, which has no link"
                )
            yield idx, node, port, ahead
            moving = ahead != dest
            idx, node, dest = idx[moving], ahead[moving], dest[moving]
        if idx.size:
            raise ConfigurationError(
                f"routing never reaches {int(dests[idx[0]])} from "
                f"{int(srcs[idx[0]])}: the strategy and the link table "
                f"disagree"
            )

    def pair_costs(self, srcs, dests) -> PairCosts:
        """One walk for all the pairs. Each total adds left to right —
        local stub, links in route order, local stub; switches in route
        order — as :meth:`_path` and :meth:`priced_path` do, so every
        entry is bit-identical to the one-pair path."""
        srcs = np.asarray(srcs, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        t = self._tables()
        steps = np.zeros(srcs.size, dtype=np.int64)
        length = t.stub_mm[srcs]
        switch = t.switch_pj[srcs]
        stages = t.stub_stages[srcs] + t.stub_stages[dests]
        for idx, node, port, ahead in self._walk(srcs, dests):
            steps[idx] += 1
            length[idx] += t.link_mm[node, port]
            switch[idx] += t.switch_pj[ahead]
            stages[idx] += t.link_stages[node, port]
        length += t.stub_mm[dests]
        hops = steps + 1
        stages += (self.network.config.pipeline_depth - 1) * hops
        return PairCosts(hops=hops, length_mm=length, switch_pj=switch,
                         buffered_hops=hops, stage_registers=stages)

    def _path(self, src: int, dest: int) -> PathProfile:
        """The one-pair case of :meth:`_walk`."""
        t = self._tables()
        ports = self.router_port_counts()
        nodes = [src]
        lengths = [t.stub_mm[src].item()]
        for _idx, node, port, ahead in self._walk(np.array([src]),
                                                   np.array([dest])):
            lengths.append(t.link_mm[node[0], port[0]].item())
            nodes.append(int(ahead[0]))
        lengths.append(t.stub_mm[dest].item())
        stage_registers = sum(self._link_stages_on(length)
                              for length in lengths)
        stage_registers += ((self.network.config.pipeline_depth - 1)
                            * len(nodes))
        return PathProfile(
            hops=len(nodes),
            switch_ports=tuple(ports[node] for node in nodes),
            link_lengths_mm=tuple(lengths),
            buffered_hops=len(nodes),
            stage_registers=stage_registers,
        )


@dataclass(frozen=True)
class _WalkTables:
    """:meth:`CreditFabricPhysical._walk`'s lookups: ``ahead[node,
    port]`` is the neighbour (-1: no link), ``link_mm`` / ``link_stages``
    that link's wire length and register stages, the ``stub_*`` arrays
    each node's local stub, ``switch_pj`` each router's switch price."""

    ahead: np.ndarray
    link_mm: np.ndarray
    link_stages: np.ndarray
    stub_mm: np.ndarray
    stub_stages: np.ndarray
    switch_pj: np.ndarray


def physical_model(network) -> PhysicalModel:
    """The registered physical descriptor of a built network."""
    from repro.fabric.registry import get_topology
    if not isinstance(network, Network):
        raise ConfigurationError(
            f"no physical descriptor for {type(network).__name__}: not "
            f"built from the topology registry"
        )
    name = network.config.topology
    entry = get_topology(name)
    if entry.physical is None:
        raise ConfigurationError(
            f"topology {name!r} registers no physical descriptor"
        )
    return entry.physical(network)
