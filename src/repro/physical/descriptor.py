"""Per-topology physical descriptors — the registry-driven cost layer.

Every :class:`~repro.fabric.registry.TopologyEntry` registers a
``physical`` hook that maps a *built* network to a :class:`PhysicalModel`:
the one object the generic area / energy / clock-power reports consume.
The contract a model fulfils (docs/physical.md has the worked example):

* ``router_port_counts()`` — in-use ports of every switching element;
* ``floorplan`` — physical link lengths (``repro.noc.floorplan``);
* ``pair_costs(srcs, dests)`` — the priced totals of the paths flits
  take between many pairs at once, as :class:`PairCosts` arrays, from
  one route walk (:meth:`repro.noc.base.Network.walk`) over every
  family. Lengths and switch energies add left to right along the path
  (:func:`left_to_right`); the all-pairs queries and the run report
  read it. What stays per family is whether a hop charges input-FIFO
  energy and stage registers (credit fabrics do, the bufferless tree
  does not) and the ctree's stub and concentrator mux at each end;
* ``path(src, dest)`` — the one-pair case of the same walk, spelled out
  as a :class:`PathProfile`: switch port counts and link lengths;
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
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.clocking.power import (
    ClockPowerBreakdown,
    balanced_tree_clock_power_mw,
    forwarded_clock_power_mw,
)
from repro.errors import ConfigurationError
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
    each the matching :class:`PathProfile` total (``switch_pj`` prices
    its ``switch_ports`` left to right)."""

    hops: np.ndarray
    length_mm: np.ndarray
    switch_pj: np.ndarray
    buffered_hops: np.ndarray
    stage_registers: np.ndarray


class PhysicalModel:
    """Physical accounting of one built network (see module docstring)."""

    #: Whether every hop charges an input FIFO and ``pipeline_depth - 1``
    #: stage registers (the credit fabrics; the tree's stage traversals
    #: are part of its calibrated per-hop energy).
    buffered = False

    def __init__(self, network):
        self.network = network
        self.name = network.config.topology
        self.clock_distribution = network.config.clock_distribution
        self._walk_tables: _WalkTables | None = None
        self._pair_summary: tuple[int, float, float] | None = None

    def _tables(self) -> "_WalkTables":
        """Per-link, per-endpoint and per-router prices the walk reads."""
        if self._walk_tables is None:
            topo = self.network.topology
            plan = self.floorplan
            link_mm = np.zeros((topo.router_count, topo.max_ports))
            for a, a_port, b, b_port in topo.links():
                link_mm[a, a_port] = link_mm[b, b_port] = \
                    plan.link_length(a, a_port)
            ends = [topo.attach(endpoint)
                    for endpoint in range(self.endpoints)]
            end_mm = np.array([plan.link_length(*end) for end in ends])
            # One switch price per distinct port count.
            counts = self.router_port_counts()
            price = {ports: router_energy_pj_per_flit(ports, self.tech)
                     for ports in set(counts)}
            # Only a buffered hop charges its links' stage registers.
            link_stages, end_stages = self.network.link_register_stages
            self._walk_tables = _WalkTables(
                link_mm=link_mm, link_stages=link_stages * self.buffered,
                end_router=np.array([router for router, _port in ends],
                                    dtype=np.int64),
                end_mm=end_mm, end_stages=end_stages * self.buffered,
                switch_pj=np.array([price[ports] for ports in counts]),
            )
        return self._walk_tables

    def pair_costs(self, srcs, dests) -> PairCosts:
        """Priced path totals of the pairs ``zip(srcs, dests)``, from one
        walk for all of them. Each total adds left to right — the
        family's end cost, the source's attach link, links in route
        order, the destination's attach link, the end cost; switches in
        route order — as :meth:`path` lists them, so every entry is
        bit-identical to the one-pair path."""
        srcs, dests = self.network.endpoint_pairs(srcs, dests)
        t = self._tables()
        end_mm, end_pj = self._end_costs()
        steps = np.zeros(srcs.size, dtype=np.int64)
        length = end_mm + t.end_mm[srcs]
        switch = end_pj + t.switch_pj[t.end_router[srcs]]
        stages = t.end_stages[srcs] + t.end_stages[dests]
        for idx, node, port, ahead in self.network.walk(srcs, dests):
            steps[idx] += 1
            length[idx] += t.link_mm[node, port]
            switch[idx] += t.switch_pj[ahead]
            stages[idx] += t.link_stages[node, port]
        length += t.end_mm[dests]
        length += end_mm
        switch += end_pj
        hops = steps + 1
        buffered = hops if self.buffered else np.zeros_like(hops)
        stages += (self.network.config.pipeline_depth - 1) * buffered
        return PairCosts(hops=hops, length_mm=length, switch_pj=switch,
                         buffered_hops=buffered, stage_registers=stages)

    def path(self, src: int, dest: int) -> PathProfile:
        """The one-pair case of the walk: the routers and links a flit
        crosses between two endpoints, attach links included."""
        srcs, dests = self.network.endpoint_pairs([src], [dest])
        t = self._tables()
        routers = [int(t.end_router[src])]
        lengths = [t.end_mm[src].item()]
        stages = int(t.end_stages[src] + t.end_stages[dest])
        for _idx, node, port, ahead in self.network.walk(srcs, dests):
            lengths.append(t.link_mm[node[0], port[0]].item())
            stages += int(t.link_stages[node[0], port[0]])
            routers.append(int(ahead[0]))
        lengths.append(t.end_mm[dest].item())
        ports = self.router_port_counts()
        buffered = len(routers) if self.buffered else 0
        stages += (self.network.config.pipeline_depth - 1) * buffered
        return PathProfile(
            hops=len(routers),
            switch_ports=tuple(ports[router] for router in routers),
            link_lengths_mm=tuple(lengths),
            buffered_hops=buffered,
            stage_registers=stages,
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

    def _end_costs(self) -> tuple[float, float]:
        """Wire (mm) and switch energy (pJ) each end of a path adds
        outside the routers."""
        return 0.0, 0.0

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

    def _energies_pj(self, costs: PairCosts) -> np.ndarray:
        """Energy of one flit along each priced path, in pJ: switches,
        wire, input FIFOs and stage registers."""
        tech = self.tech
        energy = costs.switch_pj + (link_energy_pj_per_flit(1.0, tech)
                                    * costs.length_mm)
        energy += BUFFER_ENERGY_PJ_PER_FLIT * costs.buffered_hops
        # One register-bank write per stage crossed, priced at the same
        # switching-energy density as the router datapath.
        energy += (costs.stage_registers * tech.stage_area_mm2()
                   * ROUTER_ENERGY_DENSITY_PJ_PER_MM2)
        return energy

    def flit_energies_pj(self, srcs, dests) -> list[float]:
        """Energy of one flit from each ``srcs`` entry to its ``dests``
        entry, in pJ."""
        return self._energies_pj(self.pair_costs(srcs, dests)).tolist()

    def flit_energy_pj(self, src: int, dest: int) -> float:
        return self.flit_energies_pj([src], [dest])[0]

    def _all_pairs(self) -> tuple[int, float, float]:
        """(worst hops, mean hops, mean flit energy) over every ordered
        pair of distinct endpoints, from one walk per source row (memory
        stays O(endpoints x diameter)), dest ascending; energies add left
        to right. Walked once per model."""
        if self._pair_summary is None:
            worst = hops = pairs = 0
            energy = 0.0
            dests = np.arange(self.endpoints)
            for src in range(self.endpoints):
                row = dests[dests != src]
                costs = self.pair_costs(np.full(row.size, src), row)
                worst = max(worst, int(costs.hops.max()))
                hops += int(costs.hops.sum())
                for pj in self._energies_pj(costs).tolist():
                    energy += pj
                pairs += row.size
            self._pair_summary = (worst, hops / pairs, energy / pairs)
        return self._pair_summary

    def worst_case_hops(self) -> int:
        return self._all_pairs()[0]

    def mean_hops(self) -> float:
        return self._all_pairs()[1]

    def average_flit_energy_pj(self) -> float:
        return self._all_pairs()[2]

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
                sink_activity = self.network.gating_stats().activity
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

    def _end_costs(self) -> tuple[float, float]:
        return self._stub_mm(), router_energy_pj_per_flit(self._mux_ports,
                                                          self.tech)

    def _same_leaf(self, srcs, dests) -> np.ndarray:
        leaf_of = self.network.topology.leaf_of
        return leaf_of(np.asarray(srcs)) == leaf_of(np.asarray(dests))

    def pair_costs(self, srcs, dests) -> PairCosts:
        costs = super().pair_costs(srcs, dests)
        # Same-leaf pairs traverse the one-cycle concentrator mux alone —
        # one hop, matching the delivered statistics.
        stub, mux_pj = self._end_costs()
        same = self._same_leaf(srcs, dests)
        costs.length_mm[same] = stub + stub
        costs.switch_pj[same] = mux_pj
        return costs

    def path(self, src: int, dest: int) -> PathProfile:
        self.network.endpoint_pairs([src], [dest])
        stub, mux = self._stub_mm(), self._mux_ports
        if self._same_leaf(src, dest):
            return PathProfile(hops=1, switch_ports=(mux,),
                               link_lengths_mm=(stub, stub))
        tree = super().path(src, dest)
        return PathProfile(
            hops=tree.hops,
            switch_ports=(mux,) + tree.switch_ports + (mux,),
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
    here. Every hop charges its input FIFO and stage registers, and a
    segmented link its register stages. (VC builds keep the
    deterministic strategy as the path model: the adaptive policies are
    minimal, so hop counts and minimal-path lengths are unchanged.)
    """

    buffered = True

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

    def clock_sink_count(self) -> int:
        # Router + source + sink register banks at every node, plus one
        # sink per link and router stage register bank.
        return (3 * self.network.topology.nodes
                + self.pipeline_stage_count())


@dataclass(frozen=True)
class _WalkTables:
    """What :meth:`PhysicalModel.pair_costs` reads along the walk:
    ``link_mm[router, port]`` / ``link_stages`` that link's wire length
    and register stages, the ``end_*`` arrays each endpoint's attach
    router and attach link, ``switch_pj`` each router's switch price."""

    link_mm: np.ndarray
    link_stages: np.ndarray
    end_router: np.ndarray
    end_mm: np.ndarray
    end_stages: np.ndarray
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
