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
from typing import TYPE_CHECKING

from repro.clocking.power import (
    ClockPowerBreakdown,
    balanced_tree_clock_power_mw,
    forwarded_clock_power_mw,
)
from repro.errors import ConfigurationError
from repro.noc.floorplan import LOCAL_PORT
from repro.noc.network import Network
from repro.physical.area import AreaReport, BUFFER_SLOT_AREA_MM2
from repro.physical.power import (
    BUFFER_ENERGY_PJ_PER_FLIT,
    ROUTER_ENERGY_DENSITY_PJ_PER_MM2,
    link_energy_pj_per_flit,
    router_energy_pj_per_flit,
)

if TYPE_CHECKING:
    from repro.noc.floorplan import Floorplan


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
        return sum(self.link_lengths_mm)


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
                profile, sum(router_energy_pj_per_flit(ports, tech)
                             for ports in profile.switch_ports))
        return priced

    def path(self, src: int, dest: int) -> PathProfile:
        return self.priced_path(src, dest)[0]

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

    def flit_energy_pj(self, src: int, dest: int) -> float:
        profile, energy = self.priced_path(src, dest)
        tech = self.tech
        energy += link_energy_pj_per_flit(1.0, tech) * profile.length_mm
        energy += BUFFER_ENERGY_PJ_PER_FLIT * profile.buffered_hops
        if profile.stage_registers:
            # One register-bank write per stage crossed, priced at the
            # same switching-energy density as the router datapath.
            energy += (profile.stage_registers * tech.stage_area_mm2()
                       * ROUTER_ENERGY_DENSITY_PJ_PER_MM2)
        return energy

    def average_flit_energy_pj(self) -> float:
        total = 0.0
        pairs = 0
        for src in range(self.endpoints):
            for dest in range(self.endpoints):
                if src != dest:
                    total += self.flit_energy_pj(src, dest)
                    pairs += 1
        return total / pairs

    def mean_hops(self) -> float:
        total = 0
        pairs = 0
        for src in range(self.endpoints):
            for dest in range(self.endpoints):
                if src != dest:
                    total += self.path(src, dest).hops
                    pairs += 1
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
        return [topo.router_ports] * topo.router_count

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
                           switch_ports=(topo.router_ports,) * len(routers),
                           link_lengths_mm=tuple(lengths))


class CtreePhysical(TreePhysical):
    """Concentrated tree: the tree plus one local mux per leaf NI.

    The mux is priced as a ``concentration + 1``-port crossbar; endpoint
    stubs assume endpoints tile the die (half an endpoint-tile pitch of
    wire each, the same convention as the grid fabrics' local stubs).
    """

    @property
    def _mux_ports(self) -> int:
        return self.network.concentration + 1

    def _stub_mm(self) -> float:
        plan = self.floorplan
        side = max(1, round(self.endpoints ** 0.5))
        return (plan.chip_width_mm / side + plan.chip_height_mm / side) / 4.0

    def mux_area_mm2(self) -> float:
        if self.network.concentration < 2:
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
        leaf_of = self.network.leaf_of
        stub = self._stub_mm()
        src_leaf, dest_leaf = leaf_of(src), leaf_of(dest)
        if src_leaf == dest_leaf:
            # Same-leaf pairs traverse the one-cycle concentrator mux
            # alone — one hop, matching the delivered statistics.
            return PathProfile(hops=1, switch_ports=(self._mux_ports,),
                               link_lengths_mm=(stub, stub))
        # The uncached inner walk: the shared cache is keyed by
        # *endpoint* pairs, and leaf pairs would collide with them.
        tree = super()._path(src_leaf, dest_leaf)
        return PathProfile(
            hops=tree.hops,
            switch_ports=(self._mux_ports,) + tree.switch_ports
            + (self._mux_ports,),
            link_lengths_mm=(stub,) + tree.link_lengths_mm + (stub,),
        )


class _DestProbe:
    """The one flit attribute every route function reads."""

    __slots__ = ("dest",)

    def __init__(self, dest: int):
        self.dest = dest


class CreditFabricPhysical(PhysicalModel):
    """Any :class:`~repro.fabric.network.CreditFabricNetwork` fabric.

    Port counts and buffer capacity come from the built routers — every
    build is the same unified :class:`~repro.fabric.router.FabricRouter`
    whose ``buffer_capacity`` scales as ``ports x n_vcs x buffer_depth``,
    so a VC build pays ``n_vcs x`` the single-VC FIFO budget
    automatically and the allocator choice costs nothing here — link
    lengths from the fabric floorplan, and paths from a walk driven by
    the network's **own** routing strategy (``routing.for_node``) over
    the topology's link table — the descriptor cannot drift from what
    the simulation routes. (VC builds keep the deterministic strategy as
    the path model: the adaptive policies are minimal, so hop counts and
    minimal-path lengths are unchanged.)
    """

    def __init__(self, network):
        super().__init__(network)
        self._hop_cache: dict[tuple[int, int], tuple] | None = None
        self._ports_cache: list[int] | None = None

    def router_port_counts(self) -> list[int]:
        if self._ports_cache is None:
            self._ports_cache = [
                sum(1 for link in router.in_links if link is not None)
                for router in self.network.routers
            ]
        return self._ports_cache

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
        if not self.network.segment_links:
            return 0
        from repro.noc.floorplan import segment_count
        return segment_count(length_mm,
                             self.network.config.max_segment_mm) - 1

    def clock_sink_count(self) -> int:
        # Router + source + sink register banks at every node, plus one
        # sink per link and router stage register bank.
        return (3 * self.network.topology.nodes
                + self.pipeline_stage_count())

    def _hop_table(self) -> dict[tuple[int, int], tuple]:
        """(node, out_port) -> (neighbour, wire length), every direction."""
        if self._hop_cache is None:
            hops = {}
            plan = self.floorplan
            for a, a_port, b, b_port in self.network.topology.links():
                length = plan.link_length(a, a_port)
                hops[(a, a_port)] = (b, length)
                hops[(b, b_port)] = (a, length)
            self._hop_cache = hops
        return self._hop_cache

    def _route_steps(self, src: int, dest: int) -> list[tuple[int, int]]:
        """(node, out_port) hops from src to dest, by asking the
        network's routing strategy at every node along the way."""
        hops = self._hop_table()
        probe = _DestProbe(dest)
        route_for = self.network.routing.for_node
        node = src
        steps: list[tuple[int, int]] = []
        while node != dest:
            port = route_for(node)(probe)
            steps.append((node, port))
            node = hops[(node, port)][0]
            if len(steps) > len(hops):
                raise ConfigurationError(
                    f"routing never reaches {dest} from {src}: the "
                    f"strategy and the link table disagree"
                )
        return steps

    def _path(self, src: int, dest: int) -> PathProfile:
        hops = self._hop_table()
        plan = self.floorplan
        ports = self.router_port_counts()
        steps = self._route_steps(src, dest)
        nodes = [node for node, _port in steps] + [dest]
        lengths = [plan.link_length(src, LOCAL_PORT)]
        lengths += [hops[step][1] for step in steps]
        lengths.append(plan.link_length(dest, LOCAL_PORT))
        stage_registers = sum(self._link_stages_on(length)
                              for length in lengths)
        stage_registers += (self.network.pipeline_depth - 1) * len(nodes)
        return PathProfile(
            hops=len(nodes),
            switch_ports=tuple(ports[node] for node in nodes),
            link_lengths_mm=tuple(lengths),
            buffered_hops=len(nodes),
            stage_registers=stage_registers,
        )


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
