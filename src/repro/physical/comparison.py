"""The paper-style physical comparisons, as queries over the registered
descriptors.

Two tables live here, both built from
``physical_model(FabricConfig(...).build())`` and nothing else:

* the all-fabrics table (:func:`physical_comparison_rows`, below);
* the paper's Section 3 tree-vs-mesh argument
  (:func:`compare_topologies` and the ``tree_mesh_*_table`` views):
  worst-case hops ``2*log2(N) - 1`` vs ``~2*sqrt(N)``, ``N - 1`` shared
  bufferless 3x3 routers vs ``N`` buffered 5x5 ones (hence less area
  and leakage), and per-flit energy that favours the tree once traffic
  is clustered (after Lee [12]) — :func:`energy_crossover_locality`
  finds where.

Section 6 of the paper compares the IC-NoC against its baseline on hops,
buffers, area, energy and clock power. The registry makes five fabrics
runnable under two flow controls; this module builds the full table from
each fabric's physical descriptor — one row per (topology, flow control)
pairing, all structural (no traffic is simulated, so clock power is the
un-gated worst case with every sink at activity 1).

A ``workload`` adds the one simulated column: the same canned
accelerator trace (:mod:`repro.accel`) replays on every row's fabric and
reports its makespan — real traffic on otherwise like-for-like rows.

``python -m repro.cli compare --nodes 16`` prints it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.fabric.registry import (
    FLOW_VC,
    FabricConfig,
    get_topology,
    topology_names,
)
from repro.physical.descriptor import PhysicalModel, physical_model
from repro.tech.technology import Technology, TECH_90NM


@dataclass(frozen=True)
class PhysicalComparison:
    """One (topology, flow control) row of the comparison table."""

    topology: str
    flow_control: str
    clock_distribution: str
    endpoints: int
    mean_hops: float
    worst_hops: int
    buffer_flits: int
    area_mm2: float
    energy_pj_per_flit: float
    clock_mw: float
    frequency_ghz: float
    #: Replay makespan of the shared workload trace (None = not run).
    makespan_cycles: int | None = None


def comparison_config(topology: str, flow_control: str, nodes: int = 16,
                      n_vcs: int = 2, buffer_depth: int = 4,
                      concentration: int = 4, chip_mm: float = 10.0,
                      pipeline_depth: int = 1,
                      segment_mm: float | None = None,
                      activity_driven: bool = True,
                      backend: str = "dispatch") -> FabricConfig:
    """The :class:`FabricConfig` one comparison row builds.

    ``nodes`` counts network endpoints for every fabric (the ctree keeps
    ``nodes`` endpoints on ``nodes / concentration`` leaves), so the rows
    compare like against like.

    ``pipeline_depth`` and ``segment_mm`` apply to the credit fabrics
    (``supports_pipeline`` entries): depth stages the routers,
    ``segment_mm`` turns on link segmentation at that pitch. The tree
    family rows are untouched by ``pipeline_depth`` (their routers are a
    fixed handshake pipeline) but do honour ``segment_mm`` as their
    ``max_segment_mm`` — the tree always segments, so the knob stays
    comparable across rows. ``backend`` likewise reaches only the credit
    fabrics — the physical numbers are backend-invariant (both backends
    build the same structure), so the knob exists to exercise the array
    lowering from the comparison path, not to change any row.
    """
    kwargs: dict = {
        "topology": topology, "ports": nodes,
        "chip_width_mm": chip_mm, "chip_height_mm": chip_mm,
        "buffer_depth": buffer_depth,
        "activity_driven": activity_driven,
    }
    if topology == "ctree":
        kwargs["concentration"] = concentration
    if flow_control == FLOW_VC:
        kwargs["flow_control"] = FLOW_VC
        kwargs["n_vcs"] = n_vcs
    if get_topology(topology).supports_pipeline:
        kwargs["pipeline_depth"] = pipeline_depth
        kwargs["backend"] = backend
        if segment_mm is not None:
            kwargs["segment_links"] = True
            kwargs["max_segment_mm"] = segment_mm
    elif segment_mm is not None:
        kwargs["max_segment_mm"] = segment_mm
    return FabricConfig(**kwargs)


def physical_comparison_rows(nodes: int = 16, n_vcs: int = 2,
                             buffer_depth: int = 4, concentration: int = 4,
                             chip_mm: float = 10.0,
                             pipeline_depth: int = 1,
                             segment_mm: float | None = None,
                             topologies: tuple[str, ...] | None = None,
                             activity_driven: bool = True,
                             backend: str = "dispatch",
                             workload: str | None = None,
                             workload_seed: int = 0,
                             ) -> list[PhysicalComparison]:
    """One row per registered (topology, flow control) pairing.

    Every registered topology appears under every flow control it
    declares — the VC rows pay ``n_vcs x`` the wormhole buffer budget at
    equal ``buffer_depth``, which is exactly the cost the VC router's
    ``buffer_capacity`` reports.

    ``workload`` names a canned accelerator model (see
    :data:`repro.accel.MODEL_NAMES`); one trace is generated for it —
    sized to fit ``nodes`` endpoints, shared verbatim by every row — and
    replayed on each row's fabric, filling ``makespan_cycles``. The
    replay always runs the dispatch backend (its endpoints are dispatch
    components); ``backend`` keeps steering only the structural build.
    """
    if nodes < 4:
        raise ConfigurationError("the comparison needs >= 4 endpoints")
    names = topology_names() if topologies is None else topologies
    trace = None
    if workload is not None:
        from repro.accel import generate_trace
        # The CP takes one node; memories and PEs split the rest, capped
        # at the canonical 4 PE + 2 mem system of the canned models.
        workload_mems = 2 if nodes >= 8 else 1
        workload_pes = max(1, min(4, nodes - 1 - workload_mems))
        trace = generate_trace(workload, pes=workload_pes,
                               mems=workload_mems, seed=workload_seed)
    rows = []
    for name in names:
        entry = get_topology(name)
        for flow_control in entry.flow_control:
            try:
                config = comparison_config(
                    name, flow_control, nodes=nodes, n_vcs=n_vcs,
                    buffer_depth=buffer_depth, concentration=concentration,
                    chip_mm=chip_mm, pipeline_depth=pipeline_depth,
                    segment_mm=segment_mm,
                    activity_driven=activity_driven,
                    backend=backend,
                )
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"cannot build the {name!r} comparison row at "
                    f"{nodes} endpoints: {error}"
                ) from error
            network = config.build()
            model = physical_model(network)
            frequency = model.frequency_ghz()
            makespan = None
            if trace is not None:
                from repro.accel import replay_trace_on_fabric
                makespan = replay_trace_on_fabric(
                    trace, replace(config, backend="dispatch"),
                ).makespan_cycles
            rows.append(PhysicalComparison(
                topology=name,
                flow_control=flow_control,
                clock_distribution=model.clock_distribution,
                endpoints=nodes,
                mean_hops=model.mean_hops(),
                worst_hops=model.worst_case_hops(),
                buffer_flits=model.buffer_flits(),
                area_mm2=model.area_report().total_mm2,
                energy_pj_per_flit=model.average_flit_energy_pj(),
                clock_mw=model.clock_power(frequency,
                                           sink_activity=1.0).total_mw,
                frequency_ghz=frequency,
                makespan_cycles=makespan,
            ))
    return rows


# -- Section 3: the tree against its mesh baseline ----------------------

#: Locality used for the clustered-traffic energy comparison (the paper's
#: application-mapping assumption).
DEFAULT_LOCALITY = 0.8


def sibling_leaf(topology, src: int) -> int:
    """The tree's clustered partner: the other leaf of the same 3x3
    router, one switch away."""
    return src ^ 1


def mesh_x_neighbour(topology, src: int) -> int:
    """The mesh's clustered partner: the adjacent node along x."""
    x, y = topology.coordinates(src)
    return topology.node_at(x + 1 if x + 1 < topology.cols else x - 1, y)


@dataclass(frozen=True)
class LocalityMix:
    """One fabric's mean flit energy at the two ends of the locality
    axis: all traffic uniform random, all traffic to the partner."""

    uniform_pj: float
    local_pj: float

    def at(self, locality: float) -> float:
        """Mean flit energy when a ``locality`` share of the traffic goes
        to the partner and the rest is uniform random."""
        if not 0.0 <= locality <= 1.0:
            raise ConfigurationError("locality must be in [0, 1]")
        return locality * self.local_pj + (1.0 - locality) * self.uniform_pj


def locality_mix(model: PhysicalModel,
                 partner: Callable[[object, int], int]) -> LocalityMix:
    """Walk ``model``'s pairs once: the uniform mean and the mean to each
    endpoint's ``partner(topology, src)`` — the mapping assumption that
    "cores which communicate a lot will be clustered"."""
    topology = model.network.topology
    srcs = range(model.endpoints)
    local = sum(model.flit_energies_pj(
        srcs, [partner(topology, src) for src in srcs])) / model.endpoints
    return LocalityMix(model.average_flit_energy_pj(), local)


def section3_mixes(tree: PhysicalModel, mesh: PhysicalModel,
                   ) -> tuple[LocalityMix, LocalityMix]:
    """Each Section 3 fabric under its own mapping assumption."""
    return (locality_mix(tree, sibling_leaf),
            locality_mix(mesh, mesh_x_neighbour))


def energy_crossover_locality(tree: LocalityMix, mesh: LocalityMix,
                              steps: int = 20) -> float | None:
    """Smallest locality at which the tree's mean flit energy beats the
    mesh's, or None if it never does within [0, 1]."""
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    for i in range(steps + 1):
        locality = i / steps
        if tree.at(locality) < mesh.at(locality):
            return locality
    return None


def section3_models(ports: int, chip_mm: float = 10.0,
                    buffer_depth: int = 4, tech: Technology = TECH_90NM,
                    ) -> tuple[PhysicalModel, PhysicalModel]:
    """The (binary tree, square mesh) descriptors Section 3 compares."""
    return tuple(
        physical_model(FabricConfig(
            topology=name, ports=ports, chip_width_mm=chip_mm,
            chip_height_mm=chip_mm, buffer_depth=buffer_depth, tech=tech,
        ).build())
        for name in ("tree", "mesh"))


@dataclass(frozen=True)
class TopologyComparison:
    """One N in the tree-vs-mesh sweep."""

    ports: int
    tree_worst_hops: int
    tree_paper_formula: int      # 2*log2(N) - 1
    mesh_worst_hops: int
    mesh_paper_formula: float    # 2*sqrt(N)
    tree_avg_hops: float
    mesh_avg_hops: float
    tree_routers: int
    mesh_routers: int
    tree_area_mm2: float
    mesh_area_mm2: float
    tree_energy_pj: float
    mesh_energy_pj: float
    tree_energy_local_pj: float
    mesh_energy_local_pj: float

    @property
    def tree_wins_hops(self) -> bool:
        return self.tree_worst_hops < self.mesh_worst_hops

    @property
    def tree_wins_area(self) -> bool:
        return self.tree_area_mm2 < self.mesh_area_mm2

    @property
    def tree_wins_energy_local(self) -> bool:
        """Energy under clustered traffic — the paper's mapping regime."""
        return self.tree_energy_local_pj < self.mesh_energy_local_pj


def compare_topologies(ports: int, chip_mm: float = 10.0,
                       buffer_depth: int = 4,
                       tech: Technology = TECH_90NM,
                       include_energy: bool = True) -> TopologyComparison:
    """Build the full comparison row for one port count.

    The hop columns are the built topologies' own closed forms, so a row
    without energy never walks a path.
    """
    tree, mesh = section3_models(ports, chip_mm, buffer_depth, tech)
    if include_energy:
        tree_mix, mesh_mix = section3_mixes(tree, mesh)
    else:
        tree_mix = mesh_mix = LocalityMix(math.nan, math.nan)
    return TopologyComparison(
        ports=ports,
        tree_worst_hops=tree.worst_case_hops(),
        tree_paper_formula=2 * int(math.log2(ports)) - 1,
        mesh_worst_hops=mesh.worst_case_hops(),
        mesh_paper_formula=2.0 * math.sqrt(ports),
        tree_avg_hops=tree.network.topology.average_hops_uniform(),
        mesh_avg_hops=mesh.network.topology.average_hops_uniform(),
        tree_routers=len(tree.router_port_counts()),
        mesh_routers=len(mesh.router_port_counts()),
        tree_area_mm2=tree.area_report().total_mm2,
        mesh_area_mm2=mesh.area_report().total_mm2,
        tree_energy_pj=tree_mix.uniform_pj,
        mesh_energy_pj=mesh_mix.uniform_pj,
        tree_energy_local_pj=tree_mix.at(DEFAULT_LOCALITY),
        mesh_energy_local_pj=mesh_mix.at(DEFAULT_LOCALITY),
    )


def tree_mesh_hop_table(port_counts: list[int] | None = None
                        ) -> list[TopologyComparison]:
    """Hop/router comparison across network sizes (no energy: fast)."""
    if port_counts is None:
        port_counts = [16, 64, 256, 1024]
    return [compare_topologies(n, include_energy=(n <= 256))
            for n in port_counts]


def tree_mesh_area_table(ports: int = 64,
                         chip_mm: float = 10.0) -> dict[str, float]:
    """Area split for the paper's demonstrator size."""
    row = compare_topologies(ports, chip_mm, include_energy=False)
    return {
        "tree_mm2": row.tree_area_mm2,
        "mesh_mm2": row.mesh_area_mm2,
        "tree_routers": row.tree_routers,
        "mesh_routers": row.mesh_routers,
        "ratio": row.mesh_area_mm2 / row.tree_area_mm2,
    }


def tree_mesh_energy_table(ports: int = 64,
                           chip_mm: float = 10.0) -> dict[str, float]:
    """Per-flit energy under uniform and clustered traffic + crossover."""
    tree, mesh = section3_mixes(*section3_models(ports, chip_mm))
    tree_local = tree.at(DEFAULT_LOCALITY)
    mesh_local = mesh.at(DEFAULT_LOCALITY)
    crossover = energy_crossover_locality(tree, mesh)
    return {
        "tree_uniform_pj": tree.uniform_pj,
        "mesh_uniform_pj": mesh.uniform_pj,
        "tree_local_pj": tree_local,
        "mesh_local_pj": mesh_local,
        "local_ratio": mesh_local / tree_local,
        "crossover_locality": -1.0 if crossover is None else crossover,
    }
