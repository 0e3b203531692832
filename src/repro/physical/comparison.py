"""The paper-style physical comparison of every registered fabric, as a
query over the registered descriptors.

Section 6 of the paper compares the IC-NoC against its baseline on hops,
buffers, area, energy and clock power. The registry makes five fabrics
runnable under two flow controls; this module builds the full table from
each fabric's physical descriptor, ``physical_model(FabricConfig(...)
.build())`` — one row per (topology, flow control) pairing, all
structural (no traffic is simulated, so clock power is the un-gated worst
case with every sink at activity 1). Section 3's tree-vs-mesh argument
is the record's EXP-TM (:mod:`repro.analysis.experiments`), priced by
the same descriptors.

A ``workload`` adds the one simulated column: the same canned
accelerator trace (:mod:`repro.accel`) replays on every row's fabric and
reports its makespan — real traffic on otherwise like-for-like rows.

``python -m repro.cli compare --nodes 16`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.fabric.registry import (
    FLOW_VC,
    FabricConfig,
    get_topology,
    topology_names,
)
from repro.physical.descriptor import physical_model


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

