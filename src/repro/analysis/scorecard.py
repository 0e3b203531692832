"""The reproduction scorecard: every fast paper-vs-measured row, one call.

``build_scorecard()`` recomputes the analytical/model-level quantities of
EXPERIMENTS.md (everything that does not need a long simulation) and
returns an :class:`~repro.analysis.experiments.ExperimentLog`. Used by the
``reproduce_paper`` example, and by a test asserting that the shipped
library still matches the paper after any change.
"""

from __future__ import annotations

from repro.analysis.experiments import ExperimentLog
from repro.core.config import ICNoCConfig
from repro.core.icnoc import ICNoC
from repro.fabric.topologies import MeshTopology
from repro.noc.topology import TreeTopology
from repro.tech.flipflop import FF_90NM
from repro.tech.technology import TECH_90NM
from repro.timing.frequency import (
    max_segment_length,
    pipeline_max_frequency,
    router_max_frequency,
)
from repro.timing.link_timing import downstream_window, upstream_window


def build_scorecard() -> ExperimentLog:
    """Recompute all model-level paper numbers."""
    log = ExperimentLog()

    # Section 4 — equations.
    d_low, d_high = downstream_window(FF_90NM, 500.0)
    _, u_high = upstream_window(FF_90NM, 500.0)
    log.add("EXP-EQ4", "eq.(4) lower bound @1GHz (ps)", -540.0, d_low,
            tolerance=1e-9)
    log.add("EXP-EQ4", "eq.(4) upper bound @1GHz (ps)", 380.0, d_high,
            tolerance=1e-9)
    log.add("EXP-EQ7", "eq.(7) bound @1GHz (ps)", 380.0, u_high,
            tolerance=1e-9)
    log.add("EXP-EQ7", "190 ps wire (mm, paper: 1.5-2)", 1.75,
            TECH_90NM.buffered_wire.length_for_delay(190.0),
            tolerance=0.15)

    # Section 6 — Fig. 7 and the router table.
    log.add("EXP-F7", "pipeline @0 mm (GHz)", 1.8,
            pipeline_max_frequency(0.0), tolerance=0.01)
    log.add("EXP-F7", "pipeline @0.6 mm (GHz)", 1.4,
            pipeline_max_frequency(0.6), tolerance=0.01)
    log.add("EXP-F7", "pipeline @0.9 mm (GHz)", 1.2,
            pipeline_max_frequency(0.9), tolerance=0.01)
    log.add("EXP-F7", "pipeline @1.25 mm (GHz, predicted)", 1.0,
            pipeline_max_frequency(1.25), tolerance=0.01)
    log.add("EXP-RT", "flow-control logic (ps)", 220.0,
            TECH_90NM.pipeline_logic_ps, tolerance=1e-9)
    log.add("EXP-RT", "3x3 speed (GHz)", 1.4, router_max_frequency(3),
            tolerance=0.001)
    log.add("EXP-RT", "5x5 speed (GHz)", 1.2, router_max_frequency(5),
            tolerance=0.001)
    log.add("EXP-RT", "3x3 area (mm^2)", 0.010,
            TECH_90NM.router_area_mm2(3), tolerance=0.001)
    log.add("EXP-RT", "5x5 area (mm^2)", 0.022,
            TECH_90NM.router_area_mm2(5), tolerance=0.001)
    log.add("EXP-RT", "stage area (mm^2)", 0.0015,
            TECH_90NM.stage_area_mm2(), tolerance=1e-9)
    log.add("EXP-RT", "segment for 3x3 (mm)", 0.6,
            max_segment_length(1.4), tolerance=0.001)
    log.add("EXP-RT", "segment for 5x5 (mm)", 0.9,
            max_segment_length(1.2), tolerance=0.001)

    # Section 3 — hops and router counts.
    tree = TreeTopology(64, arity=2)
    mesh = MeshTopology(8, 8)
    log.add("EXP-TM", "tree worst hops (2log2(64)-1)", 11,
            tree.worst_case_hops(), tolerance=1e-9)
    log.add("EXP-TM", "mesh worst hops (~2sqrt64)", 16,
            mesh.worst_case_hops(), tolerance=0.10)
    log.add("EXP-TM", "tree routers (N-1)", 63, tree.router_count,
            tolerance=1e-9)
    log.add("EXP-TM", "sibling hop count", 1, tree.hop_count(0, 1),
            tolerance=1e-9)

    # Section 6 — the demonstrator (built, not simulated).
    demo = ICNoC(ICNoCConfig())
    area = demo.area_report()
    log.add("EXP-DM", "operating frequency (GHz)", 1.0,
            demo.operating_frequency_ghz(), tolerance=0.01)
    log.add("EXP-DM", "NoC area (mm^2)", 0.73, area.total_mm2,
            tolerance=0.03)
    log.add("EXP-DM", "chip fraction", 0.0073, area.chip_fraction,
            tolerance=0.03)
    log.add("EXP-DM", "timing checks pass @1GHz", 1.0,
            float(demo.validate_timing(frequency=1.0).passed),
            tolerance=1e-9)
    return log


def render_scorecard() -> str:
    """The scorecard as a printable table."""
    return build_scorecard().render(
        title="IC-NoC reproduction scorecard (paper vs measured)"
    )
