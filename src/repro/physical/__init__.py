"""Physical accounting: area, energy/power, clock power, peak current.

The per-fabric entry points (:func:`area_report`,
:func:`average_flit_energy_pj`, :class:`RunEnergyReport`,
:func:`physical_comparison_rows`) dispatch through the topology
registry's physical descriptors (:mod:`repro.physical.descriptor`), so
they accept any registered fabric; the tree/mesh-specific functions are
the structural models those descriptors are built from.
"""

from repro.physical.area import (
    AreaReport,
    area_report,
    tree_noc_area,
    mesh_noc_area,
    BUFFER_SLOT_AREA_MM2,
)
from repro.physical.comparison import (
    PhysicalComparison,
    comparison_config,
    physical_comparison_rows,
)
from repro.physical.descriptor import (
    PathProfile,
    PhysicalModel,
    physical_model,
)
from repro.physical.power import (
    link_energy_pj_per_flit,
    router_energy_pj_per_flit,
    path_energy_pj,
    flit_energy_pj,
    average_flit_energy_pj,
    average_flit_energy_tree_pj,
    average_flit_energy_mesh_pj,
    average_flit_energy_tree_local_pj,
    average_flit_energy_mesh_local_pj,
    energy_crossover_locality,
)
from repro.physical.report import (
    RunEnergyReport,
    run_energy_report,
)
from repro.physical.peak_current import (
    current_profile,
    peak_current,
    peak_current_ratio,
    spread_arrivals,
)

__all__ = [
    "AreaReport",
    "area_report",
    "tree_noc_area",
    "mesh_noc_area",
    "BUFFER_SLOT_AREA_MM2",
    "PhysicalComparison",
    "comparison_config",
    "physical_comparison_rows",
    "PathProfile",
    "PhysicalModel",
    "physical_model",
    "link_energy_pj_per_flit",
    "router_energy_pj_per_flit",
    "path_energy_pj",
    "flit_energy_pj",
    "average_flit_energy_pj",
    "average_flit_energy_tree_pj",
    "average_flit_energy_mesh_pj",
    "average_flit_energy_tree_local_pj",
    "average_flit_energy_mesh_local_pj",
    "energy_crossover_locality",
    "RunEnergyReport",
    "run_energy_report",
    "current_profile",
    "peak_current",
    "peak_current_ratio",
    "spread_arrivals",
]
