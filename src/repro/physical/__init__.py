"""Physical accounting: area, energy/power, clock power, peak current.

Every number comes from one place: ``physical_model(network)`` resolves
a built fabric's registered descriptor
(:mod:`repro.physical.descriptor`), whose ``area_report()`` /
``flit_energy_pj()`` / ``average_flit_energy_pj()`` / ``clock_power()``
price it; :class:`RunEnergyReport` prices a finished run with the same
descriptor, and :mod:`repro.physical.comparison` builds the all-fabrics
table and the paper's Section 3 tree-vs-mesh tables
(``compare_topologies``, ``tree_mesh_*_table``) as queries over it.
``area`` and ``power`` hold only the primitives the descriptors price
with.
"""

from repro.physical.area import (
    AreaReport,
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
)
from repro.physical.report import RunEnergyReport
from repro.physical.peak_current import (
    peak_current,
    peak_current_ratio,
    spread_arrivals,
)

__all__ = [
    "AreaReport",
    "BUFFER_SLOT_AREA_MM2",
    "PhysicalComparison",
    "comparison_config",
    "physical_comparison_rows",
    "PathProfile",
    "PhysicalModel",
    "physical_model",
    "link_energy_pj_per_flit",
    "router_energy_pj_per_flit",
    "RunEnergyReport",
    "peak_current",
    "peak_current_ratio",
    "spread_arrivals",
]
