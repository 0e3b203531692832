"""Physical accounting: area, energy/power, clock power, peak current.

Every number comes from one place: ``physical_model(network)`` resolves
a built fabric's registered descriptor
(:mod:`repro.physical.descriptor`), whose ``area_report()`` /
``flit_energy_pj()`` / ``average_flit_energy_pj()`` / ``clock_power()``
price it; :class:`RunEnergyReport` prices a finished run with the same
descriptor, and :mod:`repro.physical.comparison` builds the all-fabrics
table as a query over it (the paper's Section 3 tree-vs-mesh argument is
the record's EXP-TM, :mod:`repro.analysis.experiments`, over the same
descriptors).
``area`` and ``power`` hold only the primitives the descriptors price
with.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.physical.area": ("AreaReport", "BUFFER_SLOT_AREA_MM2"),
    "repro.physical.comparison": (
        "PhysicalComparison", "comparison_config", "physical_comparison_rows",
    ),
    "repro.physical.descriptor": (
        "PathProfile", "PhysicalModel", "physical_model",
    ),
    "repro.physical.power": (
        "link_energy_pj_per_flit", "router_energy_pj_per_flit",
    ),
    "repro.physical.report": ("RunEnergyReport",),
    "repro.physical.peak_current": (
        "peak_current", "peak_current_ratio", "spread_arrivals",
    ),
})
