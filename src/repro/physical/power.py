"""Energy primitives the physical descriptors price paths with.

The paper cites Lee [12]: "even with no link power reduction methods ... a
tree is a power-wise better choice than a mesh for a 0.18 um CMOS
technology". We model flit energy as::

    E(path) = sum over routers (area-proportional switch energy)
            + per-hop input-buffer energy (mesh only; the IC-NoC has none)
            + sum over links (wire capacitance switching energy)

Under *uniform random* traffic the tree's physically longer H-tree paths
cost wire energy that partly offsets its cheaper, fewer-port routers; the
tree's energy win materialises with traffic locality — exactly the paper's
Section 3 argument that "with proper application mapping, cores which
communicate a lot will be clustered". The record's EXP-TM
(:mod:`repro.analysis.experiments`) holds the crossover inside
(0, 0.8] of locality; the tree's *static* advantages (half the
router area -> leakage, no buffers, cheaper clock network) hold regardless
and are covered by the area and clock-power models.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tech.technology import Technology, TECH_90NM
from repro.units import energy_pj

#: Switching energy density of router logic, pJ per mm^2 of router area per
#: flit traversal. 45 pJ/mm^2 puts a 5-port 32-bit router at ~1 pJ/flit and
#: a 3-port one at ~0.45 pJ/flit, the scale of published 90 nm router
#: energy models. Synthetic (see module docstring).
ROUTER_ENERGY_DENSITY_PJ_PER_MM2 = 45.0

#: FIFO write+read energy per flit per buffered hop — paid by the mesh's
#: input-buffered routers, avoided by the IC-NoC's bufferless flow control.
BUFFER_ENERGY_PJ_PER_FLIT = 0.35

#: Toggle probability of a random data bit between consecutive flits.
DATA_ACTIVITY = 0.5


def link_energy_pj_per_flit(length_mm: float, tech: Technology = TECH_90NM,
                            bits: int | None = None) -> float:
    """Energy to move one flit across a wire of ``length_mm``."""
    if length_mm < 0.0:
        raise ConfigurationError("length must be >= 0")
    if bits is None:
        bits = tech.datapath_bits
    cap_per_bit = tech.wire.capacitance(length_mm)
    return DATA_ACTIVITY * bits * energy_pj(cap_per_bit, tech.supply_v)


def router_energy_pj_per_flit(ports: int,
                              tech: Technology = TECH_90NM) -> float:
    """Energy for one flit to traverse a k-port router."""
    return tech.router_area_mm2(ports) * ROUTER_ENERGY_DENSITY_PJ_PER_MM2
