"""Area accounting.

The paper's model (Section 6): with a tree topology the area scales
linearly with the number of network ports::

    Area_total = (N - 1) * Area_router + Area_pipelines

For the demonstrator (64 ports, 3x3 routers at 0.010 mm^2, pipeline stages
at 0.0015 mm^2) this comes to 0.73 mm^2, i.e. 0.73 % of the 10 mm x 10 mm
chip. Our stage count is one NI stage per port plus the mid-link repeater
stages the segmentation inserts (the paper does not publish the split, so
the EXP-DM rows of :mod:`repro.analysis.experiments` hold our accounting
to the paper's total within 3 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Area of one 32-bit FIFO slot in a mesh router's input buffer. A slot is
#: a register bank without the handshake control of a full pipeline stage,
#: so it is modelled slightly below the paper's 0.0015 mm^2 stage.
BUFFER_SLOT_AREA_MM2 = 0.0010


@dataclass(frozen=True)
class AreaReport:
    """Breakdown of a network's silicon area."""

    router_mm2: float
    pipeline_mm2: float
    buffer_mm2: float
    chip_mm2: float

    @property
    def total_mm2(self) -> float:
        return self.router_mm2 + self.pipeline_mm2 + self.buffer_mm2

    @property
    def chip_fraction(self) -> float:
        if self.chip_mm2 <= 0.0:
            raise ConfigurationError("chip area must be positive")
        return self.total_mm2 / self.chip_mm2

    def describe(self) -> str:
        return (
            f"routers {self.router_mm2:.3f} + pipelines "
            f"{self.pipeline_mm2:.3f} + buffers {self.buffer_mm2:.3f} "
            f"= {self.total_mm2:.3f} mm^2 "
            f"({self.chip_fraction:.2%} of {self.chip_mm2:.0f} mm^2)"
        )
