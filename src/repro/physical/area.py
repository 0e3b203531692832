"""Area accounting.

The paper's model (Section 6): with a tree topology the area scales
linearly with the number of network ports::

    Area_total = (N - 1) * Area_router + Area_pipelines

For the demonstrator (64 ports, 3x3 routers at 0.010 mm^2, pipeline stages
at 0.0015 mm^2) this comes to 0.73 mm^2, i.e. 0.73 % of the 10 mm x 10 mm
chip. Our stage count is one NI stage per port plus the mid-link repeater
stages the segmentation inserts (the paper does not publish the split, so
EXPERIMENTS.md reports our accounting next to the paper's total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.noc.topology import TreeTopology
from repro.tech.technology import Technology, TECH_90NM

if TYPE_CHECKING:  # avoid a package cycle with repro.mesh.comparison
    from repro.mesh.topology import MeshTopology

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


def tree_noc_area(topology: TreeTopology, pipeline_stages: int,
                  chip_mm2: float = 100.0,
                  tech: Technology = TECH_90NM) -> AreaReport:
    """Area of a tree NoC: (N-1) routers + pipeline stages, no buffers."""
    if pipeline_stages < 0:
        raise ConfigurationError("pipeline_stages must be >= 0")
    router_mm2 = topology.router_count * tech.router_area_mm2(
        topology.router_ports
    )
    pipeline_mm2 = pipeline_stages * tech.stage_area_mm2()
    return AreaReport(router_mm2=router_mm2, pipeline_mm2=pipeline_mm2,
                      buffer_mm2=0.0, chip_mm2=chip_mm2)


def area_report(network) -> AreaReport:
    """Area of any built registry fabric, via its physical descriptor.

    Routers are priced per in-use port count, buffers per FIFO flit
    (``router.buffer_capacity`` — a VC build pays ``n_vcs x`` the
    wormhole budget), pipeline stages and concentrator muxes where the
    fabric has them. For the plain tree this reproduces
    :func:`tree_noc_area` exactly.
    """
    from repro.physical.descriptor import physical_model
    return physical_model(network).area_report()


def mesh_noc_area(topology: "MeshTopology", buffer_depth: int = 4,
                  chip_mm2: float = 100.0,
                  tech: Technology = TECH_90NM) -> AreaReport:
    """Area of the baseline mesh: N routers plus their input FIFOs.

    Edge routers have fewer ports; each in-use input port carries a FIFO of
    ``buffer_depth`` 32-bit slots — the stall buffers the IC-NoC's flow
    control does without.
    """
    if buffer_depth < 0:
        raise ConfigurationError("buffer_depth must be >= 0")
    router_mm2 = 0.0
    buffer_mm2 = 0.0
    for node in range(topology.nodes):
        ports = topology.router_ports(node)
        router_mm2 += tech.router_area_mm2(ports)
        buffer_mm2 += ports * buffer_depth * BUFFER_SLOT_AREA_MM2
    return AreaReport(router_mm2=router_mm2, pipeline_mm2=0.0,
                      buffer_mm2=buffer_mm2, chip_mm2=chip_mm2)
