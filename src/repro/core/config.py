"""User-facing configuration for the ICNoC facade."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.technology import Technology, TECH_90NM


@dataclass(frozen=True)
class ICNoCConfig:
    """Everything needed to instantiate an IC-NoC.

    Mirrors the paper's demonstrator by default: 64 ports, binary tree,
    10 mm x 10 mm chip, 1.25 mm maximum pipeline segments, 90 nm technology.
    """

    ports: int = 64
    topology: str = "binary"  # "binary"/"tree" (3x3 routers) or "quad" (5x5)
    chip_width_mm: float = 10.0
    chip_height_mm: float = 10.0
    max_segment_mm: float = 1.25
    tech: Technology = TECH_90NM
    arbiter_policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.topology not in ("binary", "quad", "tree"):
            raise ConfigurationError(
                f"topology must be 'binary', 'tree' (its registry alias) "
                f"or 'quad', got {self.topology!r}"
            )

    @property
    def arity(self) -> int:
        return 4 if self.topology == "quad" else 2

    def fabric_config(self, activity_driven: bool = True):
        """The registry spec (:mod:`repro.fabric.registry`) this facade
        builds its tree from — and the one sweep specs derived from an
        :class:`ICNoCConfig` carry. ``arbiter_policy`` is not part of
        it: it is an :class:`~repro.noc.network.ICNoCNetwork` keyword."""
        from repro.fabric.registry import FabricConfig
        return FabricConfig(
            topology="tree", ports=self.ports, arity=self.arity,
            chip_width_mm=self.chip_width_mm,
            chip_height_mm=self.chip_height_mm,
            max_segment_mm=self.max_segment_mm,
            tech=self.tech,
            activity_driven=activity_driven,
        )
