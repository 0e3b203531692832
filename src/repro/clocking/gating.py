"""Clock-gating statistics.

"Fine-grained clock gating is an inherent characteristic of the flow control
method" (paper Section 5): a pipeline register's enable is derived from the
valid/accept control, so whenever a stage neither latches new data nor
retires old data its register bank simply is not clocked. Each simulated
stage counts its edges; this module aggregates the counts into the gating
ratio the clock-power model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GatingStats"]


@dataclass
class GatingStats:
    """Counts of clock edges seen vs edges actually enabled."""

    edges_total: int = 0
    edges_enabled: int = 0

    def record(self, enabled: bool) -> None:
        self.edges_total += 1
        if enabled:
            self.edges_enabled += 1

    def merge(self, other: "GatingStats") -> None:
        self.edges_total += other.edges_total
        self.edges_enabled += other.edges_enabled

    @property
    def edges_gated(self) -> int:
        return self.edges_total - self.edges_enabled

    @property
    def activity(self) -> float:
        """Fraction of edges where the register bank toggled (0 if no edges)."""
        if self.edges_total == 0:
            return 0.0
        return self.edges_enabled / self.edges_total

    @property
    def gating_ratio(self) -> float:
        """Fraction of register-clock energy saved by gating."""
        if self.edges_total == 0:
            return 0.0
        return 1.0 - self.activity

    def __add__(self, other: "GatingStats") -> "GatingStats":
        return GatingStats(
            edges_total=self.edges_total + other.edges_total,
            edges_enabled=self.edges_enabled + other.edges_enabled,
        )
