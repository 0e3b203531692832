"""Network statistics: latency, throughput, gating."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.clocking.gating import GatingStats
from repro.noc.packet import Packet


@dataclass
class LatencySummary:
    """Latency distribution in clock cycles."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float
    minimum: float

    @staticmethod
    def from_cycles(latencies: list[float]) -> "LatencySummary":
        """Summarise samples: the mean is ``sum / n`` and the percentiles
        follow numpy's default ``linear`` rule, so on the half-cycle
        samples every run records each field equals numpy's exactly."""
        if not latencies:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(map(float, latencies))
        return LatencySummary(
            count=len(ordered),
            mean=sum(latencies) / len(latencies),
            p50=_percentile(ordered, 50),
            p95=_percentile(ordered, 95),
            p99=_percentile(ordered, 99),
            maximum=ordered[-1],
            minimum=ordered[0],
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping; round-trips through :meth:`from_dict`."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "LatencySummary":
        return LatencySummary(**data)

    def describe(self) -> str:
        return (f"n={self.count} mean={self.mean:.2f} p50={self.p50:.2f} "
                f"p95={self.p95:.2f} p99={self.p99:.2f} "
                f"max={self.maximum:.2f} cycles")


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile(ordered, q)`` (method ``linear``) of sorted
    samples: interpolate at ``(n - 1) * q / 100``, from the upper end
    when the fraction is at least a half, as numpy does."""
    last = len(ordered) - 1
    position = last * (q / 100)
    lo = int(position)  # floor: position >= 0
    a, b = ordered[lo], ordered[min(lo + 1, last)]
    gamma = position - lo
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


@dataclass
class NetworkStats:
    """Aggregated results of one simulation run."""

    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    elapsed_ticks: int = 0
    latencies_cycles: list[float] = field(default_factory=list)
    hop_counts: list[int] = field(default_factory=list)
    gating: GatingStats = field(default_factory=GatingStats)

    def record_delivery(self, packet: Packet, hops: int) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.flit_count
        self.latencies_cycles.append(packet.latency_cycles)
        self.hop_counts.append(hops)

    @property
    def elapsed_cycles(self) -> float:
        return self.elapsed_ticks / 2.0

    @property
    def latency(self) -> LatencySummary:
        return LatencySummary.from_cycles(self.latencies_cycles)

    @property
    def throughput_flits_per_cycle(self) -> float:
        """Network-wide accepted throughput."""
        if self.elapsed_ticks == 0:
            return 0.0
        return self.flits_delivered / self.elapsed_cycles

    @property
    def mean_hops(self) -> float:
        if not self.hop_counts:
            return 0.0
        return sum(self.hop_counts) / len(self.hop_counts)

    def describe(self) -> str:
        return (
            f"{self.packets_delivered}/{self.packets_injected} packets, "
            f"{self.throughput_flits_per_cycle:.3f} flits/cycle, "
            f"latency {self.latency.describe()}, "
            f"gating {self.gating.gating_ratio:.1%}"
        )
