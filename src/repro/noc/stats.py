"""Network statistics: latency, throughput, gating."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.clocking.gating import GatingStats

if TYPE_CHECKING:
    from repro.noc.base import Network


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


class NetworkStats:
    """Aggregated results of one simulation run.

    It keeps only what the network records nowhere else: the packets
    ``send`` accepted, the elapsed ticks and the gating counters. Every
    delivery figure is read off the network's one delivery record,
    ``network.delivered`` (in delivery order), when asked for.
    """

    def __init__(self, network: "Network"):
        self.network = network
        self.packets_injected = 0
        self.elapsed_ticks = 0
        self.gating = GatingStats()

    @property
    def packets_delivered(self) -> int:
        return len(self.network.delivered)

    @property
    def flits_delivered(self) -> int:
        return sum(packet.flit_count for packet in self.network.delivered)

    @property
    def latencies_cycles(self) -> list[float]:
        """Each delivered packet's latency, in delivery order."""
        return [packet.latency_cycles for packet in self.network.delivered]

    @property
    def hop_counts(self) -> list[int]:
        """Routers each delivered packet crossed, in delivery order: one
        route walk (:meth:`~repro.noc.base.Network.walk`) over the
        delivered pairs, counting the router the source attaches to."""
        import numpy as np
        pairs = np.array([(packet.src, packet.dest)
                          for packet in self.network.delivered],
                         dtype=np.int64).reshape(-1, 2)
        hops = np.ones(len(pairs), dtype=np.int64)
        for idx, *_ in self.network.walk(pairs[:, 0], pairs[:, 1]):
            hops[idx] += 1
        return hops.tolist()

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
        hops = self.hop_counts
        if not hops:
            return 0.0
        return sum(hops) / len(hops)

    def describe(self) -> str:
        return (
            f"{self.packets_delivered}/{self.packets_injected} packets, "
            f"{self.throughput_flits_per_cycle:.3f} flits/cycle, "
            f"latency {self.latency.describe()}, "
            f"gating {self.gating.gating_ratio:.1%}"
        )
