"""Spatial traffic patterns."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.traffic.base import TrafficGenerator

if TYPE_CHECKING:
    import numpy as np

#: Registered traffic patterns, by CLI-friendly name. ``transpose`` is
#: the classic adversarial permutation adaptive routing is judged on;
#: ``hotspot`` takes its placement/intensity from the spec's
#: ``hotspots``/``hotspot_fraction`` knobs
#: (:class:`~repro.analysis.parallel.LoadPoint`).
PATTERN_NAMES = ("uniform", "neighbour", "hotspot", "transpose")


class UniformRandom(TrafficGenerator):
    """Every other port equally likely — the classic baseline pattern."""

    def pick_destination(self, src: int, rng: np.random.Generator) -> int:
        dest = int(rng.integers(0, self.ports - 1))
        return dest if dest < src else dest + 1


class NeighbourTraffic(TrafficGenerator):
    """Locality-weighted traffic: mostly talk to your sibling.

    With probability ``locality`` the destination is the sibling leaf
    (src XOR 1 in the binary-tree numbering — one 3x3 router away, the
    favourable case of the paper's Section 3 mapping argument); otherwise
    uniform random. This models "with proper application mapping, cores
    which communicate a lot will be clustered".
    """

    def __init__(self, ports: int, load: float, size_flits: int = 1,
                 locality: float = 0.8):
        super().__init__(ports, load, size_flits)
        if not 0.0 <= locality <= 1.0:
            raise ConfigurationError("locality must be in [0, 1]")
        self.locality = locality

    def pick_destination(self, src: int, rng: np.random.Generator) -> int:
        if rng.random() < self.locality:
            return src ^ 1
        dest = int(rng.integers(0, self.ports - 1))
        return dest if dest < src else dest + 1


class HotspotTraffic(TrafficGenerator):
    """A fraction of all traffic heads to a few hotspot ports."""

    def __init__(self, ports: int, load: float, size_flits: int = 1,
                 hotspots: tuple[int, ...] = (0,), fraction: float = 0.3):
        super().__init__(ports, load, size_flits)
        if not hotspots:
            raise ConfigurationError("need at least one hotspot")
        for h in hotspots:
            if not 0 <= h < ports:
                raise ConfigurationError(f"hotspot {h} out of range")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]")
        self.hotspots = hotspots
        self.fraction = fraction

    def pick_destination(self, src: int, rng: np.random.Generator) -> int:
        if rng.random() < self.fraction:
            candidates = [h for h in self.hotspots if h != src]
            if candidates:
                return candidates[int(rng.integers(0, len(candidates)))]
        dest = int(rng.integers(0, self.ports - 1))
        return dest if dest < src else dest + 1


def bit_complement(src: int, ports: int) -> int:
    """dest = ~src over log2(ports) bits."""
    return (ports - 1) ^ src


def bit_reverse(src: int, ports: int) -> int:
    """dest = bit-reversed src over log2(ports) bits."""
    bits = (ports - 1).bit_length()
    out = 0
    for i in range(bits):
        if src & (1 << i):
            out |= 1 << (bits - 1 - i)
    return out


def transpose(src: int, ports: int) -> int:
    """dest = src with upper/lower halves of the address swapped."""
    bits = (ports - 1).bit_length()
    half = bits // 2
    low = src & ((1 << half) - 1)
    high = src >> half
    return (low << (bits - half)) | high


class PermutationTraffic(TrafficGenerator):
    """A fixed address permutation (bit-complement/reverse/transpose).

    Ports mapped to themselves by the permutation simply stay silent.
    """

    PERMUTATIONS = {
        "bit_complement": bit_complement,
        "bit_reverse": bit_reverse,
        "transpose": transpose,
    }

    def __init__(self, ports: int, load: float, size_flits: int = 1,
                 permutation: str = "bit_complement"):
        super().__init__(ports, load, size_flits)
        if ports & (ports - 1):
            raise ConfigurationError("permutations need power-of-two ports")
        if permutation not in self.PERMUTATIONS:
            raise ConfigurationError(f"unknown permutation {permutation!r}")
        self.permutation = permutation
        self._mapping = self.PERMUTATIONS[permutation]

    def injection_probability(self, src: int, cycle: int) -> float:
        if self._mapping(src, self.ports) == src:
            return 0.0
        return super().injection_probability(src, cycle)

    def pick_destination(self, src: int, rng: np.random.Generator) -> int:
        return self._mapping(src, self.ports)
