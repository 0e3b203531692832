"""Traffic generation: synthetic workloads for the evaluation.

Generators produce :class:`Injection` events (cycle, src, dest, size) ahead
of simulation, from an explicit numpy ``Generator`` so every run is
reproducible. Patterns cover the paper's motivation: uniform random,
locality-exploiting neighbour traffic (the application-mapping argument of
Section 3), hotspots, permutations, and the bursty on-off traffic that
drives the clock-gating claim of Section 5.
"""

from repro.traffic.base import Injection, TrafficGenerator, apply_traffic
from repro.traffic.patterns import (
    UniformRandom,
    NeighbourTraffic,
    HotspotTraffic,
    PermutationTraffic,
    transpose,
)
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.trace import replay_trace

__all__ = [
    "Injection",
    "TrafficGenerator",
    "apply_traffic",
    "UniformRandom",
    "NeighbourTraffic",
    "HotspotTraffic",
    "PermutationTraffic",
    "transpose",
    "BurstyTraffic",
    "replay_trace",
]
