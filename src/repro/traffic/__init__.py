"""Traffic generation: synthetic workloads for the evaluation.

Generators produce :class:`Injection` events (cycle, src, dest, size) ahead
of simulation, from an explicit numpy ``Generator`` so every run is
reproducible. Patterns cover the paper's motivation: uniform random,
locality-exploiting neighbour traffic (the application-mapping argument of
Section 3), hotspots, permutations, and the bursty on-off traffic that
drives the clock-gating claim of Section 5.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.traffic.base": ("Injection", "TrafficGenerator", "apply_traffic"),
    "repro.traffic.patterns": (
        "UniformRandom", "NeighbourTraffic", "HotspotTraffic",
        "PermutationTraffic", "transpose",
    ),
    "repro.traffic.bursty": ("BurstyTraffic",),
    "repro.traffic.trace": ("replay_trace",),
})
