"""Additional demonstrator workloads beyond the closed-loop memory traffic.

:class:`StreamingWorkload` models the multimedia-style processing chains
that motivated early NoCs: data flows through a pipeline of tiles
(producer -> stage -> ... -> consumer), each hop a DMA-like burst. With
the chain mapped onto *adjacent* tiles, traffic is sibling/local — the
mapping regime the paper's Section 3 assumes — and the experiment
quantifies what mapping is worth by comparing against a scattered
placement of the same chain.

:class:`BurstySystem` models the other canonical system shape: tiles
alternating long *compute phases* (no traffic at all) with short *DMA
storms* (every tile bursts writes to a partner's memory at once). Each
tile is a :class:`DmaStormDriver` clocked component honouring the idle
contract — during a compute phase the entire system is quiescent and the
activity-driven kernel fast-forwards straight to the next storm via an
exact-tick timer. This is the demonstrator-style stress case of the fast
path: ``tests/integration/test_fast_path_contract.py`` pins its ``bursty``
row at 405 executed steps of 2448 ticks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.noc.base import Network
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.stats import LatencySummary, NetworkStats
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.system.tile import mem_leaf, proc_leaf


@dataclass(frozen=True)
class StreamingConfig:
    """A chain workload.

    Attributes:
        tiles: tile count of the system (2*tiles leaves).
        chain: tile indices forming the processing pipeline, in order.
        burst_flits: flits per transfer between consecutive stages.
        bursts: number of bursts pushed through the chain.
        interval_cycles: cycles between source bursts.
    """

    tiles: int = 32
    chain: tuple[int, ...] = (0, 1, 2, 3)
    burst_flits: int = 8
    bursts: int = 20
    interval_cycles: int = 10

    def __post_init__(self) -> None:
        if len(self.chain) < 2:
            raise ConfigurationError("chain needs >= 2 stages")
        if len(set(self.chain)) != len(self.chain):
            raise ConfigurationError("chain tiles must be distinct")
        for tile in self.chain:
            if not 0 <= tile < self.tiles:
                raise ConfigurationError(f"tile {tile} out of range")
        if self.burst_flits < 1 or self.bursts < 1:
            raise ConfigurationError("bursts must be positive")
        if self.interval_cycles < 1:
            raise ConfigurationError("interval must be >= 1 cycle")


@dataclass
class StreamingResults:
    """Outcome of one streaming run."""

    bursts_completed: int
    chain_latency: LatencySummary  # source-inject to final-stage arrival
    per_hop_latency: LatencySummary
    cycles_run: float
    gating_ratio: float

    def describe(self) -> str:
        return (
            f"{self.bursts_completed} bursts through the chain; "
            f"end-to-end {self.chain_latency.mean:.1f} cy mean "
            f"({self.chain_latency.p95:.1f} p95); per hop "
            f"{self.per_hop_latency.mean:.1f} cy; gating "
            f"{self.gating_ratio:.1%}"
        )


class StreamingWorkload:
    """Drives a burst chain across the demonstrator's network.

    Each tile's processor leaf forwards every burst it receives to the
    next stage in the chain; the network's delivery callbacks do the
    forwarding, so chain progress is entirely event-driven.
    """

    def __init__(self, config: StreamingConfig = StreamingConfig()):
        self.config = config
        self.network = FabricConfig(ports=2 * config.tiles, arity=2,
                                    allocator="local_priority").build()
        self._next_stage: dict[int, int] = {}
        chain_leaves = [proc_leaf(t) for t in config.chain]
        for here, there in zip(chain_leaves, chain_leaves[1:]):
            self._next_stage[here] = there
        self._final_leaf = chain_leaves[-1]
        self._birth: dict[int, int] = {}   # burst tag -> inject tick
        self._chain: list[float] = []
        self.bursts_completed = 0
        for leaf in chain_leaves:
            self.network.set_handler(leaf, self._on_packet)

    def _payload(self, tag: int) -> list[int]:
        return [tag] + [0] * (self.config.burst_flits - 1)

    def _on_packet(self, packet: Packet, tick: int) -> None:
        tag = packet.payload[0]
        if packet.dest == self._final_leaf:
            self.bursts_completed += 1
            self._chain.append((tick - self._birth[tag]) / 2.0)
            return
        forward = Packet(src=packet.dest,
                         dest=self._next_stage[packet.dest],
                         payload=self._payload(tag))
        self.network.send(forward)

    def run(self) -> StreamingResults:
        config = self.config
        source = proc_leaf(config.chain[0])
        first_hop = self._next_stage[source]
        for burst in range(config.bursts):
            packet = Packet(src=source, dest=first_hop,
                            payload=self._payload(burst))
            self._birth[burst] = self.network.kernel.tick
            self.network.send(packet)
            self.network.run_cycles(config.interval_cycles)
        self.network.kernel.run_until(
            lambda: self.bursts_completed >= config.bursts,
            max_ticks=500_000,
        )
        self.network.stats.elapsed_ticks = self.network.kernel.tick
        return StreamingResults(
            bursts_completed=self.bursts_completed,
            chain_latency=LatencySummary.from_cycles(self._chain),
            # Every delivered packet is one hop of a chain.
            per_hop_latency=self.network.stats.latency,
            cycles_run=self.network.kernel.cycles,
            gating_ratio=self.network.gating_stats().gating_ratio,
        )


def evaluate_streaming(config: StreamingConfig) -> StreamingResults:
    """Worker entry point: build and run one streaming chain.

    The config alone determines the outcome (the chain workload carries
    no injection randomness), so — like the sweep benches' load points —
    equal specs give equal results in any process.
    """
    return StreamingWorkload(config).run()


# -- bursty compute-phase / DMA-storm workload ----------------------------


@dataclass(frozen=True)
class BurstyConfig:
    """A phased workload: compute silence punctuated by DMA storms.

    Attributes:
        tiles: tile count (2*tiles leaves, processor/memory pairs).
        storms: number of storm windows.
        storm_cycles: length of each storm window in cycles.
        compute_cycles: quiet compute phase between storms.
        packets_per_storm: DMA packets each tile issues per storm.
        burst_flits: flits per DMA packet.
        seed: derives storm schedules and partner choices (all randomness
            is consumed at build time, so both kernel modes replay the
            identical schedule).
    """

    tiles: int = 16
    storms: int = 3
    storm_cycles: int = 8
    compute_cycles: int = 400
    packets_per_storm: int = 2
    burst_flits: int = 4
    seed: int = 11
    activity_driven: bool = True

    def __post_init__(self) -> None:
        if self.tiles < 2 or self.tiles & (self.tiles - 1):
            raise ConfigurationError("tiles must be a power of two >= 2")
        if min(self.storms, self.storm_cycles, self.packets_per_storm,
               self.burst_flits) < 1:
            raise ConfigurationError("storm parameters must be positive")
        if self.compute_cycles < 1:
            raise ConfigurationError("compute_cycles must be >= 1")

    @property
    def leaves(self) -> int:
        return 2 * self.tiles

    @property
    def phase_cycles(self) -> int:
        return self.storm_cycles + self.compute_cycles

    @property
    def total_cycles(self) -> int:
        """The issue horizon: every storm plus its compute phase."""
        return self.storms * self.phase_cycles


class DmaStormDriver(ClockedComponent):
    """Replays one tile's precomputed DMA schedule.

    Idle contract: after sending everything due this edge, the driver
    arms an exact-tick timer for the next due packet and sleeps — so a
    compute phase costs zero fired edges and the whole-system quiet
    window fast-forwards. All randomness was consumed when the schedule
    was built; the replay is deterministic in both kernel modes.
    """

    def __init__(self, kernel: SimKernel, tile: int,
                 schedule: list[tuple[int, int, list[int]]]):
        super().__init__(f"tile{tile}.dma", parity=0)
        self.tile = tile
        #: (due_tick, dest, payload) in due order.
        self._schedule = deque(schedule)
        self.network: Network | None = None  # bound after build
        self.packets_sent = 0
        kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        schedule = self._schedule
        while schedule and schedule[0][0] <= tick:
            _, dest, payload = schedule.popleft()
            self.network.send(Packet(src=proc_leaf(self.tile), dest=dest,
                                     payload=list(payload)))
            self.packets_sent += 1
        if schedule:
            # Wake exactly one tick before the next due edge (timers fire
            # at end-of-tick, so the wake lands on the due edge itself).
            due = schedule[0][0]
            self._kernel.call_at(due - 1, lambda _t: self.wake())
        self.sleep_until()


class BurstySystem:
    """Tiles alternating compute phases with synchronized DMA storms."""

    def __init__(self, config: BurstyConfig = BurstyConfig()):
        self.config = config
        # Drivers register before the network on the shared kernel, so
        # their sends reach the NIs the same tick (cf. DemonstratorSystem).
        self.kernel = SimKernel(activity_driven=config.activity_driven)
        rng = np.random.default_rng(config.seed)
        self.drivers: list[DmaStormDriver] = []
        for tile in range(config.tiles):
            self.drivers.append(DmaStormDriver(
                self.kernel, tile, self._schedule_for(tile, rng)))
        # Built by hand, not through FabricConfig.build: the benchmark's
        # tree_bursty_idle workload pins this system outside the
        # fabric.registry layer its tracer hooks on build().
        self.network = ICNoCNetwork(FabricConfig(
            ports=config.leaves, arity=2,
            activity_driven=config.activity_driven,
        ), kernel=self.kernel)
        for driver in self.drivers:
            driver.network = self.network
        #: Whether the last run() delivered everything within its drain
        #: budget — False means the returned stats are truncated.
        self.drained = True

    def _schedule_for(self, tile: int,
                      rng: np.random.Generator
                      ) -> list[tuple[int, int, list[int]]]:
        """One tile's DMA storm schedule (randomness consumed here)."""
        config = self.config
        entries: list[tuple[int, int, list[int]]] = []
        for storm in range(config.storms):
            start = storm * config.phase_cycles
            for _ in range(config.packets_per_storm):
                cycle = start + int(rng.integers(0, config.storm_cycles))
                partner = int(rng.integers(0, config.tiles - 1))
                if partner >= tile:
                    partner += 1  # DMA targets a *remote* tile's memory
                payload = [storm] + [0] * (config.burst_flits - 1)
                entries.append((2 * cycle, mem_leaf(partner), payload))
        entries.sort(key=lambda e: e[0])
        return entries

    def run(self, drain_ticks: int = 200_000) -> NetworkStats:
        """Replay every storm, then drain the tail.

        Sets :attr:`drained`; stats from an undrained run are truncated
        and should not be treated as a valid measurement.
        """
        self.network.run_ticks(2 * self.config.total_cycles)
        self.drained = self.network.drain(max_ticks=drain_ticks)
        return self.network.stats

    @property
    def packets_scheduled(self) -> int:
        return (self.config.tiles * self.config.storms
                * self.config.packets_per_storm)


def mapping_comparison(tiles: int = 16, stages: int = 4,
                       burst_flits: int = 8, bursts: int = 15,
                       seed: int = 7,
                       workers: int | None = None
                       ) -> dict[str, StreamingResults]:
    """The application-mapping experiment: adjacent vs scattered chains.

    Returns results for the same chain mapped onto consecutive tiles
    (locality) and onto random far-apart tiles (what bad placement does).
    The scattered placement derives deterministically from ``seed``; with
    ``workers`` > 1 the two mappings evaluate concurrently over
    :func:`repro.analysis.parallel.parallel_map` (the configs are
    picklable specs), with identical results either way.
    """
    if stages > tiles:
        raise ConfigurationError("chain longer than the machine")
    from repro.analysis.parallel import parallel_map
    adjacent = tuple(range(stages))
    rng = np.random.default_rng(seed)
    scattered = tuple(
        int(t) for t in rng.choice(tiles, size=stages, replace=False)
    )
    names = ("adjacent", "scattered")
    configs = [
        StreamingConfig(tiles=tiles, chain=chain, burst_flits=burst_flits,
                        bursts=bursts)
        for chain in (adjacent, scattered)
    ]
    results = parallel_map(evaluate_streaming, configs, workers)
    return dict(zip(names, results))
