"""The 64-port demonstrator: 32 tiles on a 10 mm x 10 mm chip.

Builds the binary-tree IC-NoC with the paper's parameters (1.25 mm root
segments, local-priority arbitration), attaches 32 processor/memory pairs
at sibling leaves, and runs a closed-loop read-request workload.

Each tile is driven by a :class:`TileDriver` clocked component that
honours the idle-component contract: a tile whose processor is saturated
(at its outstanding limit, so issuing consumes no randomness) and whose
memory has nothing in service sleeps until a delivery at one of its
leaves wakes it. During the drain phase — and in any bursty workload's
quiet windows — the whole system goes quiescent and the kernel
fast-forwards, instead of firing 2N component edges per cycle. The
drivers register *before* the network's components on a shared kernel, so
their packet submissions reach the NIs within the same tick, exactly like
the former host-loop driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.stats import LatencySummary
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.system.memory import MemoryModel
from repro.system.processor import ProcessorConfig, ProcessorModel
from repro.system.tile import Tile, mem_leaf, proc_leaf, tile_of


@dataclass(frozen=True)
class DemonstratorConfig:
    """Parameters of the demonstrator run."""

    tiles: int = 32
    processor: ProcessorConfig = ProcessorConfig()
    memory_service_cycles: int = 4
    memory_response_flits: int = 4
    seed: int = 2007
    activity_driven: bool = True

    def __post_init__(self) -> None:
        if self.tiles < 2 or self.tiles & (self.tiles - 1):
            raise ConfigurationError("tiles must be a power of two >= 2")

    @property
    def leaves(self) -> int:
        return 2 * self.tiles


@dataclass
class DemonstratorResults:
    """Outcome of one demonstrator run."""

    cycles_run: float
    requests_issued: int
    requests_completed: int
    local_latency: LatencySummary
    remote_latency: LatencySummary
    network_throughput_flits_per_cycle: float
    gating_ratio: float
    per_tile_local_mean: list[float] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"{self.requests_completed}/{self.requests_issued} transactions "
            f"in {self.cycles_run:.0f} cycles; local round-trip "
            f"{self.local_latency.mean:.1f} cy, remote "
            f"{self.remote_latency.mean:.1f} cy; network "
            f"{self.network_throughput_flits_per_cycle:.3f} flits/cy; "
            f"clock gating {self.gating_ratio:.1%}"
        )


class TileDriver(ClockedComponent):
    """Fires one tile's processor and memory once per clock cycle.

    Idle contract: the driver sleeps only when its next edge provably
    does nothing *and consumes no randomness* — issuing is disabled (or
    the processor sits at its outstanding limit, where ``maybe_issue``
    returns early without touching the RNG) and the memory has no request
    in service. Deliveries at either of the tile's leaves wake it.
    """

    def __init__(self, kernel: SimKernel, tile: Tile):
        super().__init__(f"tile{tile.index}.drv", parity=0)
        self.tile = tile
        self.network: Network | None = None  # bound after build
        self._rng: np.random.Generator | None = None
        self._issuing = False
        kernel.add_component(self)

    def start(self, rng: np.random.Generator) -> None:
        """Open the injection window with a fresh RNG."""
        self._rng = rng
        self._issuing = True
        self.wake()

    def stop_issuing(self) -> None:
        """Close the injection window (the drain phase)."""
        self._issuing = False

    def on_edge(self, tick: int) -> None:
        processor = self.tile.processor
        memory = self.tile.memory
        network = self.network
        if self._issuing:
            request = processor.maybe_issue(tick, self._rng)
            if request is not None:
                network.send(request)
        if memory.pending:
            for response in memory.responses_ready(tick):
                network.send(response)
        saturated = (len(processor.outstanding)
                     >= processor.config.max_outstanding)
        if (not self._issuing or saturated) and not memory.pending:
            self.sleep_until()  # woken by deliveries at our leaves


class DemonstratorSystem:
    """The assembled multiprocessor demonstrator."""

    def __init__(self, config: DemonstratorConfig = DemonstratorConfig()):
        self.config = config
        # Shared kernel: tile drivers register first, then the network,
        # so a driver's send() at tick t is serialised by the NI at t.
        self.kernel = SimKernel(activity_driven=config.activity_driven)
        self.tiles: list[Tile] = []
        self.drivers: list[TileDriver] = []
        for t in range(config.tiles):
            processor = ProcessorModel(
                tile=t, leaf=proc_leaf(t), tiles=config.tiles,
                config=config.processor,
            )
            memory = MemoryModel(
                tile=t, leaf=mem_leaf(t),
                service_cycles=config.memory_service_cycles,
                response_flits=config.memory_response_flits,
            )
            tile = Tile(index=t, processor=processor, memory=memory)
            self.tiles.append(tile)
            self.drivers.append(TileDriver(self.kernel, tile))
        # The paper's floorplan and technology are FabricConfig's defaults.
        self.network = FabricConfig(
            ports=config.leaves,
            arity=2,
            allocator="local_priority",
            activity_driven=config.activity_driven,
        ).build(kernel=self.kernel)
        for tile, driver in zip(self.tiles, self.drivers):
            driver.network = self.network
            self.network.set_handler(mem_leaf(tile.index),
                                     self._memory_handler(tile.memory, driver))
            self.network.set_handler(proc_leaf(tile.index),
                                     self._processor_handler(tile.processor,
                                                             driver))

    def _memory_handler(self, memory: MemoryModel, driver: TileDriver):
        def handler(packet: Packet, tick: int) -> None:
            memory.accept(packet, tick)
            driver.wake()  # serve the request after its service delay
        return handler

    def _processor_handler(self, processor: ProcessorModel,
                           driver: TileDriver):
        def handler(packet: Packet, tick: int) -> None:
            request_id = packet.payload[0]
            was_local = tile_of(packet.src) == processor.tile
            processor.complete(request_id, tick, was_local)
            driver.wake()  # headroom below the outstanding limit again
        return handler

    def _drained(self) -> bool:
        stats = self.network.stats
        return (stats.packets_delivered >= stats.packets_injected
                and not any(tile.memory.pending for tile in self.tiles))

    def run(self, cycles: int = 2000) -> DemonstratorResults:
        """Drive the closed-loop workload for ``cycles`` cycles + drain."""
        rng = np.random.default_rng(self.config.seed)
        for driver in self.drivers:
            driver.start(rng)
        self.network.run_ticks(2 * cycles)
        # Drain: stop issuing, keep serving memories until quiescent.
        # Chunked so a sleeping system fast-forwards between done-checks;
        # chunk sizes are fixed, so both kernel modes run the same ticks.
        for driver in self.drivers:
            driver.stop_issuing()
        budget = cycles
        chunk = 8
        while budget > 0 and not self._drained():
            step = min(chunk, budget)
            self.network.run_ticks(2 * step)
            budget -= step
        return self._results()

    def _results(self) -> DemonstratorResults:
        local = []
        remote = []
        issued = 0
        completed = 0
        per_tile_local = []
        for tile in self.tiles:
            processor = tile.processor
            local.extend(processor.local_latencies)
            remote.extend(processor.remote_latencies)
            issued += processor.requests_issued
            completed += processor.completed
            if processor.local_latencies:
                per_tile_local.append(
                    sum(processor.local_latencies)
                    / len(processor.local_latencies)
                )
        return DemonstratorResults(
            cycles_run=self.network.kernel.cycles,
            requests_issued=issued,
            requests_completed=completed,
            local_latency=LatencySummary.from_cycles(local),
            remote_latency=LatencySummary.from_cycles(remote),
            network_throughput_flits_per_cycle=(
                self.network.stats.throughput_flits_per_cycle
            ),
            gating_ratio=self.network.gating_stats().gating_ratio,
            per_tile_local_mean=per_tile_local,
        )
