"""Traffic primitives: injections, the generator protocol, the driver."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.noc.packet import Packet

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Injection:
    """One packet to inject.

    Attributes:
        cycle: injection cycle (converted to ticks by the driver).
        src / dest: leaf addresses.
        size_flits: packet length in flits (>= 1).
    """

    cycle: int
    src: int
    dest: int
    size_flits: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ConfigurationError("cycle must be >= 0")
        if self.size_flits < 1:
            raise ConfigurationError("packets are at least one flit")
        if self.src == self.dest:
            raise ConfigurationError("src == dest traffic never enters the NoC")

    def to_packet(self) -> Packet:
        payload = list(range(self.size_flits)) if self.size_flits > 1 else []
        return Packet(src=self.src, dest=self.dest, payload=payload)


class TrafficGenerator(abc.ABC):
    """Generates a finite injection schedule.

    ``load`` is the offered traffic in flits per cycle per port (the
    standard NoC load metric); subclasses translate it into per-cycle
    Bernoulli injection decisions.
    """

    def __init__(self, ports: int, load: float, size_flits: int = 1):
        if ports < 2:
            raise ConfigurationError("need >= 2 ports for traffic")
        if not 0.0 < load <= 1.0:
            raise ConfigurationError(f"load must be in (0, 1], got {load}")
        if size_flits < 1:
            raise ConfigurationError("size_flits must be >= 1")
        self.ports = ports
        self.load = load
        self.size_flits = size_flits

    @abc.abstractmethod
    def pick_destination(self, src: int, rng: np.random.Generator) -> int:
        """Choose a destination != src."""

    def injection_probability(self, src: int, cycle: int) -> float:
        """Per-cycle packet-injection probability at a port.

        ``load`` counts flits, so the packet rate is load / size.
        """
        return self.load / self.size_flits

    def generate(self, cycles: int, rng: np.random.Generator) -> list[Injection]:
        """The full injection schedule for ``cycles`` cycles."""
        if cycles < 0:
            raise ConfigurationError("cycles must be >= 0")
        # One draw per (cycle, port), then the destination's draws: the
        # loop binds its callees once, the draw order is the contract.
        draw = rng.random
        probability = self.injection_probability
        pick = self.pick_destination
        size, ports = self.size_flits, range(self.ports)
        schedule = []
        for cycle in range(cycles):
            for src in ports:
                if draw() < probability(src, cycle):
                    schedule.append(
                        Injection(cycle, src, pick(src, rng), size))
        return schedule


def inject_window(network, schedule: list[Injection], cycles: int) -> None:
    """Run ``cycles`` clock cycles, submitting each injection at its own
    cycle — just-in-time, so source queues reflect genuine congestion,
    not pre-loading. Leaves the backlog in flight (no drain).

    Raises :class:`ConfigurationError`, before anything is sent, naming
    the first injection the window would never reach."""
    by_cycle: dict[int, list[Injection]] = {}
    for injection in schedule:
        if injection.cycle >= cycles:
            raise ConfigurationError(
                f"injection at cycle {injection.cycle} ({injection.src} -> "
                f"{injection.dest}) falls outside the {cycles}-cycle "
                f"injection window; run at least {injection.cycle + 1} "
                f"cycles")
        by_cycle.setdefault(injection.cycle, []).append(injection)
    for cycle in range(cycles):
        for injection in by_cycle.get(cycle, ()):
            network.send(injection.to_packet())
        network.run_ticks(2)


def apply_traffic(network, schedule: list[Injection],
                  run_cycles: int | None = None,
                  drain_ticks: int = 200_000) -> None:
    """Drive a network with a schedule (through its last injection's
    cycle unless ``run_cycles`` says otherwise), then drain it. A
    ``run_cycles`` that ends before an injection raises
    :class:`ConfigurationError` (see :func:`inject_window`)."""
    if run_cycles is None:
        run_cycles = max((i.cycle for i in schedule), default=0) + 1
    inject_window(network, schedule, run_cycles)
    network.drain(max_ticks=drain_ticks)
