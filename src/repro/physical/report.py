"""Dynamic energy report for a completed simulation run.

Combines the measured traffic (flit-switch traversals and flit-millimetres
from the delivered packets) with the energy models, and the measured
clock-gating activity with the clock power model, into one breakdown —
the "what did this run cost" view an SoC power architect asks for.

:meth:`RunEnergyReport.from_run` works on **any** fabric built through the
topology registry (tree, ctree, mesh, torus, ring; wormhole or VC): each
packet's path comes from the fabric's physical descriptor
(:mod:`repro.physical.descriptor`), so switch port counts, link lengths
(folded wrap links included), per-hop FIFO energy on the credit fabrics,
and the clock-distribution scheme all match the fabric that actually ran.

Units: energies in pJ, time in ns. Mean power divides total pJ by elapsed
ns — and pJ/ns *is* mW (1e-12 J / 1e-9 s = 1e-3 W), so no further
conversion factor applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RunEnergyReport:
    """Energy accounting of one network run.

    All energies in pJ; mean power in mW assumes the configured clock
    frequency. ``buffer_pj`` is the input-FIFO write/read energy of the
    credit fabrics (zero on the bufferless tree).
    """

    router_pj: float
    link_pj: float
    clock_pj: float
    elapsed_cycles: float
    frequency_ghz: float
    flit_router_traversals: int
    flit_mm: float
    buffer_pj: float = 0.0
    flits_delivered: int = 0

    @property
    def traffic_pj(self) -> float:
        """Data-movement energy (everything but the clock)."""
        return self.router_pj + self.link_pj + self.buffer_pj

    @property
    def total_pj(self) -> float:
        return self.traffic_pj + self.clock_pj

    @property
    def mean_power_mw(self) -> float:
        if self.elapsed_cycles <= 0.0:
            return 0.0
        elapsed_ns = self.elapsed_cycles / self.frequency_ghz
        return self.total_pj / elapsed_ns  # pJ/ns is mW, exactly

    @property
    def energy_per_flit_pj(self) -> float:
        """Mean traffic energy per delivered flit (source to sink)."""
        if self.flits_delivered == 0:
            return 0.0
        return self.traffic_pj / self.flits_delivered

    def describe(self) -> str:
        buffers = (f" + buffers {self.buffer_pj:.0f} pJ"
                   if self.buffer_pj else "")
        return (
            f"routers {self.router_pj:.0f} pJ + links {self.link_pj:.0f} pJ"
            f"{buffers} + clock {self.clock_pj:.0f} pJ"
            f" = {self.total_pj:.0f} pJ over"
            f" {self.elapsed_cycles:.0f} cycles"
            f" ({self.mean_power_mw:.2f} mW mean)"
        )

    @classmethod
    def from_run(cls, network, frequency_ghz: float | None = None,
                 model=None) -> "RunEnergyReport":
        """Energy of everything ``network`` delivered so far.

        ``network`` is any fabric built through the topology registry;
        its physical descriptor supplies per-packet paths and the
        clock-power scheme (integrated clocks are gated at the measured
        activity, mesochronous clocks free-run). Pass ``model`` to reuse
        an already-resolved descriptor (and its path cache).
        """
        from repro.physical.descriptor import physical_model
        from repro.physical.power import (
            BUFFER_ENERGY_PJ_PER_FLIT,
            link_energy_pj_per_flit,
        )
        if model is None:
            model = physical_model(network)
        if frequency_ghz is None:
            frequency_ghz = model.frequency_ghz()
        if frequency_ghz <= 0.0:
            raise ConfigurationError("frequency must be positive")
        tech = model.tech

        traversals = 0
        flits = 0
        flit_mm = 0.0
        router_pj = 0.0
        buffered = 0
        # One batched path walk prices every delivered packet; the sums
        # below still run packet by packet, in delivery order.
        packets = network.delivered
        costs = model.pair_costs([packet.src for packet in packets],
                                 [packet.dest for packet in packets])
        for packet, hops, length_mm, switch_pj, buffered_hops in zip(
                packets, costs.hops.tolist(), costs.length_mm.tolist(),
                costs.switch_pj.tolist(), costs.buffered_hops.tolist()):
            count = packet.flit_count
            traversals += hops * count
            flits += count
            flit_mm += length_mm * count
            router_pj += count * switch_pj
            buffered += buffered_hops * count

        link_pj = flit_mm * link_energy_pj_per_flit(1.0, tech)
        buffer_pj = buffered * BUFFER_ENERGY_PJ_PER_FLIT

        elapsed_cycles = network.stats.elapsed_cycles
        clock = model.clock_power(frequency_ghz)
        # mW * ns = pJ; elapsed ns = cycles / GHz.
        clock_pj = clock.total_mw * (elapsed_cycles / frequency_ghz)

        return cls(
            router_pj=router_pj,
            link_pj=link_pj,
            clock_pj=clock_pj,
            elapsed_cycles=elapsed_cycles,
            frequency_ghz=frequency_ghz,
            flit_router_traversals=traversals,
            flit_mm=flit_mm,
            buffer_pj=buffer_pj,
            flits_delivered=flits,
        )
