"""The ICNoC facade: one object for build / validate / run / report."""

from __future__ import annotations

import numpy as np

from repro.core.config import ICNoCConfig
from repro.errors import TimingViolationError
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.noc.stats import NetworkStats
from repro.physical.area import AreaReport
from repro.physical.descriptor import physical_model
from repro.timing.constraints import TimingReport
from repro.timing.validator import channels_max_frequency, validate_channels
from repro.traffic.base import TrafficGenerator, apply_traffic


class ICNoC:
    """A complete IC-NoC instance with analysis entry points.

    >>> noc = ICNoC(ICNoCConfig(ports=16))
    >>> noc.validate_timing(frequency=1.0).passed
    True
    """

    def __init__(self, config: ICNoCConfig = ICNoCConfig()):
        self.config = config
        self.network = ICNoCNetwork(config.fabric_config(),
                                    arbiter_policy=config.arbiter_policy)

    # -- timing ---------------------------------------------------------

    def operating_frequency_ghz(self) -> float:
        """Max clock rate from routers + the Fig. 7 pipeline model."""
        return self.network.operating_frequency_ghz()

    def validate_timing(self, frequency: float | None = None,
                        strict: bool = False) -> TimingReport:
        """Check eqs. (1)-(7) on every link segment at ``frequency`` GHz.

        ``strict=True`` raises :class:`TimingViolationError` on failure.
        """
        if frequency is None:
            frequency = self.operating_frequency_ghz()
        report = validate_channels(
            self.network.channel_specs, self.config.tech.register, frequency
        )
        if strict and not report.passed:
            raise TimingViolationError(
                f"{len(report.violations)} timing violations at "
                f"{frequency:.3f} GHz", report.violations,
            )
        return report

    def skew_limited_frequency_ghz(self) -> float:
        """Max frequency from the link skew windows alone (eqs. 1-7)."""
        return channels_max_frequency(
            self.network.channel_specs, self.config.tech.register
        )

    # -- running traffic --------------------------------------------------

    def send(self, packet: Packet) -> None:
        self.network.send(packet)

    def run_traffic(self, generator: TrafficGenerator, cycles: int,
                    seed: int = 0) -> NetworkStats:
        """Generate, inject and drain a synthetic workload."""
        rng = np.random.default_rng(seed)
        schedule = generator.generate(cycles, rng)
        apply_traffic(self.network, schedule, run_cycles=cycles)
        return self.network.stats

    # -- reports ----------------------------------------------------------

    def area_report(self) -> AreaReport:
        return physical_model(self.network).area_report()

    def describe(self) -> str:
        area = self.area_report()
        return (
            f"{self.network.describe()}\n"
            f"area: {area.describe()}\n"
            f"skew-limited f_max: {self.skew_limited_frequency_ghz():.3f} GHz"
        )
