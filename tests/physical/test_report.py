"""Run-energy reports."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.physical.power import (
    link_energy_pj_per_flit,
    router_energy_pj_per_flit,
)
from repro.physical.report import RunEnergyReport


def run_one_packet(src=0, dest=1, flits=1, leaves=8):
    net = ICNoCNetwork(FabricConfig(ports=leaves, arity=2))
    payload = list(range(flits)) if flits > 1 else []
    net.send(Packet(src=src, dest=dest, payload=payload))
    assert net.drain(20_000)
    return net


class TestEnergyArithmetic:
    def test_single_sibling_flit(self):
        net = run_one_packet(0, 1)
        report = RunEnergyReport.from_run(net, frequency_ghz=1.0)
        assert report.flit_router_traversals == 1
        assert report.router_pj == pytest.approx(
            router_energy_pj_per_flit(3)
        )
        # Sibling path: two leaf links.
        leaf_len = net.floorplan.link_length(
            net.topology.leaf_router(0).index, 1
        )
        assert report.flit_mm == pytest.approx(2 * leaf_len)

    def test_flits_scale_traffic_energy(self):
        one = RunEnergyReport.from_run(run_one_packet(flits=1), 1.0)
        four = RunEnergyReport.from_run(run_one_packet(flits=4), 1.0)
        assert four.router_pj == pytest.approx(4 * one.router_pj)
        assert four.flit_mm == pytest.approx(4 * one.flit_mm)

    def test_longer_path_costs_more(self):
        near = RunEnergyReport.from_run(run_one_packet(0, 1), 1.0)
        far = RunEnergyReport.from_run(run_one_packet(0, 7), 1.0)
        assert far.router_pj > near.router_pj
        assert far.link_pj > near.link_pj

    def test_link_energy_consistent_with_model(self):
        net = run_one_packet(0, 7)
        report = RunEnergyReport.from_run(net, 1.0)
        assert report.link_pj == pytest.approx(
            report.flit_mm * link_energy_pj_per_flit(1.0)
        )

    def test_clock_energy_positive_and_time_scaled(self):
        net = run_one_packet()
        report = RunEnergyReport.from_run(net, 1.0)
        assert report.clock_pj > 0.0
        # Run the (idle) network twice as long: clock energy grows,
        # traffic energy does not.
        net.run_ticks(net.kernel.tick)
        longer = RunEnergyReport.from_run(net, 1.0)
        assert longer.clock_pj > report.clock_pj
        assert longer.router_pj == report.router_pj

    def test_totals_add_up(self):
        report = RunEnergyReport.from_run(run_one_packet(), 1.0)
        assert report.total_pj == pytest.approx(
            report.router_pj + report.link_pj + report.clock_pj
        )
        assert report.mean_power_mw > 0.0
        assert "pJ" in report.describe()

    def test_bad_frequency_rejected(self):
        net = run_one_packet()
        with pytest.raises(ConfigurationError):
            RunEnergyReport.from_run(net, frequency_ghz=0.0)


class TestUnitConversion:
    """Pin the pJ/ns == mW identity (the old code ended in a no-op
    ``/ 1000.0 * 1000.0`` that invited a real conversion bug)."""

    @staticmethod
    def report(**overrides):
        values = dict(router_pj=60.0, link_pj=30.0, clock_pj=10.0,
                      elapsed_cycles=100.0, frequency_ghz=2.0,
                      flit_router_traversals=10, flit_mm=1.0)
        values.update(overrides)
        return RunEnergyReport(**values)

    def test_pj_per_ns_is_mw_exactly(self):
        # 100 pJ over 100 cycles at 2 GHz = 100 pJ / 50 ns = 2 mW.
        assert self.report().mean_power_mw == pytest.approx(2.0)

    def test_scales_linearly_with_frequency(self):
        # Same energy in half the wall time -> twice the power.
        slow = self.report(frequency_ghz=1.0)
        fast = self.report(frequency_ghz=2.0)
        assert fast.mean_power_mw == pytest.approx(2.0 * slow.mean_power_mw)

    def test_zero_elapsed_is_zero_power(self):
        assert self.report(elapsed_cycles=0.0).mean_power_mw == 0.0

    def test_buffer_energy_in_totals(self):
        plain = self.report()
        buffered = self.report(buffer_pj=5.0)
        assert buffered.total_pj == pytest.approx(plain.total_pj + 5.0)
        assert buffered.traffic_pj == pytest.approx(95.0)
        assert "buffers" in buffered.describe()
        assert "buffers" not in plain.describe()

    def test_energy_per_flit(self):
        report = self.report(flits_delivered=5)
        assert report.energy_per_flit_pj == pytest.approx(90.0 / 5)
        assert self.report().energy_per_flit_pj == 0.0
