"""Quickstart: build the paper's demonstrator IC-NoC, check its timing,
send packets, and read the reports.

Run:  python examples/quickstart.py
"""

from repro import FabricConfig, Packet, physical_model
from repro.timing.validator import channels_max_frequency, validate_channels


def main() -> None:
    # The defaults are the paper's demonstrator: 64 ports on a binary
    # tree over a 10 mm x 10 mm chip, links segmented at <= 1.25 mm.
    net = FabricConfig().build()
    register = net.config.tech.register
    area = physical_model(net).area_report()
    skew_limited = channels_max_frequency(net.channel_specs, register)
    print(net.describe())
    print(f"area: {area.describe()}")
    print(f"skew-limited f_max: {skew_limited:.3f} GHz")
    print()

    # Timing safety (eqs. 1-7 of the paper) on every link segment at the
    # operating point.
    frequency = net.operating_frequency_ghz()
    report = validate_channels(net.channel_specs, register, frequency)
    print(f"timing at {frequency:.3f} GHz: "
          f"{'PASS' if report.passed else 'FAIL'} "
          f"(worst slack {report.worst_slack_ps:.0f} ps, "
          f"{len(report.checks)} checks)")

    # Send a few packets: a sibling pair (one 3x3 router away) and a
    # worst-case cross-chip pair (11 routers).
    net.send(Packet(src=0, dest=1, payload=[0xDEAD, 0xBEEF]))
    net.send(Packet(src=0, dest=63, payload=[1, 2, 3, 4]))
    net.send(Packet(src=42, dest=17))
    net.drain(max_ticks=10_000)

    print()
    for packet, hops in zip(net.delivered, net.stats.hop_counts):
        print(f"packet {packet.src:2d} -> {packet.dest:2d}: "
              f"{packet.flit_count} flits, {hops:2d} routers, "
              f"{packet.latency_cycles:5.1f} cycles")

    print()
    print(f"area: {area.describe()}")


if __name__ == "__main__":
    main()
