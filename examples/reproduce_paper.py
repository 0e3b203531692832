"""Reproduce the paper's numbers in one run: the paper-vs-measured record
(what ``python -m repro.cli reproduce`` prints) plus the debugging tour
(protocol monitors, VCD waveform export, fault injection).

Run:  python examples/reproduce_paper.py [trace.vcd]
"""

import sys

from repro.analysis.experiments import evaluate
from repro.noc.debug import attach_monitors, attach_watchdog
from repro.noc.faults import FaultKind, inject_link_fault
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet
from repro.sim.vcd import VCDWriter


def record() -> bool:
    log = evaluate()
    print(log.render(title="Paper vs measured"))
    print()
    print("record:", "ALL MATCH" if log.all_match else "DEVIATIONS PRESENT")
    return log.all_match


def instrumented_run(vcd_path: str | None) -> None:
    """A monitored, optionally traced run of a small network."""
    print()
    print("--- instrumented run (protocol monitors + watchdog) ---")
    net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
    monitors = attach_monitors(net)
    attach_watchdog(net, patience_ticks=5000)
    writer = None
    if vcd_path:
        root = net.routers[0]
        signals = [root.out_channels[1]._valid, root.out_channels[1]._data,
                   root.out_channels[1]._accept]
        writer = VCDWriter(net.kernel, vcd_path, signals)
    for src in range(16):
        net.send(Packet(src=src, dest=15 - src if src != 15 - src else 0,
                        payload=[src, src + 1]))
    net.drain(50_000)
    if writer:
        writer.close()
        print(f"VCD waveform written to {vcd_path}")
    violations = sum(len(m.violations) for m in monitors)
    print(f"{net.stats.packets_delivered} packets delivered under "
          f"{len(monitors)} protocol monitors, {violations} violations")


def fault_demo() -> None:
    print()
    print("--- fault injection (what detection looks like) ---")
    net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
    injector = inject_link_fault(net, FaultKind.DROP_FLITS, stage_index=0)
    for src in range(32, 64, 4):
        net.send(Packet(src=src, dest=63 - src))
    net.run_ticks(5000)
    lost = net.stats.packets_injected - net.stats.packets_delivered
    print(f"broken link stage activated {injector.activations} times: "
          f"{lost}/{net.stats.packets_injected} packets lost "
          f"(visible in delivery accounting)")
    injector.heal()


def main() -> int:
    vcd_path = sys.argv[1] if len(sys.argv) > 1 else None
    ok = record()
    instrumented_run(vcd_path)
    fault_demo()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
