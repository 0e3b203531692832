"""The fast path's performance contract, as exact counts.

The activity-driven kernel is worth exactly the clock edges it does not
execute, and that is a count: ``SimKernel.steps_executed`` against
``SimKernel.tick``. It is the same on every host and on every run, so it
is pinned here with ``==`` — a fast-path regression reads "steps went
up", an improvement re-pins a smaller number in the PR that earns it.
Wall time is not measured here at all; ``bench/run.py`` records it,
absolute and work-normalised, parent against change.

One table holds every scenario: how the fabric is built (with whatever
observers ride along), what is injected, and for how many ticks it runs.
Each row is an idle-heavy shape the fast path exists for — a short burst
and a long quiet tail, DMA storms between compute phases, a trace replay
whose endpoints mostly wait:

* ``bare`` / ``instrumented`` — a 64-leaf binary tree, plain and with a
  VCD writer, protocol monitors, a deadlock watchdog, a signal trace and
  a flit meter attached (the two extra steps are the watchdog's two
  expiries before it goes dormant);
* ``mesh`` — the same burst on an 8x8 wormhole mesh;
* ``pipelined`` — a 4x4 torus on a 20 mm die with two-stage routers and
  segmented wrap links (stage queues and link stages must sleep too);
* ``vc`` / ``traced`` — a hotspot burst on a 4x4 dateline-VC torus,
  plain and with the metrics registry plus a 1-in-16 flit tracer;
* ``bursty`` — the compute-phase/DMA-storm system trace
  (:class:`repro.system.workloads.BurstySystem`);
* ``gemm`` / ``llm`` — accelerator trace replays on the 16-node VC
  torus: a drain-heavy tiled GEMM that sleeps through its compute
  phases, and the LLM decode trace whose endpoints keep the fabric
  awake (2633 of 2688 ticks — the number an endpoint idle contract has
  to move).

That the two kernel modes, the two backends and the observed and plain
runs agree is held by the equivalence suites (``tests/fabric``,
``tests/telemetry``, ``tests/sim/test_observe.py``,
``tests/accel/test_replay.py``, ``tests/system/test_workloads.py``);
this module adds only the two cross-checks that need these scenarios.
"""

import dataclasses
import json
from typing import Callable, NamedTuple

import pytest

from repro.accel.generators import llm_decode_trace, tiled_gemm_trace
from repro.accel.replay import ReplaySystem
from repro.fabric.registry import FabricConfig
from repro.noc.debug import attach_monitors, attach_watchdog
from repro.noc.packet import Packet
from repro.sim.vcd import VCDWriter
from repro.system.workloads import BurstyConfig, BurstySystem
from repro.telemetry import attach_metrics, attach_tracer

LEAVES = 64
TICKS = 6_000
BURST_PACKETS = 8
BURSTY_CONFIG = BurstyConfig(tiles=16, storms=3, storm_cycles=8,
                             compute_cycles=400, packets_per_storm=2)
#: Drain-heavy GEMM: 4 tiles of 32x32x4096 — ~16k compute cycles per
#: tile against a handful of DMA flits, one tile per PE.
GEMM_KWARGS = dict(pes=4, mems=2, seed=0, m=64, n=64, k=4096, tile=32)
LLM_KWARGS = dict(pes=4, mems=2, seed=0, layers=2, d_model=64)


TREE = dict(ports=LEAVES, arity=2)
VC_TORUS = dict(topology="torus", ports=16, flow_control="vc")


# -- builders ----------------------------------------------------------
# Each takes (activity_driven, tmp_path) and returns the network plus
# whatever else the row can read once the run is over, by name.

def fabric(**kwargs):
    """A fabric with nothing attached and nothing extra to read."""
    def build(activity_driven, tmp_path):
        return FabricConfig(activity_driven=activity_driven,
                            **kwargs).build(), {}
    return build


def instrumented_tree(activity_driven, tmp_path):
    """The tree with every debug observer at once: protocol monitors on
    each router channel, a deadlock watchdog, a VCD of the root router's
    channels, a signal trace (one probe callback) and a flit counter
    (one event subscriber)."""
    net = FabricConfig(**TREE, activity_driven=activity_driven).build()
    monitors = attach_monitors(net)
    attach_watchdog(net, patience_ticks=2_000)
    root = net.routers[0]
    signals = [signal
               for channel in root.in_channels + root.out_channels
               for signal in (channel.valid_signal, channel.data_signal,
                              channel.accept_signal)]
    path = tmp_path / f"root_{'fast' if activity_driven else 'naive'}.vcd"
    writer = VCDWriter(net.kernel, path, signals)
    valid = root.out_channels[1].valid_signal
    trace = [(net.kernel.tick, valid.value)]
    valid.attach_probe(
        lambda tick, signal, old, new: trace.append((tick, new)))
    flits = []
    net.kernel.subscribe("flit", lambda tick, flit: flits.append(tick))

    def vcd():
        writer.close()
        return path.read_text()

    return net, {
        "vcd": vcd,
        "trace": lambda: list(trace),
        "accept_bursts": lambda: [m.accept_bursts for m in monitors],
        "flits_metered": lambda: len(flits),
    }


def traced_vc_torus(activity_driven, tmp_path):
    """The VC torus with the telemetry stack: the metrics registry on
    every link and router plus a 1-in-16 flit tracer."""
    net = FabricConfig(**VC_TORUS, activity_driven=activity_driven).build()
    registry = attach_metrics(net)
    tracer = attach_tracer(net, sample_period=16)
    return net, {
        "metrics_json": lambda: json.dumps(registry.summary().to_dict(),
                                           sort_keys=True),
        "traces_json": lambda: json.dumps(
            [t.to_dict() for t in tracer.traces], sort_keys=True),
    }


def bursty_system(activity_driven, tmp_path):
    system = BurstySystem(dataclasses.replace(
        BURSTY_CONFIG, activity_driven=activity_driven))
    return system.network, {}


def replay(trace):
    def build(activity_driven, tmp_path):
        system = ReplaySystem(trace, FabricConfig(
            **VC_TORUS, n_vcs=2, activity_driven=activity_driven))
        return system.network, {
            "completed": lambda: system.cp.done,
            "makespan": lambda: system.cp.makespan_cycles,
        }
    return build


# -- injections --------------------------------------------------------

def fan_out(net):
    """Node 0 sends one single-flit packet to each of nodes 1..8."""
    for dest in range(1, BURST_PACKETS + 1):
        net.send(Packet(src=0, dest=dest))


def hotspot_burst(to_hotspot_flits, across_flits):
    """Nodes 1..8 each send one packet to node 0 and one half-way round
    the 16-node torus. Six flits is longer than ``buffer_depth - 1``,
    which the wormhole bubble rule would reject — the VC rows use it."""
    def inject(net):
        for src in range(1, BURST_PACKETS + 1):
            net.send(Packet(src=src, dest=0,
                            payload=list(range(to_hotspot_flits))))
            net.send(Packet(src=src, dest=(src + 8) % 16,
                            payload=list(range(across_flits))))
    return inject


def self_driven(net):
    """Storm drivers and replay endpoints inject for themselves."""


class Scenario(NamedTuple):
    build: Callable
    inject: Callable
    ticks: int
    #: What the activity-driven run must read, exactly.
    pinned: dict


def pins(steps, tick, delivered, edges_total, edges_enabled, **extra):
    return dict(steps=steps, tick=tick, delivered=delivered,
                edges_total=edges_total, edges_enabled=edges_enabled,
                **extra)


SCENARIOS = {
    "bare": Scenario(
        fabric(**TREE), fan_out, TICKS,
        pins(40, 6000, 8, 1359000, 142)),
    "instrumented": Scenario(
        instrumented_tree, fan_out, TICKS,
        pins(42, 6000, 8, 1359000, 142, flits_metered=8)),
    "mesh": Scenario(
        fabric(topology="mesh", ports=64), fan_out, TICKS,
        pins(51, 6000, 8, 192000, 46)),
    "pipelined": Scenario(
        fabric(topology="torus", ports=16, chip_width_mm=20.0,
               chip_height_mm=20.0, pipeline_depth=2, segment_links=True),
        hotspot_burst(3, 1), TICKS,
        pins(79, 6000, 16, 912000, 447)),
    "vc": Scenario(
        fabric(**VC_TORUS), hotspot_burst(6, 4), TICKS,
        pins(117, 6000, 16, 48000, 267)),
    "traced": Scenario(
        traced_vc_torus, hotspot_burst(6, 4), TICKS,
        pins(117, 6000, 16, 48000, 267)),
    "bursty": Scenario(
        bursty_system, self_driven, 2 * BURSTY_CONFIG.total_cycles,
        pins(405, 2448, 96, 280296, 10239)),
    # The replays stop at the first 64-tick chunk boundary after the
    # control processor has every completion (ReplaySystem.run).
    "gemm": Scenario(
        replay(tiled_gemm_trace(**GEMM_KWARGS)), self_driven, 33_344,
        pins(593, 33344, 96, 266752, 1365, completed=True, makespan=16645)),
    "llm": Scenario(
        replay(llm_decode_trace(**LLM_KWARGS)), self_driven, 2_688,
        pins(2633, 2688, 362, 21504, 6790, completed=True, makespan=1315)),
}


def run(name, tmp_path, activity_driven=True, ticks=None):
    """Build, inject, run; every observable of the finished run."""
    scenario = SCENARIOS[name]
    net, extras = scenario.build(activity_driven, tmp_path)
    scenario.inject(net)
    net.run_ticks(scenario.ticks if ticks is None else ticks)
    gating = net.gating_stats()
    observed = {
        "steps": net.kernel.steps_executed,
        "tick": net.kernel.tick,
        "delivered": net.stats.packets_delivered,
        "edges_total": gating.edges_total,
        "edges_enabled": gating.edges_enabled,
        "latencies": list(net.stats.latencies_cycles),
    }
    observed.update((key, read()) for key, read in extras.items())
    return observed


@pytest.fixture(scope="module")
def fast_runs(tmp_path_factory):
    """Each scenario once, activity-driven, at its full length."""
    tmp_path = tmp_path_factory.mktemp("fast_path_contract")
    return {name: run(name, tmp_path) for name in SCENARIOS}


@pytest.mark.parametrize("name", SCENARIOS)
def test_pinned_counts(name, fast_runs):
    pinned = SCENARIOS[name].pinned
    assert {key: fast_runs[name][key] for key in pinned} == pinned


@pytest.mark.parametrize("observed,plain", [("instrumented", "bare"),
                                            ("traced", "vc")])
def test_observers_cost_no_more_than_their_own_steps(observed, plain,
                                                     fast_runs):
    """Attaching observers changes nothing the plain run can see. The
    telemetry stack adds no step at all; the debug stack adds the
    watchdog's two expiries (42 against 40, pinned above)."""
    watched, bare = fast_runs[observed], fast_runs[plain]
    for key in bare:
        if key != "steps":
            assert watched[key] == bare[key], key


def test_naive_kernel_steps_every_tick(tmp_path):
    """The reference the counts are measured against: the naive loop
    executes every tick, and — with the whole debug stack watching, VCD
    text included — sees exactly what the fast path sees."""
    ticks = 600
    naive = run("instrumented", tmp_path, activity_driven=False,
                ticks=ticks)
    fast = run("instrumented", tmp_path, ticks=ticks)
    assert naive["steps"] == naive["tick"] == ticks
    assert fast["steps"] == 40  # the watchdog first expires at 2000
    for key in naive:
        if key != "steps":
            assert fast[key] == naive[key], key
