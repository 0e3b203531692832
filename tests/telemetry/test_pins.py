"""Byte pins of the telemetry a run keeps, tick by tick.

Eight builds run 60 cycles of uniform load 0.4 (3-flit packets, seed 3)
with the metrics registry and a 1-in-4 flit tracer attached. The
registry's summary is serialised after every tick of the injection
window and folded into one digest; the drained run's final summary and
its traces (relative ids) get one digest each. Every digest is pinned,
and both kernel modes must reproduce it: a change to how the registry
or the tracer is fed may move no number at any tick.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.fabric.registry import FabricConfig
from repro.telemetry import attach_metrics, attach_tracer
from repro.traffic.patterns import UniformRandom

CYCLES = 60
LOAD = 0.4
SIZE_FLITS = 3
SEED = 3
SAMPLE_PERIOD = 4

BUILDS = {
    "mesh": dict(topology="mesh", ports=16),
    "torus_vc_pipelined": dict(
        topology="torus", ports=16, flow_control="vc", n_vcs=2,
        pipeline_depth=2, segment_links=True, chip_width_mm=20,
        chip_height_mm=20),
    "ring": dict(topology="ring", ports=16),
    "tree": dict(topology="tree", ports=16),
    "ctree": dict(topology="ctree", ports=16),
    "torus_vc_array": dict(topology="torus", ports=16, flow_control="vc",
                           n_vcs=2, backend="array"),
    # Unpipelined routers on segmented links: a router's grant wire is
    # the link's first segment, not the wire its consumer reads.
    "torus_segmented": dict(topology="torus", ports=16, segment_links=True,
                            chip_width_mm=20, chip_height_mm=20),
    "ring_vc": dict(topology="ring", ports=16, flow_control="vc", n_vcs=2),
}

#: (per-tick summaries, final summary, traces) sha256 prefixes.
PINS = {
    "ctree": ("1791f6c1eab4108f", "6b32d697bf9bd52b", "3d791fd0abaedf96"),
    "mesh": ("09a2fbfa783914ea", "ab135bf3a2d07f6c", "38143e7d0519001f"),
    "ring": ("ee010e49bf962eba", "191e60f447f85403", "b075bf15ffbc096a"),
    "torus_vc_array": ("051afabd8da899a4", "b94400097935e3bb",
                       "bc426436bd0d9891"),
    "torus_vc_pipelined": ("cc55f016b41d1d1e", "b296506f5bc6f07b",
                           "5d4fc15d7886e694"),
    "tree": ("95ba729e96fa127a", "c62cc5380de0f827", "eaf6eb1c9227fc4f"),
    "torus_segmented": ("c267f680a1441f78", "1842c48f0df3b0e0",
                        "98bc23321fc255aa"),
    "ring_vc": ("4e423ed337425517", "b2584fcd7f32500b", "4ca056810cb1e6bb"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def observed_run(build: str, activity_driven: bool,
                 attach: str = "registry,tracer",
                 **overrides) -> tuple[str, str, str]:
    """The three digests of one run; ``attach`` names what is attached,
    in attach order (a digest of what is not attached reads None)."""
    config = FabricConfig(activity_driven=activity_driven,
                          **{**BUILDS[build], **overrides})
    net = config.build()
    registry = tracer = None
    for what in attach.split(","):
        if what == "registry":
            registry = attach_metrics(net)
        else:
            tracer = attach_tracer(net, sample_period=SAMPLE_PERIOD)
    schedule = UniformRandom(config.ports, LOAD, size_flits=SIZE_FLITS) \
        .generate(CYCLES, np.random.default_rng(SEED))
    by_cycle = {}
    for injection in schedule:
        by_cycle.setdefault(injection.cycle, []).append(injection)
    per_tick = hashlib.sha256()
    for cycle in range(CYCLES):
        for injection in by_cycle.get(cycle, ()):
            net.send(injection.to_packet())
        for _ in range(2):
            net.run_ticks(1)
            if registry is not None:
                per_tick.update(json.dumps(registry.summary().to_dict(),
                                           sort_keys=True).encode())
    assert net.drain(300_000), build
    if registry is None:
        per_tick = final = None
    else:
        per_tick = per_tick.hexdigest()[:16]
        final = _digest(json.dumps(registry.summary().to_dict(),
                                   sort_keys=True))
    traces = None if tracer is None else _digest(json.dumps(
        [trace.to_dict() for trace in tracer.traces], sort_keys=True))
    return per_tick, final, traces


@pytest.mark.parametrize("activity_driven", [True, False],
                         ids=["fast", "naive"])
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_telemetry_pinned_at_every_tick(build, activity_driven):
    assert observed_run(build, activity_driven) == PINS[build]


@pytest.mark.parametrize("build,backend", [("mesh", "array"),
                                           ("torus_vc_array", "dispatch")])
def test_backends_give_the_same_pins(build, backend):
    assert observed_run(build, True, backend=backend) == PINS[build]


@pytest.mark.parametrize("attach", ["registry", "tracer", "tracer,registry"])
@pytest.mark.parametrize("build", ["mesh", "torus_vc_pipelined",
                                   "torus_vc_array", "tree"])
def test_each_consumer_alone_and_in_either_order(build, attach):
    """The registry and the tracer keep the same record whichever is
    attached, alone or with the other, and in either order."""
    pins = PINS[build]
    expected = tuple(
        pin if consumer in attach.split(",") else None
        for pin, consumer in zip(pins, ("registry", "registry", "tracer")))
    assert observed_run(build, True, attach=attach) == expected
