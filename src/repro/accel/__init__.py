"""Trace-driven accelerator-system workloads over every registered fabric.

The package replays a portable JSONL trace of compute events and DMA
transfers — generated offline for canned models (LLM decode step, tiled
GEMM, parameter server) — through clocked endpoint models attached to any
registry fabric's network interfaces:

- :mod:`repro.accel.trace` — the versioned trace schema (load/save),
- :mod:`repro.accel.generators` — torch-free seeded trace generators,
- :mod:`repro.accel.placement` — picklable endpoint→node mapping specs,
- :mod:`repro.accel.endpoints` — ControlProcessor / ProcessingElement /
  MemoryChannel clocked components honouring the idle sleep contract,
- :mod:`repro.accel.replay` — build + run + results, and mapping sweeps.

``python -m repro.cli replay --topology torus --flow-control vc`` runs a
canned trace end to end; replays are bit-identical across the
activity-driven and naive kernels and across repeat runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.accel.trace": (
        "ACCEL_TRACE_SCHEMA", "ACCEL_TRACE_VERSION", "AccelEvent",
        "AccelTrace", "dma_flits", "gemm_cycles", "load_accel_trace",
        "save_accel_trace",
    ),
    "repro.accel.generators": ("MODEL_NAMES", "generate_trace"),
    "repro.accel.placement": ("Placement", "default_placement"),
    "repro.accel.replay": (
        "ReplayPoint", "ReplayResults", "ReplaySystem",
        "evaluate_replay_point", "measure_replay_points",
        "replay_trace_on_fabric", "sweep_placements",
    ),
})
