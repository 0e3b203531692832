"""Link-timing analysis: the paper's Section 4 made executable.

This package implements equations (1)-(7) of the paper (downstream and
upstream setup/hold constraints for mesochronous alternating-edge links), a
network-wide validator, and closed-form maximum-frequency solvers (every
constraint is monotone in the clock period, which is exactly the paper's
"graceful degradation / correct by construction" argument).
"""

from repro._lazy import lazy_exports

__all__ = [
    "downstream_window",
    "upstream_window",
    "min_half_period_downstream",
    "min_half_period_upstream",
    "synchronous_hold_margin",
    "CheckKind",
    "Direction",
    "TimingCheck",
    "TimingReport",
    "ChannelSpec",
    "validate_channels",
    "pipeline_max_frequency",
    "max_segment_length",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.timing.link_timing": (
        "downstream_window", "upstream_window", "min_half_period_downstream",
        "min_half_period_upstream", "synchronous_hold_margin",
    ),
    "repro.timing.constraints": (
        "CheckKind", "Direction", "TimingCheck", "TimingReport",
    ),
    "repro.timing.validator": ("ChannelSpec", "validate_channels"),
    "repro.timing.frequency": ("pipeline_max_frequency", "max_segment_length"),
})
