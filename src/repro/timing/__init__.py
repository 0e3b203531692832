"""Link-timing analysis: the paper's Section 4 made executable.

This package implements equations (1)-(7) of the paper (downstream and
upstream setup/hold constraints for mesochronous alternating-edge links), a
network-wide validator, and closed-form maximum-frequency solvers (every
constraint is monotone in the clock period, which is exactly the paper's
"graceful degradation / correct by construction" argument).
"""

from repro.timing.link_timing import (
    downstream_window,
    upstream_window,
    downstream_slack,
    upstream_slack,
    min_half_period_downstream,
    min_half_period_upstream,
    synchronous_hold_margin,
)
from repro.timing.constraints import (
    CheckKind,
    Direction,
    TimingCheck,
    TimingReport,
)
from repro.timing.validator import ChannelSpec, validate_channels, channel_min_half_period
from repro.timing.frequency import (
    pipeline_half_period,
    pipeline_max_frequency,
    max_segment_length,
)

__all__ = [
    "downstream_window",
    "upstream_window",
    "downstream_slack",
    "upstream_slack",
    "min_half_period_downstream",
    "min_half_period_upstream",
    "synchronous_hold_margin",
    "CheckKind",
    "Direction",
    "TimingCheck",
    "TimingReport",
    "ChannelSpec",
    "validate_channels",
    "channel_min_half_period",
    "pipeline_half_period",
    "pipeline_max_frequency",
    "max_segment_length",
]
