"""Maximum-frequency models: Fig. 7's pipeline curve and the router's
critical path (a network combines both in
:meth:`~repro.fabric.network.Network.operating_frequency_ghz`).

The paper's Fig. 7 plots achievable clock frequency against the wire length
between two pipeline stages, from back-annotated layout. Our model::

    Thalf(L) = Thalf_base + 2 * t_w(L)

``Thalf_base`` = 277.78 ps (the published 220 ps of flow-control logic and
registers plus control-signal buffering, pinned by the published 1.8 GHz
head-to-head speed). The factor 2: during each phase the handshake crosses
the link wire once in each direction (forwarded clock+data one way, accept
the other way), so one full wire flight is paid per phase in each
half-period budget. ``t_w`` is the calibrated buffered-wire delay.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tech.technology import Technology, TECH_90NM
from repro.units import frequency_from_half_period, half_period_ps


def pipeline_half_period(length_mm: float,
                         tech: Technology = TECH_90NM) -> float:
    """Minimum half period (ps) of a pipeline with ``length_mm`` segments."""
    if length_mm < 0.0:
        raise ConfigurationError(f"length must be >= 0, got {length_mm}")
    return (
        tech.pipeline_base_half_period_ps
        + 2.0 * tech.buffered_wire.delay(length_mm)
    )


def pipeline_max_frequency(length_mm: float,
                           tech: Technology = TECH_90NM) -> float:
    """Achievable clock frequency (GHz) vs segment length — Fig. 7's curve."""
    return frequency_from_half_period(pipeline_half_period(length_mm, tech))


def max_segment_length(frequency: float,
                       tech: Technology = TECH_90NM) -> float:
    """Longest pipeline segment (mm) sustaining ``frequency`` GHz.

    Inverse of :func:`pipeline_max_frequency`. At the router speeds this
    reproduces the paper's optimal segment lengths: 0.6 mm at 1.4 GHz
    (3x3 routers) and 0.9 mm at 1.2 GHz (5x5 routers).
    """
    budget = half_period_ps(frequency) - tech.pipeline_base_half_period_ps
    if budget < 0.0:
        raise ConfigurationError(
            f"{frequency} GHz exceeds the zero-length pipeline speed"
        )
    return tech.buffered_wire.length_for_delay(budget / 2.0)


def router_max_frequency(ports: int, tech: Technology = TECH_90NM,
                         pipeline_depth: int = 1) -> float:
    """Maximum clock frequency (GHz) of a k-port router.

    ``pipeline_depth=1`` is the single-cycle router: the whole
    route+arbitrate+traverse path fits one half period. A depth-N router
    splits that logic across N stages, so each stage covers ``1/N`` of
    the critical path **plus one stage-register overhead** (the same
    ``pipeline_overhead_ps`` the link-pipeline model charges: register
    setup/clk-to-q and control buffering). Speedup therefore saturates —
    the achievable half period floors at the register overhead, exactly
    as in the link curve's zero-length limit.
    """
    if pipeline_depth < 1:
        raise ConfigurationError("pipeline_depth must be >= 1")
    half = tech.router_half_period_ps(ports)
    if pipeline_depth > 1:
        half = (half / pipeline_depth
                + (1.0 - 1.0 / pipeline_depth) * tech.pipeline_overhead_ps)
    return frequency_from_half_period(half)
