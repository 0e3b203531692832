"""Technology models: register timing, wires, and calibrated constants.

Everything physical in this reproduction flows from this package. The
numbers are the ones the paper itself publishes for its commercial 90 nm
standard-cell technology, plus two small calibrations (buffered-wire delay
and router critical path) that are exact fits through the paper's published
anchor points — see :mod:`repro.tech.calibration`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RegisterTiming",
    "FF_90NM",
    "WireParameters",
    "BufferedWireModel",
    "WIRE_90NM",
    "BUFFERED_WIRE_90NM",
    "Technology",
    "TECH_90NM",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tech.flipflop": ("RegisterTiming", "FF_90NM"),
    "repro.tech.wire": (
        "WireParameters", "BufferedWireModel", "WIRE_90NM",
        "BUFFERED_WIRE_90NM",
    ),
    "repro.tech.technology": ("Technology", "TECH_90NM"),
})
