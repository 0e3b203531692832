"""Half-cycle-accurate behavioural simulation kernel.

Time advances in integer *ticks* of one half clock period. Every clocked
component carries a parity (0 or 1) and fires only on ticks of matching
parity — exactly the paper's "network nodes are clocked at alternating
clock edges". Signals are double-buffered: a value written during tick t
becomes visible at tick t+1, modelling that an opposite-edge neighbour
samples what was launched half a period earlier.

Observability is event-driven (:mod:`repro.sim.observe`): probes
subscribe to signal changes, scheduled timers, and discrete events
instead of per-tick callbacks, so instrumented runs keep the kernel's
activity-driven fast path.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Signal",
    "ClockedComponent",
    "SimKernel",
    "Timer",
    "Probe",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.signal": ("Signal",),
    "repro.sim.component": ("ClockedComponent",),
    "repro.sim.kernel": ("SimKernel", "Timer"),
    "repro.sim.observe": ("Probe",),
})
