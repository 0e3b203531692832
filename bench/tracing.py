"""Spans and call buckets, recorded from the benchmark's side of each call.

Nothing under ``src/`` knows it is being timed: the tracer replaces a
class or module attribute (``FabricConfig.build``, ``attach_metrics`` ...)
or sets an instance attribute over a method (``component.on_edge``,
``network.send``) with a timing wrapper, and :meth:`Tracer.restore` puts
every original back.

Two records come out of one mechanism. Every wrapped call adds to its
*bucket* — self time, call count, total time — where self time is the
call's duration minus the wrapped calls it made (a stack of open calls
does the subtraction). Calls wrapped with ``span=True`` additionally leave
a *span* (name, start, end, parent, workload); those are the once-a-run
phase boundaries, while the ~10^5 component edges of a run only ever
touch their bucket. Self times therefore sum to the duration of the
outermost calls exactly, which is what lets the per-layer table add up.
"""

from __future__ import annotations

import time
from typing import Any, Callable

#: Component class (matched along the MRO) -> bucket its ``on_edge`` time
#: lands in. A class missing here is counted under ``sim.other``.
COMPONENT_LAYERS = {
    "FabricRouter": "fabric.router",
    "LinkStage": "fabric.link",
    "FabricSource": "fabric.endpoint",
    "FabricSink": "fabric.endpoint",
    "ArrayEngine": "fabric.array",
    "SwitchCore": "noc.router",
    "PipelineStage": "noc.pipeline",
    "NISource": "noc.ni",
    "NISink": "noc.ni",
    "DmaStormDriver": "system.driver",
    "_AccelEndpoint": "accel.endpoints",
}

_ABSENT = object()


def _layer_of(obj: Any, table: dict[str, str], default: str) -> str:
    for cls in type(obj).__mro__:
        if cls.__name__ in table:
            return table[cls.__name__]
    return default


class Tracer:
    """Times calls into the simulator's layers without editing them."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        #: Per-instance wrappers (component edges, send, run_ticks, drain)
        #: go in only on a traced run; the once-a-run class-level hooks
        #: are always in, because set-up and the timed region are split
        #: along them.
        self.traced = traced
        self.origin = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        #: name -> [self seconds, calls, total seconds]
        self.buckets: dict[str, list] = {}
        #: Every network ``FabricConfig.build`` returned, in build order.
        self.networks: list[Any] = []
        #: Seconds spent in outermost wrapped calls.
        self.root_total = 0.0
        #: Buckets whose time is set-up wherever it is spent.
        self.setup_buckets: set[str] = set()
        #: Instrument a network's components as soon as it is built (for
        #: public calls that build the network themselves).
        self.instrument_on_build = False
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- the one wrapper ------------------------------------------------

    def wrap(self, fn: Callable, name: str, span: bool = False,
             setup: bool = False) -> Callable:
        bucket = self.buckets.setdefault(name, [0.0, 0, 0.0])
        if setup:
            self.setup_buckets.add(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                bucket[0] += elapsed - frame[1]
                bucket[1] += 1
                bucket[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_total += elapsed
                if span:
                    spans.append({
                        "name": name,
                        "start": start - self.origin,
                        "end": end - self.origin,
                        "parent": stack[-1][0] if stack else None,
                        "workload": self.workload,
                        "setup": setup,
                    })
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one named phase span."""
        return self.wrap(fn, name, span=True)(*args, **kwargs)

    # -- installing and removing wrappers -------------------------------

    def hook(self, owner: Any, attr: str, name: str, setup: bool = False,
             after: Callable[[Any], None] | None = None) -> None:
        """Wrap a class or module attribute as a phase span.

        ``setup`` marks work that counts as set-up even when the public
        call under test does it itself; ``after`` sees each result.
        """
        original = vars(owner)[attr]
        bound = isinstance(original, classmethod)
        timed = self.wrap(getattr(owner, attr) if bound else original,
                          name, span=True, setup=setup)
        if after is None:
            hooked = timed
        else:
            def hooked(*args, **kwargs):
                result = timed(*args, **kwargs)
                after(result)
                return result
        setattr(owner, attr, staticmethod(hooked) if bound else hooked)
        self._undo.append((owner, attr, original))

    def hook_instance(self, obj: Any, attr: str, name: str,
                      span: bool = False) -> None:
        """Shadow a bound method with a timing wrapper on one instance."""
        if attr in vars(obj):
            return
        setattr(obj, attr, self.wrap(getattr(obj, attr), name, span))
        self._undo.append((obj, attr, _ABSENT))

    def instrument(self, network: Any) -> None:
        """Wrap a built network's run-time surface and every component
        registered with its kernel so far (idempotent, so call it again
        after attaching more components)."""
        prefix = _layer_of(network, {"ICNoCNetwork": "noc.ni"},
                           "fabric.endpoint")
        self.hook_instance(network, "send", f"{prefix}.send")
        self.hook_instance(network, "run_ticks", "sim.run_ticks")
        self.hook_instance(network, "drain", "sim.drain", span=True)
        for component in network.kernel.components:
            layer = _layer_of(component, COMPONENT_LAYERS, "sim.other")
            self.hook_instance(component, "on_edge", f"{layer}.on_edge")
            if hasattr(component, "batch_ticks"):
                self.hook_instance(component, "batch_ticks",
                                   f"{layer}.batch_ticks")

    def _on_build(self, network: Any) -> None:
        self.networks.append(network)
        if self.traced and self.instrument_on_build:
            self.instrument(network)

    def install(self) -> None:
        """The class-level hooks: one call each per run, so they stay in
        on untraced runs, where they cost microseconds."""
        import repro.telemetry
        from repro.fabric.registry import FabricConfig
        from repro.physical.report import RunEnergyReport
        from repro.telemetry.metrics import MetricsRegistry
        from repro.traffic.base import TrafficGenerator
        self.hook(FabricConfig, "build", "fabric.registry.build",
                  setup=True, after=self._on_build)
        self.hook(TrafficGenerator, "generate", "traffic.generate",
                  setup=True)
        self.hook(repro.telemetry, "attach_metrics", "telemetry.attach",
                  setup=True)
        self.hook(repro.telemetry, "attach_tracer", "telemetry.attach",
                  setup=True)
        self.hook(MetricsRegistry, "summary", "telemetry.summary")
        self.hook(RunEnergyReport, "from_run", "physical.energy_report")

    def restore(self) -> None:
        """Put back every attribute :meth:`hook` / :meth:`hook_instance`
        replaced."""
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- reading the record ---------------------------------------------

    def self_times(self) -> dict[str, float]:
        return {name: bucket[0] for name, bucket in self.buckets.items()}

    def seconds(self, name: str) -> float:
        """Self time of a bucket (0 when nothing ran under that name)."""
        return self.buckets.get(name, (0.0, 0, 0.0))[0]

    def calls(self, name: str) -> int:
        return self.buckets.get(name, (0.0, 0, 0.0))[1]

    def total(self, name: str) -> float:
        return self.buckets.get(name, (0.0, 0, 0.0))[2]

    def span(self, name: str) -> dict[str, Any]:
        """The last span recorded under ``name``."""
        for span in reversed(self.spans):
            if span["name"] == name:
                return span
        raise KeyError(name)
