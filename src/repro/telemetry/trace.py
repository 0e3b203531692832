"""Flit-level tracing: follow sampled packets hop by hop.

:class:`FlitTracer` records, for a deterministic sample of packets,
the full journey inject → per-hop (arrival, grant) → deliver, and
decomposes each hop into **queueing** (cycles the head flit waited in
a buffer for arbitration, VC allocation or credits) and **transit**
(cycles on the wire and in pipeline stages).

Sampling is deterministic from the packet id *relative to the first
packet the tracer observes*: packet ids come from a process-global
counter, so two otherwise-identical runs (e.g. the fast and naive
kernel modes of an equivalence test) see different absolute ids but
identical relative ids. A packet is sampled iff
``(packet_id - first_id) % sample_period == 0``, and traces report the
relative id — which is what makes trace output byte-identical across
kernel modes and stable across repeated runs in one process.

Hop timing sources (all mode-identical):

* arrival at a router = the consumer-side flit-wire change tick plus
  the link latency (credit fabrics), or the input-channel data change
  tick (tree fabrics — the tick the flit is first *offered*, so tree
  "queueing" includes the handshake transfer to the switch);
* grant = the grant's tick: the change of the wire an unpipelined
  credit router drives as it grants, else the ``arbitration_grant``
  event (see :mod:`repro.telemetry.tap`);
* inject/deliver = the packet's own ``inject_tick``/``eject_tick``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.sim.kernel import SimKernel
from repro.telemetry.tap import join


@dataclass
class HopRecord:
    """One router traversal of a traced packet's head flit."""

    router: str
    output: str
    vc: int | None
    arrival_tick: int | None
    grant_tick: int

    def queue_cycles(self) -> float | None:
        """Cycles the head flit waited at this router before its grant."""
        if self.arrival_tick is None:
            return None
        return (self.grant_tick - self.arrival_tick) / 2.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "router": self.router,
            "output": self.output,
            "vc": self.vc,
            "arrival_tick": self.arrival_tick,
            "grant_tick": self.grant_tick,
        }


@dataclass
class PacketTrace:
    """The recorded journey of one sampled packet (relative ids)."""

    packet_id: int
    src: int
    dest: int
    flit_count: int
    submit_tick: int
    inject_tick: int | None = None
    deliver_tick: int | None = None
    hops: list[HopRecord] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "packet_id": self.packet_id,
            "src": self.src,
            "dest": self.dest,
            "flit_count": self.flit_count,
            "submit_tick": self.submit_tick,
            "inject_tick": self.inject_tick,
            "deliver_tick": self.deliver_tick,
            "hops": [hop.to_dict() for hop in self.hops],
        }

    def transit_cycles(self, hop_index: int) -> float | None:
        """Cycles from the grant at ``hop_index`` to the next measured
        point (the next hop's arrival, or delivery after the last hop)."""
        grant = self.hops[hop_index].grant_tick
        if hop_index + 1 < len(self.hops):
            arrival = self.hops[hop_index + 1].arrival_tick
            return None if arrival is None else (arrival - grant) / 2.0
        if self.deliver_tick is None:
            return None
        return (self.deliver_tick - grant) / 2.0

    def describe(self) -> str:
        """Human-readable hop-by-hop decomposition."""
        latency = (None if self.inject_tick is None
                   or self.deliver_tick is None
                   else (self.deliver_tick - self.inject_tick) / 2.0)
        header = (f"packet {self.packet_id}: {self.src} -> {self.dest}, "
                  f"{self.flit_count} flit"
                  f"{'s' if self.flit_count != 1 else ''}")
        if latency is not None:
            header += (f", inject t={self.inject_tick} deliver "
                       f"t={self.deliver_tick} ({latency:.1f} cycles)")
        else:
            header += " (in flight)"
        lines = [header]
        for i, hop in enumerate(self.hops):
            vc = "" if hop.vc is None else f" vc{hop.vc}"
            queue = hop.queue_cycles()
            wait = "" if queue is None else f" after {queue:.1f} queued"
            lines.append(f"  {hop.router}: grant t={hop.grant_tick} "
                         f"-> {hop.output}{vc}{wait}")
            transit = self.transit_cycles(i)
            if transit is not None:
                target = ("delivery" if i + 1 == len(self.hops)
                          else self.hops[i + 1].router)
                lines.append(f"    transit {transit:.1f} cycles to {target}")
        return "\n".join(lines)


class FlitTracer:
    """Samples packets deterministically and records their journeys.

    Build via :func:`attach_tracer`. ``sample_period`` of N samples
    every Nth injected packet (1 = every packet). The network's
    telemetry tap (:mod:`repro.telemetry.tap`) tests each flit-wire
    change and each grant against the sample and hands on only a
    sampled head.
    """

    def __init__(self, kernel: SimKernel, sample_period: int = 16):
        if sample_period < 1:
            raise ConfigurationError("sample_period must be >= 1")
        self.kernel = kernel
        self.sample_period = sample_period
        self._base_id: int | None = None
        self._traces: dict[int, PacketTrace] = {}  # absolute id -> trace
        # (absolute id, router) -> the head's arrival tick there.
        self._arrivals: dict[tuple[int, str], int] = {}
        self._switch_routers: dict[str, str] = {}
        self._port_names: dict[tuple[str, int], str] = {}

    # -- attachment ------------------------------------------------------

    def attach(self, network) -> "FlitTracer":
        join(network, "tracer", self)
        return self

    def _resolve(self, tap) -> None:
        # The tap's probes test the sample where it lives.
        self._traces, self._arrivals = tap.traces, tap.arrivals
        for name, router, labels in tap.switches:
            self._switch_routers[name] = router
            for port, label in enumerate(labels):
                self._port_names[(name, port)] = label

    # -- per-event handlers (the tap calls these) ---------------------------

    def _inject(self, tick: int, packet) -> None:
        if self._base_id is None:
            self._base_id = packet.packet_id
        if (packet.packet_id - self._base_id) % self.sample_period:
            return
        self._traces[packet.packet_id] = PacketTrace(
            packet_id=packet.packet_id - self._base_id,
            src=packet.src, dest=packet.dest,
            flit_count=packet.flit_count, submit_tick=tick,
        )

    def _hop(self, tick: int, switch: str, output: int, vc: int | None,
             flit) -> None:
        """A sampled head's grant: one hop of its trace."""
        router = self._switch_routers.get(switch, switch)
        self._traces[flit.packet_id].hops.append(HopRecord(
            router=router,
            output=self._port_names.get((switch, output), f"p{output}"),
            vc=vc,
            arrival_tick=self._arrivals.pop((flit.packet_id, router), None),
            grant_tick=tick,
        ))

    def _deliver(self, tick: int, packet) -> None:
        trace = self._traces.get(packet.packet_id)
        if trace is None:
            return
        trace.inject_tick = packet.inject_tick
        trace.deliver_tick = packet.eject_tick

    # -- reporting -------------------------------------------------------

    @property
    def traces(self) -> list[PacketTrace]:
        """Completed and in-flight traces, in sampling order."""
        return [self._traces[key] for key in sorted(self._traces)]

    def render(self) -> str:
        if not self._traces:
            return "no packets sampled"
        return "\n".join(trace.describe() for trace in self.traces)


def attach_tracer(network, sample_period: int = 16) -> FlitTracer:
    """Instrument a built network with a flit tracer. Attach before
    injecting traffic so the relative-id base is the first packet."""
    return FlitTracer(network.kernel, sample_period).attach(network)
