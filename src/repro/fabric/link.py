"""Link primitives shared by every fabric.

The repository models two link-level flow-control flavours, one per clock
regime of the paper's comparison:

* :class:`~repro.noc.handshake.HandshakeChannel` — the
  IC-NoC's 2-phase valid/accept handshake between stages clocked at
  alternating edges of the *integrated* forwarded clock. No buffers, no
  credits: the producer holds data until the consumer's accept.
* :class:`CreditLink` — one directed wire pair (or wire bundle) between
  synchronously (mesochronously) clocked routers: a ``flit`` wire
  carrying tick-tagged payloads downstream and one credit wire **per
  virtual channel** carrying tick-tagged credit returns upstream.
  Credits guarantee the consumer's input FIFO has space — the stall
  buffers the IC-NoC architecture avoids. At ``n_vcs=1`` (the wormhole
  degenerate case) the bundle collapses to the historical two-signal
  layout bit-identically: one ``credit`` wire under the historical name,
  flit payloads untagged by VC.

Tick-tagged payloads make the synchronous links race-free without a
delta-cycle scheduler: a value ``(x, sent_tick)`` driven at tick *t*
commits at the end of *t* and is consumed exactly once, at the receiver's
edge two ticks (one full clock cycle) later. Anything older is a stale
wire value and is ignored by the tag check.

**Virtual channels.** A link built with ``n_vcs=V > 1`` carries at most
one flit per cycle on the shared ``flit`` wire — VCs share the physical
channel, which is the whole point (a blocked packet on one VC no longer
blocks the link). Flit payloads become ``((flit, vc), tick)`` and each
VC's credits return on its own wire (``credit0`` … ``credit{V-1}``), so
the consumer's per-VC input FIFOs are flow-controlled independently.

**Segmented links.** A link built with ``segments=K > 1`` models the
paper's pipelined wires on the credit fabrics: the flit path becomes K
wire segments joined by ``K - 1`` clocked :class:`LinkStage` registers
(the same role the tree's :class:`~repro.noc.pipeline.PipelineStage`
plays on the handshake links), and every credit path runs back through
the same stages. End-to-end flit latency grows from 1 to K cycles, the
longest wire any clock period must cover shrinks to ``length / K``, and
the credit round trip grows to ``2 K`` cycles — which is why the consumer
FIFO behind a segmented link must hold ``pipeline_depth + 2 * segments``
flits to stream at full rate (the ``capacity`` the assembling network
attaches here; see docs/fabric.md). ``segments=1`` builds exactly the
historical two-signal link, bit-identically.

Both flavours follow the write-on-change discipline of the idle-component
contract (docs/kernel.md): an idle endpoint drives nothing, a stage with
nothing in flight sleeps watching its upstream wires, so a quiet link is
a fixed point the activity-driven kernel can sleep through.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.clocking.gating import GatingStats
from repro.errors import ConfigurationError
from repro.sim.component import ClockedComponent, GatedComponentMixin
from repro.sim.kernel import SimKernel
from repro.sim.signal import Signal

__all__ = ["CreditLink", "LinkStage", "LINK_LATENCY_TICKS"]

#: Ticks between driving a tick-tagged payload and its consumption at the
#: far end: one full clock cycle of wire flight per hop (or per segment).
#: Observability leans on this constant: a probe on a link's consumer-
#: side ``flit`` wire sees every launched flit as one change (payloads
#: are tick-tagged, never reset to None), and arrival at the consuming
#: router is the change tick plus this latency — the rule the
#: :mod:`repro.telemetry` registry and tracer use for occupancy and
#: hop-arrival timing.
LINK_LATENCY_TICKS = 2


class LinkStage(GatedComponentMixin, ClockedComponent):
    """One register stage inside a segmented credit link.

    Re-launches tick-tagged payloads one segment further each cycle:
    ``forward`` pairs carry flits downstream, ``backward`` pairs carry
    credit counts upstream. Each payload is relayed once, on the edge
    its tag falls due, and the wire is never reset — the protocol
    :class:`CreditLink` states for both directions. One stage serves
    every :class:`CreditLink` shape — one flit wire plus one credit wire
    per VC; the pair lists are the only difference.

    Honours the idle contract: an edge that registers no flit is a fixed
    point (a relayed credit leaves nothing to undo), and the stage
    sleeps watching its upstream wires. Registered flits count as
    enabled edges in the gating statistics (the stage is a clocked
    register bank).
    """

    def __init__(self, kernel: SimKernel, name: str,
                 forward: Sequence[tuple[Signal, Signal]],
                 backward: Sequence[tuple[Signal, Signal]]):
        super().__init__(name, parity=0)
        self._forward = tuple(forward)
        self._backward = tuple(backward)
        self._watch = tuple(src for src, _dst in self._forward) + \
            tuple(src for src, _dst in self._backward)
        self._gating = GatingStats()
        kernel.add_component(self)

    def on_edge(self, tick: int) -> None:
        enabled = False   # a flit crossed the register bank
        for src, dst in self._forward:
            payload = src.value
            if payload is None:
                continue
            value, sent_tick = payload
            if sent_tick == tick - LINK_LATENCY_TICKS:
                dst.set((value, tick), tick)
                enabled = True
        for src, dst in self._backward:
            payload = src.value
            if payload and payload[1] == tick - LINK_LATENCY_TICKS \
                    and payload[0]:
                dst.set((payload[0], tick), tick)
        self.record_edge(tick, enabled)
        if not enabled:
            self.sleep_until(*self._watch)


class CreditLink:
    """One directed router-to-router (or router-to-NI) connection.

    Per segment: one shared ``flit`` wire (downstream data) and one
    credit wire per VC (upstream returns). Producers drive the first
    segment and consumers see the last, so segmentation is invisible at
    the ends, and the single-VC wire layout stays the historical one.

    Attributes:
        n_vcs: virtual channels multiplexed on the flit wire (1 = the
            historical wormhole link, bit-identical wire layout and
            payload shape).
        segments: pipeline segments (1 = the historical direct wire).
        capacity: consumer FIFO depth (per VC) this link was sized for,
            or None for the consumer's default — the assembling network
            sets it so producer credits and consumer FIFO depth cannot
            disagree.
        stages: the ``segments - 1`` :class:`LinkStage` registers.
        flit_in: the producer-side flit wire (what senders drive).
        flit: the consumer-side flit wire (what receivers read and
            watch).
        credits: the producer-side credit wires, one per VC (what
            senders read and watch). At ``n_vcs=1`` the single wire is
            also exposed as ``credit`` under its historical name.
        credits_out: the consumer-side credit wires, one per VC (what
            receivers drive).

    **The wire protocol.** The hot loops (routers, sources, sinks) read
    and drive these wires themselves, once per edge, under these rules:

    * *Downstream.* At tick ``t`` the producer drives ``flit_in.set((x,
      t), t)``, where ``x`` is the flit at ``n_vcs=1`` and a ``(flit,
      vc)`` pair above. The consumer reads ``flit.value``: ``None`` on
      an idle wire, else ``(x, sent_tick)``, due on exactly the edge
      where ``sent_tick == tick - LINK_LATENCY_TICKS`` and stale on
      every later one. A flit wire is never reset: the tick tag alone
      tells a fresh payload from the last one.
    * *Upstream.* At tick ``t`` the consumer returns ``n`` credits for
      ``vc`` with ``credits_out[vc].set((n, t), t)``; an edge with no
      return drives nothing. The producer reads ``credits[vc].value``:
      ``0`` before the first return, else ``(n, sent_tick)``, due under
      the same tag rule. Like a flit wire, a credit wire is never
      reset: it keeps its last return, and the tag alone tells a fresh
      one from a stale one. A sleeping producer still wakes on every
      return, because a new tag always differs from the old one.

    ``send_flit`` and ``send_credits`` state the two drives as calls,
    for callers outside the hot loops (the array backend's write-through,
    hand-driven tests).
    """

    def __init__(self, kernel: SimKernel, name: str, n_vcs: int = 1,
                 segments: int = 1, capacity: int | None = None):
        if n_vcs < 1:
            raise ConfigurationError("a VC link needs at least 1 VC")
        if segments < 1:
            raise ConfigurationError(
                f"a link needs >= 1 segment, got {segments}"
            )
        if capacity is not None and capacity < 2:
            raise ConfigurationError(
                f"credit flow control needs link capacity >= 2, "
                f"got {capacity}"
            )
        self.name = name
        self.n_vcs = n_vcs
        self.segments = segments
        self.capacity = capacity
        self.stages: list[LinkStage] = []
        # Single-VC flit payloads stay the historical untagged
        # ``(flit, tick)`` shape; multi-VC payloads are
        # ``((flit, vc), tick)``. Probes, VCD dumps, and hand-driven
        # wires in tests see exactly the wire traffic they always did.
        self._tag_vc = n_vcs > 1

        def credit_name(vc: int) -> str:
            return f"{name}.credit" if n_vcs == 1 else f"{name}.credit{vc}"

        if segments == 1:
            self.flit: Signal = kernel.signal(f"{name}.flit", initial=None)
            self.credits: list[Signal] = [
                kernel.signal(credit_name(vc), initial=0)
                for vc in range(n_vcs)
            ]
            self.flit_in = self.flit
            self.credits_out = self.credits
        else:
            flit_wires = [kernel.signal(f"{name}.flit.s{j}", initial=None)
                          for j in range(segments - 1)]
            flit_wires.append(kernel.signal(f"{name}.flit", initial=None))
            # credit_wires[vc][j]: wire j of VC vc's upstream chain; wire
            # 0 (producer side) keeps the historical name senders watch.
            credit_wires = [
                [kernel.signal(credit_name(vc), initial=0)]
                + [kernel.signal(f"{credit_name(vc)}.s{j}", initial=0)
                   for j in range(1, segments)]
                for vc in range(n_vcs)
            ]
            self.flit = flit_wires[-1]                       # consumer side
            self.credits = [chain[0] for chain in credit_wires]
            self.flit_in = flit_wires[0]
            self.credits_out = [chain[-1] for chain in credit_wires]
            self.stages = [
                LinkStage(kernel, f"{name}.st{j}",
                          forward=[(flit_wires[j], flit_wires[j + 1])],
                          backward=[(chain[j + 1], chain[j])
                                    for chain in credit_wires])
                for j in range(segments - 1)
            ]
        if n_vcs == 1:
            self.credit: Signal = self.credits[0]

    # -- the two drives, as calls ----------------------------------------

    def send_flit(self, flit: Any, vc: int, tick: int) -> None:
        """Launch a flit on ``vc``; consumed ``segments`` cycles later."""
        payload = (flit, vc) if self._tag_vc else flit
        self.flit_in.set((payload, tick), tick)

    def send_credits(self, vc: int, count: int, tick: int) -> None:
        """Return ``count`` credits for ``vc`` (consumer side); the
        producer collects them ``segments`` cycles later."""
        self.credits_out[vc].set((count, tick), tick)

    def __repr__(self) -> str:
        parts = [repr(self.name)]
        if self.n_vcs > 1:
            parts.append(f"n_vcs={self.n_vcs}")
        if self.segments > 1:
            parts.append(f"segments={self.segments}")
        return f"CreditLink({', '.join(parts)})"
