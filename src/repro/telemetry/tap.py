"""One attach path for a network's telemetry.

The metrics registry and the flit tracer watch the same things: every
grant and every flit-wire change. The registry also hears
``credit_exhausted`` and ``vc_allocated``, and the tracer the
per-packet ``inject`` and ``packet`` events (the registry reads its
packet counts off the network's delivery record instead). A
:class:`TelemetryTap` feeds one of each through **one probe per wire
and one listener per event** (see :func:`join`); a second consumer of a
kind opens a second tap.

**A grant is read off the wire it drives.** A switch listed by
:meth:`~repro.noc.base.Network.grant_wires` (an unpipelined credit
router) drives its output wire in the edge that grants it, so each
grant is one change of that tick-tagged wire, carrying the flit and its
VC. There nobody subscribes to ``arbitration_grant`` and no grant
payload is built: one probe call records the grant and, on a link
between routers, the flit's launch toward the consumer's FIFOs. Other
switches (a pipelined router, the tree's handshake switch) are read from
their ``arbitration_grant`` events. Read off the wire, a grant counts at
its tick's commit, not in the edge: no summary can tell, since a summary
is taken between ticks and a starving output is never granted in the
edge that reports it.

Everything a flit updates is defined here, beside the callbacks that
update it: the registry's share is integer updates on its
:class:`PortTables` (which :meth:`PortTables.report` turns into the
summary's tables), and the tracer's is one membership test of the packet
id in the tap's ``traces``, the tracer's sample.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.fabric.link import LINK_LATENCY_TICKS

Listener = Callable[[int, Any], None]


def join(network, role: str, consumer) -> "TelemetryTap":
    """Attach ``consumer`` as ``role`` (``"registry"`` or ``"tracer"``)
    of the first of the network's taps that has none, opening one if
    every tap has.

    A registry's :class:`PortTables` are opened as it joins. The probes
    and listeners are built when the first consumer joins and rebuilt
    when a registry joins. A tracer joining later adds only its two
    per-packet listeners: every probe already tests the tap's
    ``traces``, the sample the tracer adopts (empty until then)."""
    taps = vars(network).setdefault("_telemetry_taps", [])
    tap = next((tap for tap in taps if getattr(tap, role) is None), None)
    if tap is None:
        tap = TelemetryTap(network)
        taps.append(tap)
    if role == "registry":
        tap.tables = PortTables(tap)
    consumer._resolve(tap)
    setattr(tap, role, consumer)
    if role == "registry" or not tap.installed:
        tap.install()
    else:
        for event, listener in tap._packet_events():
            tap._subscribe(event, listener)
    return tap


class BufferLevel:
    """One switch's grant count and, on a router with input FIFOs, its
    buffer level, updated in place by the tap's callbacks with integer
    arithmetic.

    The time integral of a level is ``sum(end - arrival) -
    sum(end - dequeue)``, so it needs only the arrival and dequeue counts
    and tick sums, in any order. The peak needs order: a level can peak
    only as arrivals land, and a dequeue at an arrival's tick comes
    first (the router's edge dequeues before it enqueues).

    Counts are kept per *epoch*, the tick of the router's latest event:
    ``dequeued`` grants at it, and ``launched`` flits toward its FIFOs at
    it, which land one link latency later. Every credit component clocks
    on the same edge, so the first event of a later tick closes the
    epoch — every dequeue up to it is counted and none after — and
    :meth:`advance` folds it in: the flits that landed at the epoch
    (all launched before it) set a peak candidate, and its launches join
    ``landed``, with one more candidate if they landed before the new
    tick. So a flit costs one increment per role, after
    ``if level.epoch != tick: level.advance(tick)``, and the ordered work
    is once per router and tick.
    """

    __slots__ = ("epoch", "granted", "dequeued", "dequeued_ticks",
                 "landed", "launched", "landed_ticks", "peak")

    def __init__(self) -> None:
        self.epoch = -1
        self.granted = self.dequeued = self.dequeued_ticks = 0
        self.landed = self.launched = self.landed_ticks = 0
        self.peak = 0

    def advance(self, tick: int) -> None:
        """Close the epoch at the router's first event of ``tick``."""
        epoch, dequeued, launched = self.epoch, self.dequeued, self.launched
        granted, landed, peak = self.granted, self.landed, self.peak
        if dequeued:
            granted += dequeued
            self.granted = granted
            self.dequeued_ticks += dequeued * epoch
            self.dequeued = 0
        if landed - granted > peak:
            peak = landed - granted
        if launched:
            landed += launched
            self.landed = landed
            self.landed_ticks += launched * (epoch + LINK_LATENCY_TICKS)
            self.launched = 0
            if landed - granted > peak \
                    and epoch + LINK_LATENCY_TICKS < tick:
                peak = landed - granted
        self.peak = peak
        self.epoch = tick

    @property
    def grants(self) -> int:
        return self.granted + self.dequeued

    def occupancy(self, start: int, end: int) -> tuple[int, float]:
        """``(peak, time-weighted mean)`` of the level over [start, end]
        (read-only, between ticks): flits due by ``end`` have landed,
        dequeues at ``end`` have not happened."""
        granted = self.granted + self.dequeued
        dequeued_ticks = self.dequeued_ticks + self.dequeued * self.epoch
        landed, ticks = self.landed, self.landed_ticks
        peak = max(self.peak, landed - granted)
        if self.launched and self.epoch + LINK_LATENCY_TICKS <= end:
            landed += self.launched
            ticks += self.launched * (self.epoch + LINK_LATENCY_TICKS)
            peak = max(peak, landed - granted)
        span = end - start
        if span <= 0:
            return peak, float(landed - granted)
        integral = (landed * end - ticks) - (granted * end - dequeued_ticks)
        return peak, integral / span


class PortTables:
    """A metrics registry's per-flit state: flat integer tables resolved
    at attach, updated only by the tap's callbacks.

    ``changes`` counts the changes of every probed signal (the tap's
    ``signals``): a link's flit count and, on one VC, its driving
    output's grant count. ``levels`` holds a :class:`BufferLevel` per
    switch by grant name, and ``fifos`` the same levels by router name
    for the routers with input FIFOs (the consumers of credit wires).
    Per-port counters are by *slot*, one per ``(switch, output, vc)``,
    ``vc`` None on a switch whose events carry none. A grant wire's VC
    slots are consecutive from its base slot in ``wire_slots``, so its
    probe indexes ``base + vc``. The ``router:port:vcN`` key strings are
    built only by :meth:`report`.
    """

    def __init__(self, tap: "TelemetryTap"):
        # A handshake channel's busy level; the module imports this one.
        from repro.telemetry.metrics import TimeWeightedGauge
        wires = tap.wires
        self.link_names = [name for name, *_ in wires]
        self.changes = [0] * len(tap.signals)
        self.link_busy = [None if is_credit
                          else TimeWeightedGauge(tap.kernel.tick)
                          for *_, is_credit in wires]
        fifo_routers = {consumer for *_, consumer, is_credit in wires
                        if is_credit}
        self.port_names: dict[tuple[str, int], str] = {}
        self.levels: dict[str, BufferLevel] = {}
        self.fifos: dict[str, BufferLevel] = {}
        for name, router, labels in tap.switches:
            for port, label in enumerate(labels):
                self.port_names[(name, port)] = label
            level = self.levels[name] = BufferLevel()
            if router in fifo_routers:
                self.fifos[router] = level
        self.slots: dict[tuple[str, int, int | None], int] = {}
        self.slot_keys: list[str] = []
        self.grants: list[int] = []
        self.vc_allocs: list[int] = []
        # Credit-stall episodes by slot: open ones' starting ticks, the
        # ticks of closed ones, and how many began.
        self.stall_open: dict[int, int] = {}
        self.stall_ticks: dict[int, int] = {}
        self.stall_events: dict[int, int] = {}
        # A one-VC grant wire's slot reads its grants off the wire's
        # change count.
        self.slot_signal: dict[int, int] = {}
        self.wire_slots: dict[int, int] = {}
        for index, (name, output) in tap.grant_wires.items():
            base = self.wire_slots[index] = self.slot(name, output, 0)
            for vc in range(1, tap.n_vcs):
                self.slot(name, output, vc)
            if tap.n_vcs == 1:
                self.slot_signal[base] = index

    def slot(self, switch: str, output: int, vc: int | None) -> int:
        """The slot of ``(switch, output, vc)``, assigned on first use."""
        slot = self.slots.get((switch, output, vc))
        if slot is None:
            slot = self.slots[switch, output, vc] = len(self.grants)
            self.grants.append(0)
            self.vc_allocs.append(0)
        return slot

    def close_stall(self, slot: int, tick: int) -> None:
        self.stall_ticks[slot] = (self.stall_ticks.get(slot, 0)
                                  + tick - self.stall_open.pop(slot))

    def starve(self, tick: int, data: dict) -> None:
        """The ``credit_exhausted`` listener: open a stall episode."""
        slot = self.slot(data["router"], data["output"], data.get("vc"))
        if slot not in self.stall_open:
            self.stall_open[slot] = tick
            self.stall_events[slot] = self.stall_events.get(slot, 0) + 1

    def vc_allocated(self, tick: int, data: dict) -> None:
        """The ``vc_allocated`` listener."""
        self.vc_allocs[self.slot(data["router"], data["output"],
                                 data["vc"])] += 1

    def _keys(self) -> list[str]:
        """The ``router:port:vcN`` key of every slot, built once each."""
        keys = self.slot_keys
        if len(keys) < len(self.slots):
            for switch, output, vc in list(self.slots)[len(keys):]:
                label = self.port_names.get((switch, output), f"p{output}")
                keys.append(f"{switch}:{label}" if vc is None
                            else f"{switch}:{label}:vc{vc}")
        return keys

    def report(self, start: int, end: int) -> dict[str, dict]:
        """The link, router and port tables of a summary over
        [start, end] (read-only, between ticks), by field name of
        :class:`~repro.telemetry.metrics.MetricsSummary`."""
        elapsed_cycles = (end - start) / 2.0
        utilization: dict[str, float] = {}
        for name, flits, busy in zip(self.link_names, self.changes,
                                     self.link_busy):
            if busy is None:
                # Each launched flit holds the wire for one cycle.
                utilization[name] = (flits / elapsed_cycles
                                     if elapsed_cycles else 0.0)
            else:
                utilization[name] = busy.mean(end)
        keys = self._keys()
        grants = list(self.grants)
        for slot, index in self.slot_signal.items():
            grants[slot] = self.changes[index]
        stall_cycles: dict[str, float] = {}
        for slot in sorted(self.stall_events):
            closed = self.stall_ticks.get(slot)
            cycles = 0.0 if closed is None else closed / 2.0
            if slot in self.stall_open:
                cycles += (end - self.stall_open[slot]) / 2.0
            stall_cycles[keys[slot]] = cycles
        occupancy_peak: dict[str, int] = {}
        occupancy_mean: dict[str, float] = {}
        for router, level in self.fifos.items():
            occupancy_peak[router], occupancy_mean[router] = \
                level.occupancy(start, end)
        return dict(
            link_flits=dict(zip(self.link_names, self.changes)),
            link_utilization=utilization,
            router_grants={name: level.grants
                           for name, level in self.levels.items()},
            port_grants={keys[slot]: count
                         for slot, count in enumerate(grants) if count},
            occupancy_peak=occupancy_peak,
            occupancy_mean=occupancy_mean,
            stall_cycles=stall_cycles,
            stall_events={keys[slot]: self.stall_events[slot]
                          for slot in sorted(self.stall_events)},
            vc_allocations={keys[slot]: count for slot, count
                            in enumerate(self.vc_allocs) if count},
        )


class TelemetryTap:
    """The probes and listeners one registry and one tracer share.

    ``wires`` and ``switches`` are the network's
    :meth:`~repro.noc.base.Network.flit_wires` and
    :meth:`~repro.noc.base.Network.switches`, read once; consumers index
    their state by position in them. ``signals`` lists every signal
    probed, the flit wires' first, and ``grant_wires`` maps a signal's
    index there to the ``(switch, output)`` whose grants it carries —
    empty unless every switch has grant wires. ``tables`` are the
    registry's :class:`PortTables` (None without one); ``traces``
    (absolute packet id -> trace) and ``arrivals`` ((id, router) -> a
    sampled head's arrival tick) are the tracer's.
    """

    def __init__(self, network):
        self.kernel = network.kernel
        self.wires = list(network.flit_wires())
        self.switches = list(network.switches())
        #: Grant events carry a ``vc`` on the credit fabrics only.
        credit = any(is_credit for *_, is_credit in self.wires)
        self.n_vcs = network.n_vcs if credit else None
        # Every signal probed, indexed: the flit wires first (a link's
        # launches, by wire index), then any grant wire that is none.
        self.signals = [signal for _n, signal, *_ in self.wires]
        self.grant_wires: dict[int, tuple[str, int]] = {}
        grant_wires = list(network.grant_wires())
        if {name for name, *_ in grant_wires} == \
                {name for name, *_ in self.switches}:
            index_of = {id(signal): index
                        for index, signal in enumerate(self.signals)}
            for name, output, signal in grant_wires:
                index = index_of.get(id(signal))
                if index is None:
                    index = len(self.signals)
                    self.signals.append(signal)
                self.grant_wires[index] = (name, output)
        self.registry = None
        self.tracer = None
        self.tables: PortTables | None = None
        self.traces: dict[int, Any] = {}
        self.arrivals: dict[tuple[int, str], int] = {}
        self.installed = False
        self._probes: list[tuple[Any, Listener]] = []
        self._listeners: list[tuple[str, Listener]] = []

    def install(self) -> None:
        """(Re)build the probes and listeners for the consumers present."""
        kernel = self.kernel
        for signal, probe in self._probes:
            signal.detach_probe(probe)
        for event, listener in self._listeners:
            kernel.unsubscribe(event, listener)
        self._probes, self._listeners = [], []
        for index, signal in enumerate(self.signals):
            if index < len(self.wires):
                _name, _signal, consumer, is_credit = self.wires[index]
                probe = (self._credit_probe(index, consumer) if is_credit
                         else self._channel_probe(index, consumer))
            else:
                probe = self._credit_probe(index, None)
            signal.attach_probe(probe)
            self._probes.append((signal, probe))
        for event, listener in self._events():
            self._subscribe(event, listener)
        self.installed = True

    def _subscribe(self, event: str, listener: Listener) -> None:
        self.kernel.subscribe(event, listener)
        self._listeners.append((event, listener))

    def hop(self, tick: int, switch: str, output: int, vc: int | None,
            flit) -> None:
        """A sampled head's grant, for the tracer."""
        self.tracer._hop(tick, switch, output, vc, flit)

    # -- per-flit callbacks ------------------------------------------------

    def _credit_probe(self, index: int, consumer: str | None):
        """A tick-tagged flit wire's probe, in up to two roles: the grants
        of the ``(switch, output)`` that drives it, if it is a grant
        wire, and the launches landing in ``consumer``'s FIFOs one link
        latency later, if it is a flit wire into a router."""
        tables = self.tables
        grant = self.grant_wires.get(index)
        name = output = None
        changes = producer = fifo = base = stall_open = grants = None
        traces, arrivals, hop = self.traces, self.arrivals, self.hop
        tagged = self.n_vcs > 1   # VC wires carry ((flit, vc), tick)
        if grant is not None:
            name, output = grant
        if tables is not None:
            changes = tables.changes
            if grant is not None:
                producer = tables.levels[name]
                base = tables.wire_slots[index]
                stall_open = tables.stall_open
                if tagged:
                    grants = tables.grants
            if consumer is not None:
                fifo = tables.fifos[consumer]

        # The registry's share is a grant of the driving switch (one
        # dequeue from its FIFOs) and a launch into the consumer's: this
        # runs once per flit and hop. The change count is the link's
        # flit count and, on one VC, the output's grant count.
        def probe(tick, sig, old, new):
            if new is None:
                return
            if changes is not None:
                changes[index] += 1
                if producer is not None:
                    if producer.epoch != tick:
                        producer.advance(tick)
                    producer.dequeued += 1
                    slot = base
                    if grants is not None:
                        slot += new[0][1]
                        grants[slot] += 1
                    if stall_open and slot in stall_open:
                        tables.close_stall(slot, tick)
                if fifo is not None:
                    if fifo.epoch != tick:
                        fifo.advance(tick)
                    fifo.launched += 1
            if traces:
                flit = new[0][0] if tagged else new[0]
                if flit.packet_id in traces and flit.is_head:
                    if name is not None:
                        hop(tick, name, output,
                            new[0][1] if tagged else 0, flit)
                    if consumer is not None:
                        arrivals.setdefault((flit.packet_id, consumer),
                                            tick + LINK_LATENCY_TICKS)
        return probe

    def _channel_probe(self, index: int, consumer: str | None):
        """A handshake data wire's probe: the link is busy while it
        holds a flit, which arrives at ``consumer`` as it is offered."""
        tables = self.tables
        counts = busy = None
        traces, arrivals = self.traces, self.arrivals
        if tables is not None:
            counts, busy = tables.changes, tables.link_busy[index]

        def probe(tick, sig, old, new):
            if counts is not None:
                if new is not None:
                    counts[index] += 1
                busy.update(tick, 0 if new is None else 1)
            if traces and new is not None and new.packet_id in traces \
                    and new.is_head:
                arrivals.setdefault((new.packet_id, consumer), tick)
        return probe

    # -- per-event listeners -----------------------------------------------

    def _grant_listener(self) -> Listener:
        """The ``arbitration_grant`` listener of switches without grant
        wires; the registry's share is the wire probe's grant role, with
        the slot looked up by ``(switch, output, vc)``."""
        tables = self.tables
        traces, hop = self.traces, self.hop

        def on_grant(tick, data):
            switch, output, vc = data["router"], data["output"], \
                data.get("vc")
            if tables is not None:
                slot = tables.slots.get((switch, output, vc))
                if slot is None:
                    slot = tables.slot(switch, output, vc)
                tables.grants[slot] += 1
                level = tables.levels[switch]
                if level.epoch != tick:
                    level.advance(tick)
                level.dequeued += 1
                if tables.stall_open and slot in tables.stall_open:
                    tables.close_stall(slot, tick)
            if traces:
                flit = data["flit"]
                if flit.packet_id in traces and flit.is_head:
                    hop(tick, switch, output, vc, flit)
        return on_grant

    def _packet_events(self) -> list[tuple[str, Listener]]:
        """The tracer's per-packet listeners (none without a tracer)."""
        tracer = self.tracer
        if tracer is None:
            return []
        return [("inject", tracer._inject), ("packet", tracer._deliver)]

    def _events(self) -> list[tuple[str, Listener]]:
        events = self._packet_events()
        if not self.grant_wires:
            events.append(("arbitration_grant", self._grant_listener()))
        if self.tables is not None:
            events += [("credit_exhausted", self.tables.starve),
                       ("vc_allocated", self.tables.vc_allocated)]
        return events
