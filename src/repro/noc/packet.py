"""Packets and their (de)serialisation into flits."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ProtocolError
from repro.noc.flit import Flit, FlitKind

_packet_ids = itertools.count()
# Bound once: an enum member lookup costs more than a module global.
_HEAD, _BODY, _TAIL, _SINGLE = (FlitKind.HEAD, FlitKind.BODY, FlitKind.TAIL,
                                FlitKind.SINGLE)


def next_packet_id() -> int:
    """A process-wide unique packet id (deterministic sequence)."""
    return next(_packet_ids)


@dataclass
class Packet:
    """A message between two network ports.

    Attributes:
        src: source leaf address.
        dest: destination leaf address.
        payload: the 32-bit words carried (one flit per word; empty payload
            makes a single header-only flit).
        packet_id: unique id, auto-assigned when omitted.
        inject_tick / eject_tick: filled in by the network for statistics.
    """

    src: int
    dest: int
    payload: list[int] = field(default_factory=list)
    packet_id: int = field(default_factory=next_packet_id)
    inject_tick: int | None = None
    eject_tick: int | None = None

    def __post_init__(self) -> None:
        if self.src < 0 or self.dest < 0:
            raise ConfigurationError("packet addresses must be >= 0")
        for word in self.payload:
            if not 0 <= word < 2 ** 32:
                raise ConfigurationError("payload words must fit in 32 bits")

    @property
    def flit_count(self) -> int:
        return max(1, len(self.payload))

    def to_flits(self) -> list[Flit]:
        """Serialise into head/body/tail flits (or one SINGLE flit)."""
        words = self.payload if self.payload else [0]
        src, dest, packet_id = self.src, self.dest, self.packet_id
        if len(words) == 1:
            return [Flit(_SINGLE, src, dest, packet_id, 0, words[0])]
        # Positional: a keyword call would build a kwargs dict per flit.
        last = len(words) - 1
        return [Flit(_HEAD if seq == 0 else _TAIL if seq == last else _BODY,
                     src, dest, packet_id, seq, word)
                for seq, word in enumerate(words)]

    @staticmethod
    def from_flits(flits: list[Flit]) -> "Packet":
        """Reassemble a packet, validating protocol invariants.

        Raises :class:`ProtocolError` on missing/duplicated/reordered flits
        or mixed packets — the checks the property tests lean on.
        """
        if not flits:
            raise ProtocolError("cannot reassemble an empty flit list")
        head = flits[0]
        if not head.is_head:
            raise ProtocolError(f"first flit is not a head: {head}")
        if not flits[-1].is_tail:
            raise ProtocolError(f"last flit is not a tail: {flits[-1]}")
        for i, flit in enumerate(flits):
            if flit.packet_id != head.packet_id:
                raise ProtocolError(
                    f"mixed packets: {flit.packet_id} vs {head.packet_id}"
                )
            if flit.seq != i:
                raise ProtocolError(
                    f"flit out of order: expected seq {i}, got {flit.seq}"
                )
            if 0 < i < len(flits) - 1 and flit.kind != _BODY:
                raise ProtocolError(f"unexpected {flit.kind} mid-packet")
        return Packet(
            src=head.src,
            dest=head.dest,
            payload=[flit.payload for flit in flits],
            packet_id=head.packet_id,
        )

    @property
    def latency_ticks(self) -> int:
        """Inject-to-eject latency in half-cycles (after delivery)."""
        if self.inject_tick is None or self.eject_tick is None:
            raise ConfigurationError("packet has not completed transit")
        return self.eject_tick - self.inject_tick

    @property
    def latency_cycles(self) -> float:
        return self.latency_ticks / 2.0
