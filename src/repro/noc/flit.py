"""Flits: the unit of link-level transfer.

The demonstrator network has a 32-bit data path; a packet is serialised into
head/body/tail flits. The head flit carries the routing information (the
destination leaf address), as wormhole routing requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.errors import ConfigurationError


class FlitKind(enum.Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    SINGLE = "single"  # single-flit packet: head and tail at once


_HEADS = (FlitKind.HEAD, FlitKind.SINGLE)
_TAILS = (FlitKind.TAIL, FlitKind.SINGLE)


@dataclass(frozen=True, slots=True, init=False)
class Flit:
    """One 32-bit word on the network.

    A slotted frozen record: every router edge reads ``is_head`` /
    ``is_tail`` as plain attributes, derived once from ``kind`` at
    construction (``dataclasses.replace`` re-derives them). They take no
    part in equality, hashing or ``repr``.

    Attributes:
        kind: position within the packet.
        src: source leaf address.
        dest: destination leaf address (routing field, head flits).
        packet_id: unique id of the packet this flit belongs to.
        seq: position of this flit within its packet (0 = head).
        payload: the 32-bit data word.
        is_head: the flit opens a packet (carries routing info).
        is_tail: the flit closes a packet (releases wormhole locks).
    """

    kind: FlitKind
    src: int
    dest: int
    packet_id: int
    seq: int
    payload: int = 0
    is_head: bool = field(init=False, repr=False, compare=False)
    is_tail: bool = field(init=False, repr=False, compare=False)

    def __init__(self, kind: FlitKind, src: int, dest: int, packet_id: int,
                 seq: int, payload: int = 0) -> None:
        # Sets the slots through their descriptors: the generated frozen
        # __init__ plus __post_init__ costs twice as much per flit.
        if src < 0 or dest < 0:
            raise ConfigurationError("flit addresses must be >= 0")
        if seq < 0:
            raise ConfigurationError("flit seq must be >= 0")
        if not 0 <= payload < 2 ** 32:
            raise ConfigurationError("payload must fit in 32 bits")
        is_head = kind in _HEADS
        if is_head and seq != 0:
            raise ConfigurationError("head flit must have seq 0")
        _set_kind(self, kind)
        _set_src(self, src)
        _set_dest(self, dest)
        _set_packet_id(self, packet_id)
        _set_seq(self, seq)
        _set_payload(self, payload)
        _set_is_head(self, is_head)
        _set_is_tail(self, kind in _TAILS)

    def __reduce__(self):
        # Rebuild through __init__, so the derived bits are recomputed on
        # every Python version's pickle of a frozen slotted dataclass.
        return (Flit, (self.kind, self.src, self.dest, self.packet_id,
                       self.seq, self.payload))

    def __str__(self) -> str:
        return (f"{self.kind.value}[pkt{self.packet_id} "
                f"{self.src}->{self.dest} #{self.seq}]")


(_set_kind, _set_src, _set_dest, _set_packet_id, _set_seq, _set_payload,
 _set_is_head, _set_is_tail) = (
    getattr(Flit, f.name).__set__ for f in fields(Flit))
