"""The 2-phase valid/accept handshake channel (paper Section 5).

A channel bundles three wires between a producer and a consumer clocked at
opposite edges, with the clock edge as trigger event. Because the two ends
use alternating edges, the producer can "send the data, and receive
acknowledgment from the next stage, within the same clock cycle" —
full-speed streaming without stall buffers or double-rate clocks.
"""

from __future__ import annotations

from repro.noc.flit import Flit
from repro.sim.kernel import SimKernel
from repro.sim.signal import Signal


class HandshakeChannel:
    """One unidirectional flit channel with valid/accept flow control.

    The wire protocol, level-sensitive: at each of its edges the
    producer drives ``valid`` (True exactly while ``data`` holds a flit)
    and ``data``, holding the flit until it sees ``accept``; the consumer
    drives ``accept``, True for the half-period after the edge that
    latched the flit. Re-driving the committed object (a waiting flit, an
    idle ``False``) is a *held* drive: :meth:`Signal.set` commits nothing
    for it, and a different drive later in that tick still raises. The
    hot loops (pipeline stages, switch cores, NIs) take :attr:`wires`
    once, read ``.value`` and call ``set``; the methods below serve
    faults, debug tools and tests.
    """

    def __init__(self, kernel: SimKernel, name: str):
        self.name = name
        self._valid = kernel.signal(f"{name}.valid", initial=False)
        self._data = kernel.signal(f"{name}.data", initial=None)
        self._accept = kernel.signal(f"{name}.accept", initial=False)
        #: ``(valid, data, accept)``, for the components' edge loops.
        self.wires = (self._valid, self._data, self._accept)

    # -- watchable wires (for the idle-component contract) ---------------

    @property
    def valid_signal(self) -> Signal:
        """The valid wire — watch to wake when the producer offers data."""
        return self._valid

    @property
    def accept_signal(self) -> Signal:
        """The accept wire — watch to wake when the consumer acknowledges."""
        return self._accept

    @property
    def data_signal(self) -> Signal:
        """The data wires — observe for payload-level probes (monitors,
        VCD traces); components watch valid/accept instead."""
        return self._data

    # -- producer side --------------------------------------------------

    def drive(self, flit: Flit | None, tick: int | None = None) -> None:
        """Present a flit (or nothing) for the consumer's next edge."""
        self._valid.set(flit is not None, tick)
        self._data.set(flit, tick)

    def force_drive(self, flit: Flit | None) -> None:
        """Override the pending drive, bypassing multi-driver detection
        (fault injection only)."""
        self._valid.force(flit is not None)
        self._data.force(flit)

    @property
    def accepted(self) -> bool:
        """Did the consumer latch our flit at its last edge?"""
        return bool(self._accept.value)

    # -- consumer side --------------------------------------------------

    @property
    def valid(self) -> bool:
        return bool(self._valid.value)

    @property
    def data(self) -> Flit | None:
        return self._data.value

    def respond(self, accept: bool, tick: int | None = None) -> None:
        """Assert/deassert accept for the producer's next edge."""
        self._accept.set(accept, tick)

    def __repr__(self) -> str:
        return (f"HandshakeChannel({self.name!r}, valid={self.valid}, "
                f"accept={self.accepted})")
