"""The concentrated tree: multiple network endpoints per NI.

A standard concentration step for tree NoCs: ``concentration`` endpoints
share each leaf port (and its NI), so an N-endpoint system needs only
``N / concentration`` leaves — fewer routers, shorter trees, at the price
of multiplexing the shared injection port. Because the link structure is
still a tree, the fabric remains *integrated-clock legal*: no converging
paths, the clock rides the data links exactly as in the paper.

Addressing: endpoint ``e`` hangs off leaf ``e // concentration``
(:class:`~repro.noc.topology.ConcentratedTreeTopology`). The routers run
the same up*/down* strategy over endpoint addresses; the NIs and the
whole tree stack are reused unchanged.

Endpoint pairs sharing a leaf never enter the network — the concentrator
mux delivers them locally in one clock cycle (a tree router would see the
packet leave and re-enter the same port, a structural U-turn). Local
deliveries use an exact-tick kernel timer, so both kernel modes observe
identical delivery ticks.

**Hop convention**: a hop is one switching element on the datapath —
every fabric records the routers a packet traverses, and the same-leaf
mux turnaround records **1** hop for its one-cycle local mux (it is the
sole switch on that path; the route walk takes no step between
endpoints on one leaf router, and such a pair counts the one router it
attaches to). Recording 0 would silently deflate mean-hop
and energy-per-flit statistics the physical comparisons divide by.
Cross-leaf deliveries count tree routers exactly as the flat tree does;
the muxes they also pass through are folded into the shared NI (the
energy model in :mod:`repro.physical.descriptor` still prices them).
"""

from __future__ import annotations

from repro.noc.network import ICNoCNetwork
from repro.noc.packet import Packet


class ConcentratedTreeNetwork(ICNoCNetwork):
    """A tree IC-NoC whose leaves each serve ``config.concentration``
    endpoints.

    ``config.ports`` counts the *endpoints*; the tree has
    ``ports / concentration`` leaves, and the standard ``send`` /
    ``drain`` / ``stats`` API addresses endpoints throughout.
    """

    #: Ticks the concentrator mux takes to turn a same-leaf packet
    #: round, whatever its length.
    local_turnaround_ticks = 2

    def zero_load_latency_ticks(self, srcs, dests, flits: int = 1):
        import numpy as np
        ticks = super().zero_load_latency_ticks(srcs, dests, flits)
        leaf_of = self.topology.leaf_of
        same = leaf_of(np.asarray(srcs)) == leaf_of(np.asarray(dests))
        ticks[same] = self.local_turnaround_ticks
        return ticks

    # -- run-time API ------------------------------------------------------

    def _submit(self, packet: Packet) -> None:
        from_leaf = self.topology.leaf_of(packet.src)
        if from_leaf == self.topology.leaf_of(packet.dest):
            self._deliver_locally(packet)
        else:
            # Straight to the shared NI's egress half (the NI's own
            # submit checks the one-leaf-one-address invariant the mux
            # relaxes).
            self.nis[from_leaf].source.submit(packet)

    def _deliver_locally(self, packet: Packet) -> None:
        """Concentrator-mux turnaround: one clock cycle, no network."""
        packet.inject_tick = self.kernel.tick

        def deliver(tick: int, packet: Packet = packet) -> None:
            packet.eject_tick = tick
            self._deliver(packet, tick)
            self.kernel.emit("packet", packet)

        self.kernel.call_at(self.kernel.tick + self.local_turnaround_ticks,
                            deliver)

    def describe(self) -> str:
        return (f"{super().describe()}, concentration "
                f"{self.topology.concentration} "
                f"({self.endpoints} endpoints)")
