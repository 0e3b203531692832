"""The mesh's router — a 5-port :class:`FabricRouter` under the XY
strategy: XY selection, credits, wormhole locks."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.link import CreditLink
from repro.fabric.router import FabricRouter
from repro.fabric.routing import (
    LOCAL,
    NORTH,
    EAST,
    SOUTH,
    WEST,
    PORT_NAMES,
    XYRouting,
)
from repro.noc.flit import Flit, FlitKind
from repro.sim.kernel import SimKernel


def flit_to(dest, kind=FlitKind.SINGLE, seq=0, packet_id=0):
    return Flit(kind=kind, src=0, dest=dest, packet_id=packet_id, seq=seq)


def mesh_router(kernel, cols, rows, node, **kwargs):
    return FabricRouter(kernel, "r", n_ports=5,
                        route=XYRouting(cols, rows).for_node(node),
                        port_names=PORT_NAMES, **kwargs)


def centre_router():
    """Router at (1,1) of a 3x3 mesh: all five ports live."""
    kernel = SimKernel()
    router = mesh_router(kernel, 3, 3, node=4)
    links = {}
    for port in (LOCAL, NORTH, EAST, SOUTH, WEST):
        in_link = CreditLink(kernel, f"in{port}")
        out_link = CreditLink(kernel, f"out{port}")
        router.connect(port, in_link, out_link)
        links[port] = (in_link, out_link)
    return kernel, router, links


class TestXYSelection:
    def test_east_for_higher_x(self):
        _, router, _ = centre_router()
        assert router._route(flit_to(dest=5)) == EAST   # (2,1)

    def test_west_for_lower_x(self):
        _, router, _ = centre_router()
        assert router._route(flit_to(dest=3)) == WEST   # (0,1)

    def test_x_resolves_before_y(self):
        _, router, _ = centre_router()
        # dest (2,2): east first even though y also differs.
        assert router._route(flit_to(dest=8)) == EAST

    def test_south_when_x_matches(self):
        _, router, _ = centre_router()
        assert router._route(flit_to(dest=7)) == SOUTH  # (1,2)

    def test_local_when_home(self):
        _, router, _ = centre_router()
        assert router._route(flit_to(dest=4)) == LOCAL  # (1,1)


class TestCredits:
    def test_initial_credits_equal_depth(self):
        _, router, _ = centre_router()
        for port in (LOCAL, NORTH, EAST, SOUTH, WEST):
            assert router.credits[port] == router.buffer_depth

    def test_forwarding_consumes_credit(self):
        kernel, router, links = centre_router()
        in_link, _ = links[WEST]
        in_link.flit.set((flit_to(dest=5), 0), 0)  # inject eastbound
        kernel.run_ticks(6)
        assert router.credits[EAST] == router.buffer_depth - 1

    def test_credit_return_restores(self):
        kernel, router, links = centre_router()
        in_link, _ = links[WEST]
        in_link.flit.set((flit_to(dest=5), 0), 0)
        kernel.run_ticks(6)
        assert router.credits[EAST] == router.buffer_depth - 1
        # Downstream returns the credit (visible to the router one cycle
        # after this tick, per the link's tick-tagged payloads).
        _, out_link = links[EAST]
        out_link.credit.set((1, kernel.tick), kernel.tick)
        kernel.run_ticks(4)
        assert router.credits[EAST] == router.buffer_depth

    def test_no_credits_no_forwarding(self):
        kernel, router, links = centre_router()
        router.credits[EAST] = 0
        in_link, out_link = links[WEST][0], links[EAST][1]
        in_link.flit.set((flit_to(dest=5), 0), 0)
        kernel.run_ticks(10)
        assert router.buffered_flits == 1  # stuck in the input FIFO
        assert router.flits_forwarded == 0

    def test_shallow_buffer_rejected(self):
        kernel = SimKernel()
        with pytest.raises(ConfigurationError):
            mesh_router(kernel, 2, 2, node=0, buffer_depth=1)


class TestWormholeLock:
    def test_lock_held_until_tail(self):
        kernel, router, links = centre_router()
        in_west, _ = links[WEST]
        in_north, _ = links[NORTH]
        # A 3-flit packet from WEST holds EAST...
        head = flit_to(5, FlitKind.HEAD, seq=0, packet_id=1)
        in_west.flit.set((head, 0), 0)
        kernel.run_ticks(6)  # arrive (tick 2), forward + lock (tick 4)
        assert router.locks[EAST] == WEST
        # ...so a competing head from NORTH cannot take EAST.
        rival = flit_to(5, FlitKind.SINGLE, seq=0, packet_id=2)
        in_north.flit.set((rival, kernel.tick), kernel.tick)
        kernel.run_ticks(6)
        assert router.locks[EAST] == WEST

    def test_lock_released_by_tail(self):
        kernel, router, links = centre_router()
        in_west, _ = links[WEST]
        head = flit_to(5, FlitKind.HEAD, seq=0, packet_id=1)
        in_west.flit.set((head, 0), 0)
        kernel.run_ticks(6)
        tail = flit_to(5, FlitKind.TAIL, seq=1, packet_id=1)
        in_west.flit.set((tail, kernel.tick), kernel.tick)
        kernel.run_ticks(6)
        assert router.locks[EAST] is None
