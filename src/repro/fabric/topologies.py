"""Structure descriptions of the credit-based fabrics.

A credit-fabric structure is the class a registry entry names as its
``structure``; :class:`~repro.fabric.network.CreditFabricNetwork` builds
it from the config and assembles what it describes:

* ``from_config(config)`` — the structure a
  :class:`~repro.fabric.registry.FabricConfig` asks for (grid fabrics
  apply the grid-shape rule, :func:`grid_shape`, here);
* ``tree_legal`` — whether the link structure has no converging paths
  (the paper's integrated clock distribution needs that);
* ``nodes`` — endpoint count (one local port per node);
* ``max_ports`` — uniform router port count (local = port 0), with
  ``port_names`` its labels and ``prefix`` its components' name prefix;
* ``links()`` — the bidirectional neighbour pairs ``(a, a_port, b,
  b_port)`` in a deterministic build order (component and signal
  registration order follows it, which is what makes activity-driven and
  naive runs bit-identical);
* ``routing()`` — the routing strategy (:mod:`repro.fabric.routing`);
* ``attach(endpoint)`` — the ``(router, port)`` an endpoint hangs off:
  ``(endpoint, LOCAL)`` here, a leaf router's child port on a tree. The
  route walk (:meth:`repro.noc.base.Network.walk`) starts and stops
  there;
* ``floorplan(width, height)`` and ``describe()`` — its embedding on the
  die (:mod:`repro.noc.floorplan`) and its one-phrase summary;
* no ``hop_count``: the routers between two endpoints are the route
  walk's steps plus the one the source attaches to (``src == dest``
  counts 1). The delivered-packet statistics
  (:attr:`repro.noc.stats.NetworkStats.hop_counts`) and the physical
  descriptor's all-pairs worst case and mean
  (:meth:`repro.physical.descriptor.PhysicalModel.worst_case_hops`)
  both read it off the walk.

:class:`MeshTopology` is the paper's baseline; the ring-closing fabrics
are:

* :class:`TorusTopology` — a mesh whose rows and columns wrap around.
  Halves the worst-case hop count (``~sqrt(N)`` vs the mesh's
  ``~2*sqrt(N)``) at the price of wrap links and the bubble rule.
* :class:`RingTopology` — the minimal ring-closing fabric: 3-port
  routers, worst case ``N/2 + 1`` hops. Structurally the simplest
  mesochronous baseline, and the stress test for the bubble rule.

All of these have converging paths (two routers joined by more than one
path), so none is ``tree_legal``: none can carry the paper's
*integrated* clock distribution, as the registry checks at build time.
The tree structures (:mod:`repro.noc.topology`) implement part of this.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from repro.errors import TopologyError
from repro.fabric.routing import (
    EAST,
    LOCAL,
    NORTH,
    PORT_NAMES,
    RING_CCW,
    RING_CW,
    RING_PORT_NAMES,
    SOUTH,
    WEST,
    RingRouting,
    TorusXYRouting,
    XYRouting,
)
from repro.noc.floorplan import (
    Floorplan,
    grid_fabric_floorplan,
    ring_fabric_floorplan,
)

if TYPE_CHECKING:
    from repro.fabric.registry import FabricConfig

#: One bidirectional neighbour connection: (a, a_port, b, b_port).
LinkSpec = tuple[int, int, int, int]


def grid_shape(ports: int, rows: int | None = None) -> tuple[int, int]:
    """``(cols, rows)`` of a grid of ``ports`` nodes with ``rows`` rows,
    or a square when None — the mesh's and the torus's shape rule: both
    sides at least 2."""
    if rows is None:
        side = math.isqrt(ports)
        if side * side != ports or side < 2:
            raise TopologyError(
                f"square grid needs a square port count >= 4, got {ports}"
            )
        return side, side
    if rows < 2 or ports % rows or ports // rows < 2:
        raise TopologyError(f"grid of {ports} ports cannot have {rows} rows")
    return ports // rows, rows


def _interior_links(cols: int, rows: int) -> Iterator[LinkSpec]:
    """Neighbour pairs of a row-major cols x rows grid, in the fixed
    per-node east-then-south build order the mesh and the torus share."""
    for node in range(cols * rows):
        if node % cols < cols - 1:
            yield (node, EAST, node + 1, WEST)
        if node // cols < rows - 1:
            yield (node, SOUTH, node + cols, NORTH)


class _Grid:
    """A cols x rows grid of 5-port routers, one network port per router.

    Nodes are numbered row-major: node = y * cols + x. ``rows`` defaults
    to a square.
    """

    tree_legal = False
    #: Uniform router port count (local + 4 directions; mesh edge routers
    #: simply leave the missing directions unconnected).
    max_ports = 5
    port_names = PORT_NAMES

    def __init__(self, cols: int, rows: int | None = None):
        rows = cols if rows is None else rows
        self.cols, self.rows = grid_shape(cols * rows, rows)

    @classmethod
    def from_config(cls, config: "FabricConfig") -> "_Grid":
        return cls(*grid_shape(config.ports, config.rows))

    @property
    def nodes(self) -> int:
        return self.cols * self.rows

    @property
    def router_count(self) -> int:
        """One router per node — N routers vs the tree's N-1 shared ones."""
        return self.nodes

    def attach(self, endpoint: int) -> tuple[int, int]:
        return endpoint, LOCAL

    def coordinates(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.nodes:
            raise TopologyError(f"unknown node {node}")
        return (node % self.cols, node // self.cols)

    def floorplan(self, chip_width_mm: float,
                  chip_height_mm: float) -> Floorplan:
        return grid_fabric_floorplan(self.cols, self.rows, self.links(),
                                     chip_width_mm, chip_height_mm)

    def describe(self) -> str:
        return f"{self.cols}x{self.rows} {self.kind}"


class MeshTopology(_Grid):
    """A cols x rows mesh under XY routing: the paper's comparison
    baseline."""

    kind = "mesh"
    prefix = "m"

    def routing(self) -> XYRouting:
        return XYRouting(self.cols, self.rows)

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise TopologyError(f"({x}, {y}) outside mesh")
        return y * self.cols + x

    def links(self) -> Iterator[LinkSpec]:
        """Bidirectional neighbour pairs ``(a, a_port, b, b_port)``."""
        return _interior_links(self.cols, self.rows)


class TorusTopology(_Grid):
    """A cols x rows 2-D torus under shortest-wrap XY routing."""

    kind = "torus"
    prefix = "t"

    def routing(self) -> TorusXYRouting:
        return TorusXYRouting(self.cols, self.rows)

    def node_at(self, x: int, y: int) -> int:
        return (y % self.rows) * self.cols + (x % self.cols)

    def links(self) -> Iterator[LinkSpec]:
        """Mesh-interior links first (same order as the mesh), then the
        row/column wrap links — a fixed, documented build order."""
        cols, rows = self.cols, self.rows
        yield from _interior_links(cols, rows)
        for y in range(rows):
            yield (self.node_at(cols - 1, y), EAST, self.node_at(0, y), WEST)
        for x in range(cols):
            yield (self.node_at(x, rows - 1), SOUTH, self.node_at(x, 0), NORTH)


class RingTopology:
    """A bidirectional ring of ``nodes`` 3-port routers."""

    tree_legal = False
    max_ports = 3
    port_names = RING_PORT_NAMES
    prefix = "g"

    def __init__(self, nodes: int):
        if nodes < 2:
            raise TopologyError("ring needs at least 2 routers")
        self.nodes = nodes

    @classmethod
    def from_config(cls, config: "FabricConfig") -> "RingTopology":
        return cls(config.ports)

    def routing(self) -> RingRouting:
        return RingRouting(self.nodes)

    def floorplan(self, chip_width_mm: float,
                  chip_height_mm: float) -> Floorplan:
        return ring_fabric_floorplan(self.nodes, self.links(),
                                     chip_width_mm, chip_height_mm)

    @property
    def router_count(self) -> int:
        return self.nodes

    def attach(self, endpoint: int) -> tuple[int, int]:
        return endpoint, LOCAL

    def links(self) -> Iterator[LinkSpec]:
        for node in range(self.nodes):
            yield (node, RING_CW, (node + 1) % self.nodes, RING_CCW)

    def describe(self) -> str:
        return f"{self.nodes}-node ring"
