"""Floorplans: embedding a topology on the chip to get physical link lengths.

The paper's demonstrator is a 10 mm x 10 mm chip with 64 ports. Binary
trees are embedded as a classic H-tree (split direction alternates level by
level, so segment lengths halve every two levels: 2.5, 2.5, 1.25, 1.25,
0.625, 0.625 mm for 64 leaves on a 10 mm die — the root links being the
2.5 mm ones the paper targets with 1.25 mm pipeline segments). Quad trees
use the recursive quadrant embedding. All lengths are Manhattan (wires are
routed rectilinearly).

The credit fabrics get their own embeddings (used by ``repro.physical``):

* :func:`grid_fabric_floorplan` — mesh and torus tiles at the natural
  grid pitch. Interior links span one tile pitch; torus wrap links are
  accounted at the *folded-torus* routing length of
  ``FOLDED_WRAP_FACTOR`` (2x) tile pitches instead of spanning the die —
  the standard folding argument bounds every wrap wire at two pitches.
  (A fully folded drawing would instead double every interior link; we
  keep natural placement so mesh and torus interior links stay directly
  comparable, and charge only the wraps the folded premium.)
* :func:`ring_fabric_floorplan` — the ring as a loop along the die
  perimeter: node ``i`` sits at arc position ``i/N`` around the
  rectangle, every link is ~``perimeter/N``.

Both store one canonical entry per bidirectional link (keyed by the
``(node, port)`` that drives it in the topology's ``links()`` order) plus
one *local stub* per node at port 0 (``LOCAL``) — the endpoint-to-router
wire, half a tile pitch — so :meth:`Floorplan.total_link_length_mm` is
the one-way clock-trunk length exactly as for the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigurationError, TopologyError
from repro.noc.topology import TreeTopology

#: Folded-torus wrap-link length, in tile pitches (Dally & Towles' folding
#: argument: interleaving each row/column bounds wrap wires at two tiles).
FOLDED_WRAP_FACTOR = 2.0


def segment_count(length_mm: float, max_segment_mm: float) -> int:
    """Pipeline segments a link of ``length_mm`` needs so no segment
    exceeds ``max_segment_mm`` — ``ceil(length / max_segment)``, with an
    epsilon so an exact multiple does not round up, and never below 1
    (a zero-length link is still one wire).

    The single segmentation rule of the repository: every network
    segments its links by it (``Network._link_segments``), and the
    zero-load latency model and the physical descriptors read the
    stages it implies from ``Network.link_register_stages``.
    A link with ``segment_count`` segments carries ``segment_count - 1``
    intermediate register stages per direction.
    """
    if max_segment_mm <= 0.0:
        raise ConfigurationError("max_segment_mm must be positive")
    if length_mm < 0.0:
        raise ConfigurationError(f"link length must be >= 0, got {length_mm}")
    return max(1, math.ceil(length_mm / max_segment_mm - 1e-9))


@dataclass
class Floorplan:
    """Geometric embedding of a tree topology.

    Attributes:
        chip_width_mm / chip_height_mm: die dimensions.
        router_positions: router index -> (x, y) in mm.
        leaf_positions: leaf address -> (x, y) in mm.
        link_lengths: (router, port) -> Manhattan wire length in mm, for
            every *downward* link (to a child router or a leaf).
    """

    chip_width_mm: float
    chip_height_mm: float
    router_positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    leaf_positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    link_lengths: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def chip_area_mm2(self) -> float:
        return self.chip_width_mm * self.chip_height_mm

    def total_link_length_mm(self) -> float:
        """Sum of all (one-way) link lengths — the clock trunk length."""
        return sum(self.link_lengths.values())

    def longest_link_mm(self) -> float:
        return max(self.link_lengths.values())

    def link_length(self, router: int, port: int) -> float:
        key = (router, port)
        if key not in self.link_lengths:
            raise TopologyError(f"no link at router {router} port {port}")
        return self.link_lengths[key]


def _manhattan(a: tuple[float, float], b: tuple[float, float]) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def h_tree_floorplan(topology: TreeTopology, chip_width_mm: float = 10.0,
                     chip_height_mm: float = 10.0) -> Floorplan:
    """H-tree embedding of a *binary* tree.

    Each router sits at the centre of its region; its two children get the
    two halves, split alternately along x and y. Root links on a 10 mm
    square 64-leaf tree come out at 2.5 mm, halving every two levels.
    """
    if topology.arity != 2:
        raise TopologyError("h_tree_floorplan requires a binary tree")
    plan = Floorplan(chip_width_mm=chip_width_mm, chip_height_mm=chip_height_mm)

    def place(router_index: int, cx: float, cy: float, w: float, h: float,
              level: int) -> None:
        plan.router_positions[router_index] = (cx, cy)
        node = topology.router(router_index)
        horizontal = level % 2 == 0  # split along x first, as in Fig. 1
        if horizontal:
            offsets = ((-w / 4.0, 0.0), (w / 4.0, 0.0))
            child_size = (w / 2.0, h)
        else:
            offsets = ((0.0, -h / 4.0), (0.0, h / 4.0))
            child_size = (w, h / 2.0)
        for port_minus_1, child in enumerate(node.children):
            dx, dy = offsets[port_minus_1]
            child_pos = (cx + dx, cy + dy)
            port = port_minus_1 + 1
            plan.link_lengths[(router_index, port)] = _manhattan(
                (cx, cy), child_pos
            )
            if node.children_are_leaves:
                plan.leaf_positions[child] = child_pos
            else:
                place(child, child_pos[0], child_pos[1],
                      child_size[0], child_size[1], level + 1)

    place(0, chip_width_mm / 2.0, chip_height_mm / 2.0,
          chip_width_mm, chip_height_mm, 0)
    return plan


def quad_tree_floorplan(topology: TreeTopology, chip_width_mm: float = 10.0,
                        chip_height_mm: float = 10.0) -> Floorplan:
    """Recursive quadrant embedding of a *quad* tree.

    Children sit at the centres of the four quadrants; Manhattan link
    length is w/4 + h/4 per level, halving each level.
    """
    if topology.arity != 4:
        raise TopologyError("quad_tree_floorplan requires a quad tree")
    plan = Floorplan(chip_width_mm=chip_width_mm, chip_height_mm=chip_height_mm)

    def place(router_index: int, cx: float, cy: float, w: float, h: float) -> None:
        plan.router_positions[router_index] = (cx, cy)
        node = topology.router(router_index)
        offsets = (
            (-w / 4.0, -h / 4.0), (w / 4.0, -h / 4.0),
            (-w / 4.0, h / 4.0), (w / 4.0, h / 4.0),
        )
        for port_minus_1, child in enumerate(node.children):
            dx, dy = offsets[port_minus_1]
            child_pos = (cx + dx, cy + dy)
            port = port_minus_1 + 1
            plan.link_lengths[(router_index, port)] = _manhattan(
                (cx, cy), child_pos
            )
            if node.children_are_leaves:
                plan.leaf_positions[child] = child_pos
            else:
                place(child, child_pos[0], child_pos[1], w / 2.0, h / 2.0)

    place(0, chip_width_mm / 2.0, chip_height_mm / 2.0,
          chip_width_mm, chip_height_mm)
    return plan


def floorplan_for(topology: TreeTopology, chip_width_mm: float = 10.0,
                  chip_height_mm: float = 10.0) -> Floorplan:
    """Dispatch on arity (binary -> H-tree, quad -> quadrants)."""
    if topology.arity == 2:
        return h_tree_floorplan(topology, chip_width_mm, chip_height_mm)
    if topology.arity == 4:
        return quad_tree_floorplan(topology, chip_width_mm, chip_height_mm)
    raise TopologyError(f"no floorplan rule for arity {topology.arity}")


#: Port 0 is the local port on every credit-fabric router; the floorplan
#: stores the endpoint stub wire under that key.
LOCAL_PORT = 0


def grid_fabric_floorplan(cols: int, rows: int,
                          links: Iterable[tuple[int, int, int, int]],
                          chip_width_mm: float = 10.0,
                          chip_height_mm: float = 10.0,
                          wrap_factor: float = FOLDED_WRAP_FACTOR,
                          ) -> Floorplan:
    """Tile a mesh/torus on the die and measure every link.

    Routers sit at tile centres (``pitch = chip / side``); each node's
    endpoint shares its tile, reached through a half-tile local stub.
    Links between grid neighbours get the Manhattan tile pitch; links
    whose endpoints are *not* grid neighbours are wrap links and get
    ``wrap_factor`` pitches in the wrapping dimension (the folded-torus
    routing length — see the module docstring). A 2-wide dimension's
    wrap is a genuine second neighbour link and stays at one pitch.
    """
    if cols < 2 or rows < 2:
        raise TopologyError("grid floorplan needs at least 2x2 tiles")
    pitch_x = chip_width_mm / cols
    pitch_y = chip_height_mm / rows
    plan = Floorplan(chip_width_mm=chip_width_mm,
                     chip_height_mm=chip_height_mm)
    for node in range(cols * rows):
        x, y = node % cols, node // cols
        position = ((x + 0.5) * pitch_x, (y + 0.5) * pitch_y)
        plan.router_positions[node] = position
        plan.leaf_positions[node] = position
        plan.link_lengths[(node, LOCAL_PORT)] = (pitch_x + pitch_y) / 4.0
    for a, a_port, b, _b_port in links:
        ax, ay = a % cols, a // cols
        bx, by = b % cols, b // cols
        dx, dy = abs(ax - bx), abs(ay - by)
        length = 0.0
        length += pitch_x * (dx if dx <= 1 else wrap_factor)
        length += pitch_y * (dy if dy <= 1 else wrap_factor)
        plan.link_lengths[(a, a_port)] = length
    return plan


def ring_fabric_floorplan(nodes: int,
                          links: Iterable[tuple[int, int, int, int]],
                          chip_width_mm: float = 10.0,
                          chip_height_mm: float = 10.0) -> Floorplan:
    """Embed a ring as a loop along the die perimeter.

    Node ``i`` sits at arc position ``i / nodes`` around the rectangle
    boundary (walked from the origin: bottom, right, top, left), so every
    link — the closing link between node ``N-1`` and node 0 included —
    spans ~``perimeter / nodes`` of rectilinear wire. Local stubs are
    half a node pitch.
    """
    if nodes < 2:
        raise TopologyError("ring floorplan needs at least 2 nodes")
    width, height = chip_width_mm, chip_height_mm
    perimeter = 2.0 * (width + height)
    pitch = perimeter / nodes

    def boundary_point(arc: float) -> tuple[float, float]:
        arc %= perimeter
        if arc < width:
            return (arc, 0.0)
        arc -= width
        if arc < height:
            return (width, arc)
        arc -= height
        if arc < width:
            return (width - arc, height)
        return (0.0, height - (arc - width))

    plan = Floorplan(chip_width_mm=width, chip_height_mm=height)
    for node in range(nodes):
        position = boundary_point(node * pitch)
        plan.router_positions[node] = position
        plan.leaf_positions[node] = position
        plan.link_lengths[(node, LOCAL_PORT)] = pitch / 2.0
    for a, a_port, b, _b_port in links:
        plan.link_lengths[(a, a_port)] = _manhattan(
            plan.router_positions[a], plan.router_positions[b]
        )
    return plan
