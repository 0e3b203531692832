"""Tree structures: binary (3x3 routers), quad (5x5) and concentrated.

The clock distribution requires a tree — "no converging paths are allowed
in the network" (Section 3). A :class:`TreeTopology` describes the routers,
the leaves (network ports), and the parent/child relations; the
per-pair hop count lives here because it is purely structural (the
all-pairs worst case and mean are the physical descriptor's, over the
route walk).

Both classes are registry structures, with the part of the credit
structures' contract (:mod:`repro.fabric.topologies`) a tree has:
``from_config``, ``routing()``, ``links()`` between routers, ``attach``
(an endpoint's leaf router and child port, where a route walk starts and
stops) and ``hop_count``. This module imports only
:mod:`repro.errors`, so the registry reads it without loading the tree's
datapath.

Addressing: leaves are numbered 0..N-1 left to right; every router covers a
contiguous leaf range, so the routing decision at a router is "is the
destination in one of my children's ranges? then down that child, else up".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigurationError, TopologyError

if TYPE_CHECKING:
    from repro.fabric.registry import FabricConfig
    from repro.fabric.routing import TreeUpDownRouting

#: Port index of the parent link on every router (children follow).
PARENT_PORT = 0


@dataclass(frozen=True)
class RouterNode:
    """One router of the tree.

    Attributes:
        index: router id, 0 = root, breadth-first order.
        level: depth from the root (root = 0).
        leaf_range: (first, last+1) leaf addresses under this router.
        parent: router id of the parent, None for the root.
        children: router ids (internal levels) or leaf addresses (last
            level), in left-to-right order.
        children_are_leaves: whether ``children`` holds leaf addresses.
    """

    index: int
    level: int
    leaf_range: tuple[int, int]
    parent: int | None
    children: tuple[int, ...]
    children_are_leaves: bool

    @property
    def ports(self) -> int:
        """Physical port count: children plus the parent link (root has
        no parent, but keeps the port for symmetry with the paper's 3x3 /
        5x5 naming — it is simply left unconnected)."""
        return len(self.children) + 1


class TreeTopology:
    """A complete tree of routers with N = arity^depth leaves, depth >= 1."""

    #: No converging paths, so the integrated clock distribution applies.
    tree_legal = True
    #: Endpoints sharing each leaf (see :meth:`leaf_of`).
    concentration = 1
    #: What the power-of-arity rule calls the leaf count.
    _leaves_named = "tree ports"

    def __init__(self, leaves: int, arity: int = 2):
        if arity < 2:
            raise TopologyError("tree arity must be >= 2")
        depth, count = 1, arity
        while count < leaves:
            count *= arity
            depth += 1
        if count != leaves:
            raise TopologyError(
                f"{self._leaves_named} must be a power of {arity}, "
                f"got {leaves}"
            )
        self.leaves = leaves
        self.arity = arity
        self.depth = depth
        self.routers: list[RouterNode] = []
        self._build()

    def _build(self) -> None:
        # Router levels 0..depth-1; level l has arity^l routers; routers at
        # level depth-1 connect to leaves.
        index = 0
        level_start = {0: 0}
        for level in range(self.depth):
            level_start[level + 1] = level_start[level] + self.arity ** level
        for level in range(self.depth):
            routers_here = self.arity ** level
            leaves_per = self.leaves // routers_here
            for pos in range(routers_here):
                first_leaf = pos * leaves_per
                is_last_level = level == self.depth - 1
                if is_last_level:
                    children = tuple(first_leaf + i for i in range(self.arity))
                else:
                    child_base = level_start[level + 1] + pos * self.arity
                    children = tuple(child_base + i for i in range(self.arity))
                parent = None
                if level > 0:
                    parent = level_start[level - 1] + pos // self.arity
                self.routers.append(RouterNode(
                    index=index, level=level,
                    leaf_range=(first_leaf, first_leaf + leaves_per),
                    parent=parent, children=children,
                    children_are_leaves=is_last_level,
                ))
                index += 1

    @classmethod
    def from_config(cls, config: "FabricConfig") -> "TreeTopology":
        tree = cls(config.ports, config.arity)
        if config.allocator == "local_priority" and config.arity != 2:
            raise ConfigurationError(
                f"local_priority assumes proc/mem sibling pairs (arity 2), "
                f"got arity {config.arity}"
            )
        return tree

    def routing(self) -> "TreeUpDownRouting":
        # Imported here: repro.fabric.routing imports this module.
        from repro.fabric.routing import TreeUpDownRouting
        return TreeUpDownRouting(self)

    def leaf_of(self, endpoint: int) -> int:
        """The leaf an endpoint hangs off."""
        return endpoint // self.concentration

    def links(self, node: int = 0) -> Iterator[tuple[int, int, int, int]]:
        """Router-to-router links ``(parent, child_port, child,
        PARENT_PORT)`` below ``node`` (the root by default), depth first:
        the order the network wires them in."""
        if not self.routers[node].children_are_leaves:
            for slot, child in enumerate(self.routers[node].children):
                yield node, slot + 1, child, PARENT_PORT
                yield from self.links(child)

    # -- structure queries ----------------------------------------------

    @property
    def router_count(self) -> int:
        """(N-1)/(arity-1) routers for N leaves."""
        return len(self.routers)

    @property
    def max_ports(self) -> int:
        """Port count of every router: 3 for binary, 5 for quad."""
        return self.arity + 1

    def router(self, index: int) -> RouterNode:
        if not 0 <= index < len(self.routers):
            raise TopologyError(f"unknown router {index}")
        return self.routers[index]

    def leaf_router(self, leaf: int) -> RouterNode:
        """The last-level router a leaf hangs off."""
        self._check_leaf(leaf)
        routers_last = self.arity ** (self.depth - 1)
        first_last = len(self.routers) - routers_last
        return self.routers[first_last + leaf // self.arity]

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.leaves:
            raise TopologyError(f"unknown leaf {leaf}")

    def child_port_for_leaf(self, router: RouterNode, leaf: int) -> int:
        """Which port of ``router`` leads toward ``leaf``.

        Returns PARENT_PORT if the leaf is outside the router's range.
        """
        first, end = router.leaf_range
        if not first <= leaf < end:
            return PARENT_PORT
        span = (end - first) // len(router.children)
        return 1 + (leaf - first) // span

    def attach(self, endpoint: int) -> tuple[int, int]:
        """``(router, port)`` an endpoint attaches to: the router its
        leaf hangs off and the child port that leads to the leaf."""
        leaf = self.leaf_of(endpoint)
        router = self.leaf_router(leaf)
        return router.index, self.child_port_for_leaf(router, leaf)

    # -- hop analysis -----------------------------------------------------

    def hop_count(self, src: int, dest: int) -> int:
        """Routers between two endpoints: ``2*l - 1`` when the lowest
        router covering both leaves sits ``l`` levels above them. Two
        endpoints on one leaf router, ``src == dest`` included, take 1."""
        a, b = self.leaf_of(src), self.leaf_of(dest)
        self._check_leaf(a)
        self._check_leaf(b)
        levels = 1
        while a // self.arity != b // self.arity:
            a, b = a // self.arity, b // self.arity
            levels += 1
        return 2 * levels - 1


class ConcentratedTreeTopology(TreeTopology):
    """A tree whose leaves each serve ``concentration`` endpoints:
    endpoint ``e`` hangs off leaf ``e // concentration``."""

    _leaves_named = "ctree leaves"

    def __init__(self, endpoints: int, concentration: int, arity: int = 2):
        if concentration < 1:
            raise TopologyError("concentration must be >= 1")
        if endpoints % concentration:
            raise TopologyError(
                f"ctree ports ({endpoints}) must be a multiple of the "
                f"concentration ({concentration})"
            )
        leaves = endpoints // concentration
        if leaves < arity:
            raise TopologyError(
                f"ctree needs >= {arity} leaves after concentration, "
                f"got {leaves}"
            )
        super().__init__(leaves, arity)
        self.concentration = concentration

    @classmethod
    def from_config(cls, config: "FabricConfig") -> "ConcentratedTreeTopology":
        return cls(config.ports, config.concentration, config.arity)
