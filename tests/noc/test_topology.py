"""Tree topology: structure, routing paths, hop analysis.

Routing paths are the network's one route walk (``Network.walk``), read
one pair at a time as the routers it visits.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.fabric.registry import FabricConfig
from repro.noc.topology import PARENT_PORT, TreeTopology
from repro.physical.descriptor import physical_model


@lru_cache(maxsize=None)
def tree_network(ports, arity=2):
    return FabricConfig(topology="tree", ports=ports, arity=arity).build()


def walk_routers(net, src, dest):
    """Router indices the walk visits from ``src`` to ``dest``."""
    routers = [net.topology.attach(src)[0]]
    for _idx, _node, _port, ahead in net.walk(np.array([src]),
                                              np.array([dest])):
        routers.append(int(ahead[0]))
    return routers


class TestStructure:
    def test_router_count_binary(self):
        # N-1 routers for N leaves (binary).
        assert TreeTopology(64, arity=2).router_count == 63
        assert TreeTopology(8, arity=2).router_count == 7

    def test_router_count_quad(self):
        # (N-1)/3 routers for a quad tree.
        assert TreeTopology(64, arity=4).router_count == 21
        assert TreeTopology(16, arity=4).router_count == 5

    def test_max_ports(self):
        assert TreeTopology(8, arity=2).max_ports == 3   # 3x3
        assert TreeTopology(16, arity=4).max_ports == 5  # 5x5

    def test_depth(self):
        assert TreeTopology(64, arity=2).depth == 6
        assert TreeTopology(64, arity=4).depth == 3

    def test_non_power_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology(12, arity=2)
        with pytest.raises(TopologyError):
            TreeTopology(32, arity=4)

    def test_small_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology(1, arity=2)

    def test_root_covers_everything(self):
        topo = TreeTopology(16, arity=2)
        assert topo.router(0).leaf_range == (0, 16)
        assert topo.router(0).parent is None

    def test_leaf_router_ranges(self):
        topo = TreeTopology(8, arity=2)
        router = topo.leaf_router(5)
        assert router.children_are_leaves
        assert router.leaf_range == (4, 6)
        assert 5 in router.children

    def test_parent_child_consistency(self):
        topo = TreeTopology(32, arity=2)
        for router in topo.routers:
            if router.children_are_leaves:
                continue
            for child in router.children:
                assert topo.router(child).parent == router.index


class TestRouting:
    def test_sibling_path_single_router(self):
        """Section 3: 'communication between two neighboring cores in a
        binary tree only has to pass a single 3x3 router'."""
        topo = TreeTopology(64, arity=2)
        assert topo.hop_count(0, 1) == 1
        assert topo.hop_count(62, 63) == 1

    def test_cross_tree_passes_root(self):
        net = tree_network(64)
        path = walk_routers(net, 0, 63)
        assert 0 in path  # the root router
        assert len(path) == physical_model(net).worst_case_hops()

    def test_path_is_up_then_down(self):
        net = tree_network(16)
        path = walk_routers(net, 2, 13)
        levels = [net.topology.router(r).level for r in path]
        # Levels strictly decrease to the apex then strictly increase.
        apex = levels.index(min(levels))
        assert levels[:apex + 1] == sorted(levels[:apex + 1], reverse=True)
        assert levels[apex:] == sorted(levels[apex:])
        assert len(set(levels)) == len(levels) - apex

    def test_same_leaf_is_its_leaf_router(self):
        """``src == dest`` is no path, but every structure counts it as
        one hop: the router the endpoint attaches to."""
        net = tree_network(8)
        assert walk_routers(net, 3, 3) == [net.topology.leaf_router(3).index]
        assert net.topology.hop_count(3, 3) == 1

    def test_worst_case_formula_binary(self):
        # 2*log2(N) - 1, walked over every pair.
        for leaves, expected in ((8, 5), (64, 11), (256, 15)):
            assert physical_model(tree_network(leaves)).worst_case_hops() \
                == expected

    def test_worst_case_formula_quad(self):
        assert physical_model(tree_network(64, 4)).worst_case_hops() == 5

    def test_worst_case_is_achieved(self):
        topo = TreeTopology(32, arity=2)
        worst = max(topo.hop_count(s, d)
                    for s in range(32) for d in range(32) if s != d)
        assert worst == physical_model(tree_network(32)).worst_case_hops()

    def test_average_hops_sane(self):
        model = physical_model(tree_network(16))
        assert 1.0 < model.mean_hops() < model.worst_case_hops()

    @pytest.mark.parametrize("leaves, arity", [
        (16, 2), (64, 2), (256, 2), (4, 4), (16, 4), (64, 4), (256, 4),
    ])
    def test_walked_average_hops_equals_the_pair_loop(self, leaves, arity):
        """The O(N^2) loop over ``hop_count`` is the oracle: same integer
        total, same final division, so the float is identical."""
        topo = TreeTopology(leaves, arity=arity)
        total = sum(topo.hop_count(s, d) for s in range(leaves)
                    for d in range(leaves) if s != d)
        assert physical_model(tree_network(leaves, arity)).mean_hops() == \
            total / (leaves * (leaves - 1))

    def test_unknown_leaf_rejected(self):
        topo = TreeTopology(8, arity=2)
        with pytest.raises(TopologyError):
            topo.hop_count(0, 8)
        with pytest.raises(TopologyError):
            topo.leaf_router(-1)

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_path_symmetric_in_length(self, src, dest):
        topo = TreeTopology(64, arity=2)
        assert topo.hop_count(src, dest) == topo.hop_count(dest, src)

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_path_endpoints_cover_leaves(self, src, dest):
        net = tree_network(64)
        topo = net.topology
        path = walk_routers(net, src, dest)
        first, last = topo.router(path[0]), topo.router(path[-1])
        assert first.leaf_range[0] <= src < first.leaf_range[1]
        assert last.leaf_range[0] <= dest < last.leaf_range[1]
        assert last.children_are_leaves


class TestChildPorts:
    def test_parent_port_for_outside_leaf(self):
        topo = TreeTopology(16, arity=2)
        router = topo.leaf_router(0)
        assert topo.child_port_for_leaf(router, 15) == PARENT_PORT

    def test_child_ports_partition_range(self):
        topo = TreeTopology(16, arity=2)
        root = topo.router(0)
        ports = [topo.child_port_for_leaf(root, leaf) for leaf in range(16)]
        assert ports == [1] * 8 + [2] * 8

    def test_quad_child_ports(self):
        topo = TreeTopology(16, arity=4)
        root = topo.router(0)
        ports = [topo.child_port_for_leaf(root, leaf) for leaf in range(16)]
        assert ports == [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4


def sibling_pairs(net):
    """Leaf pairs ``a < b`` whose walked route crosses one router."""
    leaves = net.endpoints
    srcs, dests = np.divmod(np.arange(leaves * leaves), leaves)
    keep = srcs < dests
    hops = physical_model(net).pair_costs(srcs[keep], dests[keep]).hops
    return [(a, b) for a, b, h in zip(srcs[keep].tolist(),
                                      dests[keep].tolist(), hops.tolist())
            if h == 1]


class TestSiblings:
    def test_sibling_pairs_binary(self):
        assert sibling_pairs(tree_network(8)) == \
            [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_sibling_pairs_quad(self):
        net = tree_network(16, 4)
        pairs = sibling_pairs(net)
        assert len(pairs) == 4 * 6  # C(4,2) per leaf router
        assert all(net.topology.leaf_router(a) is net.topology.leaf_router(b)
                   for a, b in pairs)
