"""Mesh structure and XY routing analysis (XY paths are the network's
route walk, read one pair at a time)."""

from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.fabric.registry import FabricConfig
from repro.fabric.routing import EAST
from repro.fabric.topologies import MeshTopology, grid_shape
from repro.physical.descriptor import physical_model

from tests.fabric.hops import closed_form_hops
from tests.noc.test_topology import walk_routers


@lru_cache(maxsize=None)
def mesh_network(ports):
    return FabricConfig(topology="mesh", ports=ports).build()


class TestStructure:
    def test_square_from_config(self):
        mesh = MeshTopology.from_config(FabricConfig(topology="mesh",
                                                     ports=64))
        assert mesh.cols == 8 and mesh.rows == 8

    def test_grid_shape_rejects_non_square(self):
        with pytest.raises(TopologyError, match="square port count"):
            grid_shape(48)

    def test_grid_shape_with_rows(self):
        assert grid_shape(8, rows=2) == (4, 2)
        for ports, rows in ((8, 3), (8, 1), (8, 8)):
            with pytest.raises(TopologyError, match="cannot have"):
                grid_shape(ports, rows)

    def test_node_count(self):
        assert MeshTopology(8, 8).nodes == 64
        assert MeshTopology(4, 2).nodes == 8

    def test_router_per_node(self):
        """N routers vs the tree's N-1 — 'in a tree there are fewer
        routers than in a mesh' (Section 3)."""
        mesh = MeshTopology(8, 8)
        assert mesh.router_count == 64

    def test_coordinates_roundtrip(self):
        mesh = MeshTopology(5, 3)
        for node in range(mesh.nodes):
            x, y = mesh.coordinates(node)
            assert mesh.node_at(x, y) == node

    def test_router_ports(self):
        """Ports in use, local included: 5 in the middle, fewer at the
        edges (as the physical descriptor prices them)."""
        ports = physical_model(mesh_network(9)).router_port_counts()
        assert ports[4] == 5   # centre
        assert ports[0] == 3   # corner
        assert ports[1] == 4   # edge

    def test_tiny_rejected(self):
        with pytest.raises(TopologyError):
            MeshTopology(1, 5)


class TestXYRouting:
    def test_path_endpoints(self):
        path = walk_routers(mesh_network(16), 0, 15)
        assert path[0] == 0
        assert path[-1] == 15

    def test_x_before_y(self):
        net = mesh_network(16)
        mesh = net.topology
        path = walk_routers(net, 0, 15)
        xs = [mesh.coordinates(n)[0] for n in path]
        ys = [mesh.coordinates(n)[1] for n in path]
        # All x movement happens before any y movement.
        first_y_move = next(i for i, (a, b) in enumerate(zip(ys, ys[1:]))
                            if a != b)
        assert xs[first_y_move] == xs[-1]

    def test_hop_count_is_manhattan_plus_one(self):
        net = mesh_network(64)
        assert len(walk_routers(net, 0, 63)) == 15
        assert len(walk_routers(net, 0, 1)) == 2
        assert len(walk_routers(net, 9, 9)) == 1

    def test_worst_case_hops(self):
        # cols + rows - 1 ~ 2*sqrt(N): the paper's comparison.
        assert physical_model(mesh_network(64)).worst_case_hops() == 15

    def test_average_hops(self):
        model = physical_model(mesh_network(16))
        assert 1.0 < model.mean_hops() < model.worst_case_hops()

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_path_length_matches_hop_count(self, src, dest):
        net = mesh_network(64)
        assert len(walk_routers(net, src, dest)) == \
            closed_form_hops(net.topology, src, dest)


class TestGeometry:
    def test_link_count(self):
        assert len(list(MeshTopology(8, 8).links())) == 112
        assert len(list(MeshTopology(2, 2).links())) == 4

    def test_total_link_length(self):
        # 8x8 on 10 mm: pitch 1.25 mm; 112 router-to-router links.
        net = mesh_network(64)
        assert sum(net.floorplan.link_length(a, a_port)
                   for a, a_port, _b, _b_port in net.topology.links()) == \
            pytest.approx(140.0)

    def test_pitch(self):
        assert mesh_network(64).floorplan.link_length(0, EAST) == \
            pytest.approx(1.25)
