"""The topology registry: names, capabilities, build-time checks."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import (
    CLOCK_INTEGRATED,
    CLOCK_MESOCHRONOUS,
    FabricConfig,
    TopologyEntry,
    get_topology,
    register_topology,
    topology_names,
    topology_table,
)

STOCK = ("tree", "ctree", "mesh", "torus", "ring")


class TestRegistry:
    def test_stock_topologies_registered(self):
        names = topology_names()
        for name in STOCK:
            assert name in names
        assert len(names) >= 5

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            get_topology("hypercube")
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="hypercube")

    def test_table_lists_clocking(self):
        table = {row["name"]: row for row in topology_table()}
        assert "integrated" in table["tree"]["clocking"]
        assert table["torus"]["clocking"] == "mesochronous"
        assert table["ctree"]["tree_legal"] == "yes"
        assert table["mesh"]["tree_legal"] == "no"

    def test_custom_registration(self):
        entry = TopologyEntry(
            name="_test_fabric",
            description="registered by the test",
            clock_distribution=(CLOCK_MESOCHRONOUS,),
            tree_legal=False,
            builder=lambda config, kernel: "built",
        )
        register_topology(entry)
        try:
            assert "_test_fabric" in topology_names()
            assert FabricConfig(topology="_test_fabric",
                                ports=4).build() == "built"
        finally:
            from repro.fabric import registry
            del registry._REGISTRY["_test_fabric"]

    def test_entry_integrated_requires_tree_legal(self):
        with pytest.raises(ConfigurationError):
            TopologyEntry(
                name="bad", description="converging paths",
                clock_distribution=(CLOCK_INTEGRATED,),
                tree_legal=False, builder=lambda config, kernel: None,
            )


class TestClockCapability:
    """The paper's claim as a build-time invariant: integrated clock
    distribution needs a converging-path-free (tree) structure."""

    @pytest.mark.parametrize("name", ["mesh", "torus", "ring"])
    def test_ring_closing_fabrics_reject_integrated(self, name):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology=name, ports=16 if name != "ring" else 8,
                         clocking=CLOCK_INTEGRATED).build()

    def test_torus_with_integrated_clocking_raises(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="torus", ports=16,
                         clocking="integrated")

    @pytest.mark.parametrize("name", ["tree", "ctree"])
    def test_tree_family_defaults_to_integrated(self, name):
        config = FabricConfig(topology=name, ports=16)
        assert config.clock_distribution == CLOCK_INTEGRATED

    def test_tree_may_run_mesochronous(self):
        config = FabricConfig(topology="tree", ports=16,
                              clocking=CLOCK_MESOCHRONOUS)
        assert config.clock_distribution == CLOCK_MESOCHRONOUS

    def test_mesh_defaults_to_mesochronous(self):
        assert FabricConfig(topology="mesh", ports=16).clock_distribution \
            == CLOCK_MESOCHRONOUS


class TestConfigValidation:
    def test_tree_ports_must_be_power_of_arity(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="tree", ports=12)
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="tree", ports=16, arity=3)

    def test_grid_ports_must_be_square(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="mesh", ports=12)
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="torus", ports=7)

    def test_grid_explicit_rows(self):
        net = FabricConfig(topology="mesh", ports=8, rows=2).build()
        assert net.topology.cols == 4 and net.topology.rows == 2
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="mesh", ports=8, rows=3)

    def test_ctree_concentration_shape(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ctree", ports=10, concentration=4)
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ctree", ports=4, concentration=4)

    def test_too_few_ports(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ring", ports=1)

    @pytest.mark.parametrize("name", ("mesh", "torus", "ring"))
    def test_shallow_credit_buffers_never_construct(self, name):
        """Not first inside a router at build(), in a sweep worker."""
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            FabricConfig(topology=name, ports=16, buffer_depth=1)
        FabricConfig(topology=name, ports=16, buffer_depth=2)


class TestBuiltNetworks:
    """Every registered fabric exposes the shared run-time API."""

    @pytest.mark.parametrize("name,ports", [
        ("tree", 8), ("ctree", 8), ("mesh", 4), ("torus", 4), ("ring", 6),
    ])
    def test_shared_api(self, name, ports):
        net = FabricConfig(topology=name, ports=ports).build()
        for attr in ("send", "run_ticks", "run_cycles", "drain",
                     "stats", "gating_stats", "kernel"):
            assert hasattr(net, attr), (name, attr)

    @pytest.mark.parametrize("name,ports", [
        ("tree", 8), ("ctree", 8), ("mesh", 4), ("torus", 4), ("ring", 6),
    ])
    def test_delivers(self, name, ports):
        from repro.noc.packet import Packet
        net = FabricConfig(topology=name, ports=ports).build()
        net.send(Packet(src=0, dest=ports - 1))
        assert net.drain(50_000)
        assert net.stats.packets_delivered == 1

    @pytest.mark.parametrize("name", ("mesh", "torus", "ring"))
    def test_one_network_class_per_topology(self, name):
        """Flow control picks the routers' shape, not the assembly."""
        wormhole = FabricConfig(topology=name, ports=16)
        vc = FabricConfig(topology=name, ports=16, flow_control="vc")
        assert (type(wormhole.build()).__name__
                == type(vc.build()).__name__
                == f"{name.capitalize()}Network")


class TestLocalPriority:
    """The demonstrator's arbitration is a registered allocator of the
    binary tree; every other pairing never constructs."""

    def test_builds_on_binary_tree(self):
        from repro.noc.arbiter import FixedPriorityArbiter
        net = FabricConfig(ports=16, allocator="local_priority").build()
        leaf = next(r for r in net.routers if r.node.children_are_leaves)
        assert isinstance(leaf.switch.arbiters[2], FixedPriorityArbiter)
        assert get_topology("tree").allocators == ("rr", "local_priority")

    @pytest.mark.parametrize("kwargs,named", [
        ({"topology": "ctree"}, "'ctree'"),
        ({"topology": "mesh"}, "'mesh'"),
        ({"topology": "torus"}, "'torus'"),
        ({"topology": "ring", "ports": 8}, "'ring'"),
        ({"arity": 4}, "arity 4"),
    ])
    def test_illegal_pairings_never_construct(self, kwargs, named):
        kwargs = {"ports": 16, **kwargs}
        with pytest.raises(ConfigurationError, match=named):
            FabricConfig(allocator="local_priority", **kwargs)

    def test_tree_refuses_vc_allocators_and_reservations(self):
        with pytest.raises(ConfigurationError, match="flow_control='vc'"):
            FabricConfig(ports=16, allocator="weighted")
        with pytest.raises(ConfigurationError, match="weighted"):
            FabricConfig(ports=16, allocator="local_priority",
                         reservations=((0, 0.5),))

    def test_entry_vc_allocators_need_vc(self):
        with pytest.raises(ConfigurationError, match="VC flow"):
            TopologyEntry(
                name="bad", description="weighted without VCs",
                clock_distribution=(CLOCK_MESOCHRONOUS,),
                tree_legal=False, builder=lambda config, kernel: None,
                allocators=("rr", "weighted"),
            )


class TestBuildKernel:
    """``build(kernel=...)`` is the one build signature: a system model
    hands its own kernel to any registered fabric."""

    @pytest.mark.parametrize("name", topology_names())
    def test_builds_on_the_given_kernel(self, name):
        from repro.sim.kernel import SimKernel
        kernel = SimKernel()
        net = FabricConfig(topology=name, ports=16).build(kernel=kernel)
        assert net.kernel is kernel
        assert FabricConfig(topology=name, ports=16).build().kernel \
            is not kernel

    @pytest.mark.parametrize("name", topology_names())
    def test_contradicting_kernel_mode_raises(self, name):
        from repro.sim.kernel import SimKernel
        with pytest.raises(ConfigurationError, match="activity_driven"):
            FabricConfig(topology=name, ports=16).build(
                kernel=SimKernel(activity_driven=False))
