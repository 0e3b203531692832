"""The topology registry: names, capabilities, build-time checks."""

import inspect
import re

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.fabric.network import CreditFabricNetwork
from repro.fabric.registry import (
    CLOCK_INTEGRATED,
    CLOCK_MESOCHRONOUS,
    FLOW_VC,
    FabricConfig,
    TopologyEntry,
    get_topology,
    register_topology,
    topology_names,
    topology_table,
)
from repro.fabric.routing import (
    EscapeVcAdaptive,
    RingDatelineVc,
    RingRouting,
    TorusDatelineVc,
    TorusXYRouting,
    TreeUpDownRouting,
    XYRouting,
)
from repro.fabric.topologies import MeshTopology
from repro.noc.flit import Flit, FlitKind
from repro.noc.packet import Packet
from repro.noc.topology import PARENT_PORT

STOCK = ("tree", "ctree", "mesh", "torus", "ring")

#: What each stock credit entry declares: router name prefix, routing
#: strategy, and the class behind each VC-policy name.
CREDIT_PARTS = {
    "mesh": ("m", XYRouting, {"escape": EscapeVcAdaptive}),
    "torus": ("t", TorusXYRouting, {"dateline": TorusDatelineVc,
                                    "escape": EscapeVcAdaptive}),
    "ring": ("g", RingRouting, {"dateline": RingDatelineVc}),
}

#: The same for every stock entry: the tree family has no VC policies.
PARTS = {
    "tree": ("r", TreeUpDownRouting, {}),
    "ctree": ("r", TreeUpDownRouting, {}),
    **CREDIT_PARTS,
}


def _credit_builds():
    """Every credit entry x flow control x VC-policy name."""
    for name in topology_names():
        entry = get_topology(name)
        if not entry.supports_pipeline:
            continue
        for flow in entry.flow_control:
            for policy in (entry.vc_policies if flow == FLOW_VC
                           else (None,)):
                yield name, flow, policy


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
            structure=MeshTopology,
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
                structure=MeshTopology, builder=lambda config, kernel: None,
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

    @pytest.mark.parametrize("name", ("mesh", "torus"))
    @pytest.mark.parametrize("kwargs,message", [
        ({"ports": 24},
         "square grid needs a square port count >= 4, got 24"),
        ({"ports": 2}, "square grid needs a square port count >= 4, got 2"),
        ({"ports": 16, "rows": 3}, "grid of 16 ports cannot have 3 rows"),
        ({"ports": 16, "rows": 1}, "grid of 16 ports cannot have 1 rows"),
        ({"ports": 8, "rows": 8}, "grid of 8 ports cannot have 8 rows"),
    ])
    def test_grid_shape_rule_at_config(self, name, kwargs, message):
        """One shape rule for both grids, raised where the spec is
        written, under either flow control."""
        for flow in ("wormhole", "vc"):
            with pytest.raises(ConfigurationError,
                               match=f"^{re.escape(message)}$"):
                FabricConfig(topology=name, flow_control=flow, **kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"topology": "tree", "ports": 24},
         "tree ports must be a power of 2, got 24"),
        ({"topology": "tree", "arity": 1}, "tree arity must be >= 2"),
        ({"topology": "tree", "ports": 16, "arity": 4,
          "allocator": "local_priority"},
         "local_priority assumes proc/mem sibling pairs (arity 2), "
         "got arity 4"),
        ({"topology": "ctree", "ports": 10},
         "ctree ports (10) must be a multiple of the concentration (4)"),
        ({"topology": "ctree", "ports": 4},
         "ctree needs >= 2 leaves after concentration, got 1"),
        ({"topology": "ctree", "concentration": 0},
         "concentration must be >= 1"),
        ({"topology": "ctree", "ports": 24},
         "ctree leaves must be a power of 2, got 6"),
        ({"topology": "ctree", "arity": 1}, "tree arity must be >= 2"),
    ])
    def test_tree_shape_rules_at_config(self, kwargs, message):
        """The tree family's shape rules, each stated once by its
        structure, raised where the spec is written."""
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(message)}$"):
            FabricConfig(**kwargs)

    def test_ctree_concentration_shape(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ctree", ports=10, concentration=4)
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ctree", ports=4, concentration=4)

    def test_too_few_ports(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(topology="ring", ports=1)

    @pytest.mark.parametrize("field", ("chip_width_mm", "chip_height_mm",
                                       "max_segment_mm"))
    @pytest.mark.parametrize("value", (0, 0.0, -5.0, float("nan"),
                                       float("inf"), float("-inf")))
    @pytest.mark.parametrize("name", ("tree", "mesh"))
    def test_die_and_segment_sizes_are_finite_and_positive(self, name,
                                                           field, value):
        """A nan, infinite, empty or negative size never constructs,
        and the error names the field and the value."""
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be finite and > 0, "
                                 f"got {re.escape(str(value))}$"):
            FabricConfig(topology=name, ports=16, **{field: value})
        FabricConfig(topology=name, ports=16, **{field: 0.5})

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



def _is_spanning_tree(structure) -> bool:
    """``structure.links()`` joins its routers with ``router_count - 1``
    links and no router is left out: a tree, so no converging paths."""
    links = list(structure.links())
    neighbours: dict[int, list[int]] = {}
    for a, _, b, _ in links:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    reached, frontier = {0}, [0]
    while frontier:
        for other in neighbours.get(frontier.pop(), ()):
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    return (len(links) == structure.router_count - 1
            and len(reached) == structure.router_count)


class TestTreeLegal:
    """``tree_legal`` is a fact each structure declares; the link graph
    it builds must agree with it."""

    @pytest.mark.parametrize("ports", (16, 64))
    @pytest.mark.parametrize("name", topology_names())
    def test_declared_exactly_when_the_links_form_a_tree(self, name, ports):
        structure = get_topology(name).structure.from_config(
            FabricConfig(topology=name, ports=ports))
        assert structure.tree_legal == _is_spanning_tree(structure)

    @pytest.mark.parametrize("name", ("tree", "ctree"))
    def test_tree_links_follow_the_wiring_order(self, name):
        net = FabricConfig(topology=name, ports=64).build()
        wired = sorted(net.routers[1:],
                       key=lambda router: router.switch._kernel_index)
        assert list(net.topology.links()) == [
            (router.node.parent,
             net.topology.router(router.node.parent).children.index(
                 router.node.index) + 1,
             router.node.index, PARENT_PORT)
            for router in wired
        ]


class TestSendChecksAddresses:
    """A packet naming a port the fabric lacks is refused by name, on
    every fabric and backend, before anything is recorded."""

    @pytest.mark.parametrize("name,backend", [
        *((name, "dispatch") for name in topology_names()),
        *((name, "array") for name in topology_names()
          if get_topology(name).supports_pipeline),
    ])
    @pytest.mark.parametrize("src,dest,message", [
        (16, 1, "unknown source 16"),
        (1, 16, "unknown destination 16"),
    ])
    def test_out_of_range_address(self, name, backend, src, dest, message):
        net = FabricConfig(topology=name, ports=16, backend=backend).build()
        with pytest.raises(TopologyError, match=f"^{message}$"):
            net.send(Packet(src=src, dest=dest))
        assert net.stats.packets_injected == 0
        assert net._inflight == {}


class TestCreditDeclaration:
    """A credit fabric is declared once, by its entry: the one builder,
    ``CreditFabricNetwork(config, kernel=None)``, reads the structure,
    routing strategy and VC policy from it."""

    def test_one_builder_signature(self):
        params = inspect.signature(CreditFabricNetwork).parameters
        assert list(params) == ["config", "kernel"]
        assert params["kernel"].default is None

    def test_stock_credit_entries(self):
        credit = [name for name in topology_names()
                  if get_topology(name).supports_pipeline]
        assert credit == list(CREDIT_PARTS)
        for name in credit:
            entry = get_topology(name)
            assert entry.builder is CreditFabricNetwork
            assert entry.supports_pipeline
            assert list(entry.vc_policies) == list(CREDIT_PARTS[name][2])

    @pytest.mark.parametrize("name,flow,policy", [
        ("tree", "wormhole", None), ("ctree", "wormhole", None),
        *_credit_builds(),
    ])
    def test_build_reads_the_entry(self, name, flow, policy):
        entry = get_topology(name)
        config = FabricConfig(topology=name, ports=16, flow_control=flow,
                              vc_policy=policy,
                              n_vcs=4 if flow == FLOW_VC else 2)
        net = config.build()
        prefix, routing, policies = PARTS[name]
        assert (type(net) is CreditFabricNetwork) == entry.supports_pipeline
        assert type(net.topology) is entry.structure
        assert type(net.routing) is routing
        assert type(net.routing) is type(net.topology.routing())
        assert [router.name for router in net.routers] == \
            [f"{prefix}{node}" for node in range(net.topology.router_count)]
        if flow != FLOW_VC:
            # VC routers allocate by candidates, not by one route.
            for node, router in enumerate(net.routers):
                route = net.topology.routing().for_node(node)
                for dest in range(config.ports):
                    flit = Flit(FlitKind.HEAD, 0, dest, packet_id=0, seq=0)
                    assert router._route(flit) == route(flit)
        if policy is None:
            assert net.vc_policy is None
        else:
            declared = entry.vc_policies[policy](config, net.topology)
            assert type(net.vc_policy) is type(declared) is policies[policy]
            assert net.vc_policy.name == policy


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
                structure=MeshTopology, builder=lambda config, kernel: None,
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
