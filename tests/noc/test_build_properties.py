"""Property tests on network construction across sizes and arities."""

from hypothesis import given, settings, strategies as st

from repro.noc.floorplan import floorplan_for
from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.noc.topology import TreeTopology


@st.composite
def network_shapes(draw):
    arity = draw(st.sampled_from([2, 4]))
    depth = draw(st.integers(min_value=1, max_value=3 if arity == 4 else 5))
    leaves = arity ** depth
    chip = draw(st.sampled_from([5.0, 10.0, 20.0]))
    segment = draw(st.sampled_from([0.8, 1.25, 2.0]))
    return arity, leaves, chip, segment


class TestConstructionInvariants:
    @settings(max_examples=20, deadline=None)
    @given(network_shapes())
    def test_parity_alternates_across_every_channel(self, shape):
        """The defining clocking property: every producer/consumer pair of
        every handshake channel sits on opposite clock edges."""
        arity, leaves, chip, segment = shape
        net = ICNoCNetwork(FabricConfig(
            ports=leaves, arity=arity, chip_width_mm=chip,
            chip_height_mm=chip, max_segment_mm=segment,
        ))
        # Index channels by producer and consumer component parity.
        producers = {}
        consumers = {}
        for router in net.routers:
            for stage in router.all_stages():
                producers[id(stage.downstream)] = stage.parity
                consumers[id(stage.upstream)] = stage.parity
            switch = router.switch
            for ch in switch.outputs:
                producers[id(ch)] = switch.parity
            for ch in switch.inputs:
                consumers[id(ch)] = switch.parity
        for stage in net.link_stages:
            producers[id(stage.downstream)] = stage.parity
            consumers[id(stage.upstream)] = stage.parity
        for ni in net.nis:
            producers[id(ni.source.downstream)] = ni.source.parity
            consumers[id(ni.sink.upstream)] = ni.sink.parity
        shared = set(producers) & set(consumers)
        assert shared, "no fully-connected channels found"
        for channel_id in shared:
            assert producers[channel_id] != consumers[channel_id]

    @settings(max_examples=20, deadline=None)
    @given(network_shapes())
    def test_clock_tree_covers_all_clocked_elements(self, shape):
        arity, leaves, chip, segment = shape
        net = ICNoCNetwork(FabricConfig(
            ports=leaves, arity=arity, chip_width_mm=chip,
            chip_height_mm=chip, max_segment_mm=segment,
        ))
        for router in net.routers:
            assert router.name in net.clock_tree
            assert net.clock_tree.polarity(router.name) == \
                router.input_parity
        for leaf in range(leaves):
            assert f"ni{leaf}" in net.clock_tree
        net.clock_tree.validate_alternation()

    @settings(max_examples=20, deadline=None)
    @given(network_shapes())
    def test_segmentation_respects_cap(self, shape):
        arity, leaves, chip, segment = shape
        net = ICNoCNetwork(FabricConfig(
            ports=leaves, arity=arity, chip_width_mm=chip,
            chip_height_mm=chip, max_segment_mm=segment,
        ))
        assert net.longest_segment_mm() <= segment + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(network_shapes())
    def test_channel_specs_match_segment_count(self, shape):
        arity, leaves, chip, segment = shape
        net = ICNoCNetwork(FabricConfig(
            ports=leaves, arity=arity, chip_width_mm=chip,
            chip_height_mm=chip, max_segment_mm=segment,
        ))
        # Two specs (down/up) per physical segment; every spec nominally
        # matched (delta_diff == 0).
        assert len(net.channel_specs) % 2 == 0
        for spec in net.channel_specs:
            assert abs(spec.with_clock_skew) < 1e-9


class TestFloorplanProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(min_value=1, max_value=4),
           st.floats(min_value=2.0, max_value=30.0))
    def test_embedding_fits_chip(self, arity, depth, chip):
        if arity == 4 and depth > 3:
            depth = 3
        topology = TreeTopology(arity ** depth, arity=arity)
        plan = floorplan_for(topology, chip, chip)
        for x, y in list(plan.router_positions.values()) + \
                list(plan.leaf_positions.values()):
            assert 0.0 <= x <= chip
            assert 0.0 <= y <= chip

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(min_value=1, max_value=4),
           st.floats(min_value=2.0, max_value=30.0))
    def test_wire_length_scales_linearly_with_chip(self, arity, depth, chip):
        if arity == 4 and depth > 3:
            depth = 3
        topology = TreeTopology(arity ** depth, arity=arity)
        base = floorplan_for(topology, 10.0, 10.0).total_link_length_mm()
        scaled = floorplan_for(topology, chip, chip).total_link_length_mm()
        assert scaled == base * chip / 10.0 or \
            abs(scaled - base * chip / 10.0) < 1e-6

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_leaf_count_matches_topology(self, depth):
        topology = TreeTopology(2 ** depth, arity=2)
        plan = floorplan_for(topology, 10.0, 10.0)
        assert len(plan.leaf_positions) == 2 ** depth
        assert len(plan.router_positions) == topology.router_count
