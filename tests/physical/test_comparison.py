"""The registry-driven physical comparison (descriptor layer) and the
Section 3 tree-vs-mesh argument, as queries on the same descriptors."""

import math

import pytest

from repro.clocking.power import (
    balanced_tree_clock_power_mw,
    forwarded_clock_power_mw,
)
from repro.errors import ConfigurationError
from repro.fabric.registry import (
    FabricConfig,
    get_topology,
    topology_names,
)
from repro.noc.packet import Packet
from repro.physical.comparison import physical_comparison_rows
from repro.physical.descriptor import physical_model
from repro.physical.power import (
    BUFFER_ENERGY_PJ_PER_FLIT,
    ROUTER_ENERGY_DENSITY_PJ_PER_MM2,
)
from repro.physical.report import RunEnergyReport

from tests.physical.test_power import (
    crossover_locality,
    energy_at,
    partner_energy_pj,
    section3_models,
)


def rows_by_key(rows):
    return {(r.topology, r.flow_control): r for r in rows}


@pytest.fixture(scope="module")
def rows16():
    return physical_comparison_rows(nodes=16)


class TestComparisonTable:
    def test_every_registered_pairing_appears(self, rows16):
        keys = set(rows_by_key(rows16))
        expected = {(name, flow)
                    for name in topology_names()
                    for flow in get_topology(name).flow_control}
        assert keys == expected
        assert len(rows16) == len(expected)

    def test_identical_across_kernel_modes(self):
        fast = physical_comparison_rows(nodes=16, activity_driven=True)
        naive = physical_comparison_rows(nodes=16, activity_driven=False)
        assert [
            (r.topology, r.flow_control, r.mean_hops, r.buffer_flits,
             r.area_mm2, r.energy_pj_per_flit, r.clock_mw,
             r.frequency_ghz)
            for r in fast
        ] == [
            (r.topology, r.flow_control, r.mean_hops, r.buffer_flits,
             r.area_mm2, r.energy_pj_per_flit, r.clock_mw,
             r.frequency_ghz)
            for r in naive
        ]

    def test_vc_buffers_scale_with_n_vcs(self, rows16):
        by_key = rows_by_key(rows16)
        for name in ("mesh", "torus", "ring"):
            wormhole = by_key[(name, "wormhole")]
            vc = by_key[(name, "vc")]
            assert wormhole.buffer_flits > 0
            assert vc.buffer_flits == 2 * wormhole.buffer_flits
        four = rows_by_key(physical_comparison_rows(
            nodes=16, n_vcs=4, topologies=("torus",)))
        assert four[("torus", "vc")].buffer_flits == \
            4 * by_key[("torus", "wormhole")].buffer_flits

    def test_bufferless_tree_family(self, rows16):
        by_key = rows_by_key(rows16)
        assert by_key[("tree", "wormhole")].buffer_flits == 0
        assert by_key[("ctree", "wormhole")].buffer_flits == 0

    def test_clock_capability_respected(self, rows16):
        for row in rows16:
            entry = get_topology(row.topology)
            assert row.clock_distribution == entry.default_clocking

    @pytest.mark.parametrize("name, scheme", [
        (name, scheme) for name in topology_names()
        if len(get_topology(name).clock_distribution) > 1
        for scheme in get_topology(name).clock_distribution])
    def test_requested_clocking_reaches_the_descriptor(self, name, scheme):
        """A tree asked to run mesochronous used to be priced as
        integrated: its config was translated into a second spec type
        that dropped the field, and the descriptor guessed."""
        net = FabricConfig(topology=name, ports=16, clocking=scheme).build()
        net.send(Packet(src=0, dest=15))
        assert net.drain()
        model = physical_model(net)
        assert model.clock_distribution == scheme
        shape = dict(sinks=model.clock_sink_count(), frequency=1.0,
                     tech=model.tech)
        if scheme == "integrated":
            expected = forwarded_clock_power_mw(
                model.clock_wire_mm(),
                sink_activity=net.gating_stats().activity, **shape)
        else:
            expected = balanced_tree_clock_power_mw(
                model.clock_wire_mm(), **shape)
        assert model.clock_power(1.0) == expected
        report = RunEnergyReport.from_run(net, frequency_ghz=1.0)
        assert report.clock_pj == pytest.approx(
            expected.total_mw * net.stats.elapsed_cycles)

    def test_all_costs_positive(self, rows16):
        for row in rows16:
            assert row.mean_hops >= 1.0
            assert row.area_mm2 > 0.0
            assert row.energy_pj_per_flit > 0.0
            assert row.clock_mw > 0.0
            assert row.frequency_ghz > 0.0

    def test_bad_node_count_rejected_cleanly(self):
        with pytest.raises(ConfigurationError):
            physical_comparison_rows(nodes=3)
        with pytest.raises(ConfigurationError, match="comparison row"):
            physical_comparison_rows(nodes=24)  # not square: mesh breaks


class TestFoldedFloorplan:
    def test_torus_wrap_links_longer_than_interior(self):
        net = FabricConfig(topology="torus", ports=16).build()
        plan = net.floorplan
        cols = net.topology.cols
        interior, wraps = [], []
        for a, a_port, b, _b_port in net.topology.links():
            ax, ay = a % cols, a // cols
            bx, by = b % cols, b // cols
            length = plan.link_length(a, a_port)
            if abs(ax - bx) > 1 or abs(ay - by) > 1:
                wraps.append(length)
            else:
                interior.append(length)
        assert wraps and interior
        assert min(wraps) > max(interior)
        # Folded accounting: wraps cost two tile pitches, not the die.
        assert max(wraps) == pytest.approx(2 * max(interior))

    def test_mesh_has_no_wrap_links(self):
        net = FabricConfig(topology="mesh", ports=16).build()
        lengths = [net.floorplan.link_length(a, p)
                   for a, p, _b, _q in net.topology.links()]
        pitch = 10.0 / net.topology.cols
        assert all(length == pytest.approx(pitch) for length in lengths)

    def test_ring_links_span_the_perimeter_evenly(self):
        net = FabricConfig(topology="ring", ports=8).build()
        lengths = [net.floorplan.link_length(a, p)
                   for a, p, _b, _q in net.topology.links()]
        assert len(lengths) == 8
        # 40 mm perimeter / 8 nodes = 5 mm per link, closing link included.
        assert all(length == pytest.approx(5.0) for length in lengths)


def run_traffic(name, pairs, **kwargs):
    net = FabricConfig(topology=name, ports=16, **kwargs).build()
    for src, dest in pairs:
        net.send(Packet(src=src, dest=dest))
    assert net.drain(200_000)
    return net


class TestRunEnergyOnEveryFabric:
    PAIRS = [(0, 5), (3, 9), (12, 2)]

    @pytest.mark.parametrize("name,kwargs", [
        ("tree", {}),
        ("ctree", {"concentration": 4}),
        ("mesh", {}),
        ("torus", {}),
        ("ring", {}),
        ("torus", {"flow_control": "vc", "n_vcs": 2}),
    ])
    def test_report_complete_and_positive(self, name, kwargs):
        net = run_traffic(name, self.PAIRS, **kwargs)
        report = RunEnergyReport.from_run(net)
        assert report.flits_delivered == len(self.PAIRS)
        assert report.router_pj > 0.0
        assert report.link_pj > 0.0
        assert report.clock_pj > 0.0
        assert report.energy_per_flit_pj > 0.0
        assert report.mean_power_mw > 0.0

    def test_credit_fabrics_pay_buffer_energy_tree_does_not(self):
        tree = RunEnergyReport.from_run(run_traffic("tree", self.PAIRS))
        torus = RunEnergyReport.from_run(run_traffic("torus", self.PAIRS))
        assert tree.buffer_pj == 0.0
        assert torus.buffer_pj == pytest.approx(
            torus.flit_router_traversals * BUFFER_ENERGY_PJ_PER_FLIT
        )

    def test_identical_across_kernel_modes(self):
        reports = [
            RunEnergyReport.from_run(
                run_traffic("ring", self.PAIRS, activity_driven=mode)
            )
            for mode in (True, False)
        ]
        assert reports[0] == reports[1]

    def test_ctree_same_leaf_run_costs_the_mux(self):
        net = run_traffic("ctree", [(0, 3)], concentration=4)
        report = RunEnergyReport.from_run(net)
        assert net.stats.hop_counts == [1]
        assert report.flit_router_traversals == 1
        assert report.router_pj > 0.0

    @staticmethod
    def shifted_run(**config):
        """One 3-flit packet per node on a 16-port fabric: the network's
        descriptor, its run report, and what the descriptor charges the
        delivered packets flit by flit."""
        net = FabricConfig(ports=16, **config).build()
        for src in range(16):
            net.send(Packet(src=src, dest=(src + 5) % 16,
                            payload=[1, 2, 3]))
        assert net.drain(200_000)
        model = physical_model(net)
        priced = sum(packet.flit_count
                     * model.flit_energy_pj(packet.src, packet.dest)
                     for packet in net.delivered)
        return model, RunEnergyReport.from_run(net, model=model), priced

    @pytest.mark.parametrize("name, flow_control", [
        (name, flow_control)
        for name in topology_names()
        for flow_control in get_topology(name).flow_control
    ])
    def test_run_report_agrees_with_the_per_flit_price(self, name,
                                                       flow_control):
        """Unstaged, unsegmented: a run costs exactly what the descriptor
        charges its packets, flit by flit."""
        _model, report, priced = self.shifted_run(
            topology=name, flow_control=flow_control)
        assert report.flits_delivered == 16 * 3
        assert report.traffic_pj == pytest.approx(priced, rel=1e-12)

    @pytest.mark.parametrize("segmented", [False, True])
    def test_known_gap_staged_run_report_omits_stage_registers(self,
                                                               segmented):
        """KNOWN GAP (ROADMAP, physical item): ``flit_energy_pj`` prices
        ``PathProfile.stage_registers``, ``from_run`` does not, so on a
        staged build the run report undercounts by exactly that term.
        The number is hashed into the bench pins; fixing it is a re-pin."""
        segment = {"segment_links": True, "max_segment_mm": 1.0} \
            if segmented else {}
        model, report, priced = self.shifted_run(
            topology="torus", flow_control="vc", pipeline_depth=2, **segment)
        stage_pj = sum(
            packet.flit_count
            * model.path(packet.src, packet.dest).stage_registers
            for packet in model.network.delivered
        ) * model.tech.stage_area_mm2() * ROUTER_ENERGY_DENSITY_PJ_PER_MM2
        assert stage_pj > 0.0
        assert report.traffic_pj == pytest.approx(priced - stage_pj,
                                                  rel=1e-12)


class TestDescriptorContract:
    def test_paths_match_recorded_hops(self):
        """The descriptor's path profile agrees with what the delivered
        statistics record — the hop convention, single-sourced."""
        for name, kwargs in [("tree", {}), ("ctree", {"concentration": 4}),
                             ("mesh", {}), ("torus", {}), ("ring", {})]:
            net = run_traffic(name, self.pairs_for(name), **kwargs)
            model = physical_model(net)
            recorded = net.stats.hop_counts
            expected = [model.path(src, dest).hops
                        for src, dest in self.pairs_for(name)]
            assert sorted(recorded) == sorted(expected), name

    @staticmethod
    def pairs_for(name):
        pairs = [(0, 5), (3, 9), (12, 2)]
        if name == "ctree":
            pairs.append((0, 3))  # same-leaf: the 1-hop mux
        return pairs

    def test_unregistered_network_refused_loudly(self):
        class Unknown:
            config = object()

        with pytest.raises(ConfigurationError, match="physical"):
            physical_model(Unknown())

    def test_torus_path_lengths_use_folded_wraps(self):
        net = FabricConfig(topology="torus", ports=16).build()
        model = physical_model(net)
        pitch = 10.0 / 4
        # 0 -> 3 wraps west once (one folded wrap link + local stubs).
        wrapped = model.path(0, 3)
        assert wrapped.hops == 2
        assert wrapped.length_mm == pytest.approx(2 * pitch + 2 * (pitch / 2))
        # 0 -> 1 is one interior link.
        interior = model.path(0, 1)
        assert interior.length_mm == pytest.approx(pitch + 2 * (pitch / 2))


#: Locality of the clustered-traffic energy comparison (the paper's
#: application-mapping assumption).
LOCALITY = 0.8


def worst_hops(ports):
    """(tree, mesh) worst-case hops, walked over every pair."""
    return tuple(model.worst_case_hops() for model in section3_models(ports))


@pytest.fixture(scope="module")
def models64():
    return section3_models(64)


class TestHops:
    def test_paper_formulas(self):
        # Tree: 2*log2(64) - 1 = 11; mesh ~ 2*sqrt(64) = 16, exactly 15
        # corner to corner.
        assert worst_hops(64) == (11, 15)

    def test_tree_matches_or_wins_worst_case(self):
        # At N=16 the exact counts tie (7 vs 7: the paper's 2*sqrt(N) is an
        # approximation of the exact 2*sqrt(N)-1); from N=64 the tree wins
        # outright.
        tree16, mesh16 = worst_hops(16)
        assert tree16 <= mesh16
        for ports in (64, 256):
            tree, mesh = worst_hops(ports)
            assert tree < mesh, f"tree should win at N={ports}"

    def test_gap_widens_with_size(self):
        tree16, mesh16 = worst_hops(16)
        tree256, mesh256 = worst_hops(256)
        assert mesh256 - tree256 > mesh16 - tree16

    @pytest.mark.parametrize("ports", [16, 64, 256])
    def test_log_vs_sqrt_scaling(self, ports):
        side = math.isqrt(ports)
        assert worst_hops(ports) == (2 * int(math.log2(ports)) - 1,
                                     2 * side - 1)


class TestRoutersAndArea:
    def test_fewer_routers_in_tree(self, models64):
        tree, mesh = (len(model.router_port_counts()) for model in models64)
        assert (tree, mesh) == (63, 64)

    def test_tree_area_smaller(self, models64):
        """Section 3: 'the area and the leakage current of the NoC is
        minimized' — 3-port routers and no stall buffers."""
        tree, mesh = (model.area_report().total_mm2 for model in models64)
        assert tree < 1.0  # under 1 mm^2 like the paper
        # The gap is large: mesh 5-port routers + FIFOs.
        assert mesh / tree > 2.0


class TestEnergy:
    def test_tree_wins_energy_under_clustering(self, models64):
        """The Lee [12] / Section 3 claim, in the regime the paper assumes:
        'cores which communicate a lot will be clustered'."""
        tree, mesh = models64
        assert energy_at(tree, LOCALITY) < energy_at(mesh, LOCALITY)

    def test_uniform_traffic_favours_mesh_wire(self, models64):
        """Documented deviation: with uniform random traffic the H-tree's
        longer physical paths cost more wire energy than the mesh saves in
        routers — locality is what flips the comparison."""
        tree, mesh = models64
        assert tree.average_flit_energy_pj() > mesh.average_flit_energy_pj()

    def test_crossover_exists_below_paper_locality(self, models64):
        assert 0.0 < crossover_locality(*models64) <= LOCALITY

    def test_energy_values_positive(self, models64):
        for model in models64:
            assert model.average_flit_energy_pj() > 0.0
            assert partner_energy_pj(model) > 0.0

    def test_the_record_states_the_same_claims(self, models64):
        """EXP-TM's area and energy rows read what these queries read."""
        from repro.analysis.experiments import EXPERIMENTS, compare
        record = next(e for e in EXPERIMENTS if e.id == "EXP-TM")
        measured = {row.quantity: compare(record, row).measured_value
                    for row in record.rows}
        tree, mesh = models64
        assert measured["tree area @64 < mesh area"] == \
            (tree.area_report().total_mm2 < mesh.area_report().total_mm2)
        assert measured["tree flit energy @64 < mesh at locality 0.8"] == \
            (energy_at(tree, LOCALITY) < energy_at(mesh, LOCALITY))
        assert measured["energy crossover locality in (0, 0.8]"] == \
            (0.0 < crossover_locality(tree, mesh) <= LOCALITY)
        assert measured["tree worst hops @64 (2logN-1)"] == \
            tree.worst_case_hops()


class TestSection3Golden:
    """The Section 3 numbers themselves, not just their ordering — pinned
    so the queries can be re-derived without moving any of them."""

    REL = 1e-12

    def test_energy_table_64(self, models64):
        tree, mesh = models64
        measured = {
            "tree_uniform_pj": tree.average_flit_energy_pj(),
            "mesh_uniform_pj": mesh.average_flit_energy_pj(),
            "tree_local_pj": energy_at(tree, LOCALITY),
            "mesh_local_pj": energy_at(mesh, LOCALITY),
            "crossover_locality": crossover_locality(tree, mesh),
        }
        golden = {
            "tree_uniform_pj": 47.11984073219782,
            "mesh_uniform_pj": 33.158666018562414,
            "tree_local_pj": 12.983968099639565,   # locality 0.8
            "mesh_local_pj": 14.973533043437481,
            "crossover_locality": 0.75,
        }
        for key, value in golden.items():
            assert measured[key] == pytest.approx(value, rel=self.REL), key

    @pytest.mark.parametrize("ports, tree_mm2, mesh_mm2", [
        (16, 0.1919999805, 0.5077333032),
        (64, 0.7439999181, 2.35519986),
        (256, 2.9519996685, 10.0821327336),
    ])
    def test_total_area(self, ports, tree_mm2, mesh_mm2):
        tree, mesh = section3_models(ports)
        assert tree.area_report().total_mm2 == pytest.approx(tree_mm2,
                                                             rel=self.REL)
        assert mesh.area_report().total_mm2 == pytest.approx(mesh_mm2,
                                                             rel=self.REL)

    def test_routers_and_hops_64(self, models64):
        tree, mesh = models64
        assert (len(tree.router_port_counts()),
                len(mesh.router_port_counts())) == (63, 64)
        assert worst_hops(64) == (11, 15)
        assert tree.mean_hops() == pytest.approx(9.19047619047619,
                                                 rel=self.REL)
        assert mesh.mean_hops() == pytest.approx(6.333333333333333,
                                                 rel=self.REL)
