"""Pipelined routers and segmented links — the PR 6 contracts.

Three layers share the knobs and each has a regression here:

* cycle model — staged routers add exactly ``hops x (depth - 1)`` cycles,
  segmented links stay bit-identical between kernel modes, and the
  credit loop is sized to the full ``pipeline_depth + 2 x segments``
  round trip (FIFOs grow to cover it);
* registry — the default build keeps the exact seed shape (no stages,
  historical link capacities), and the tree family rejects every knob
  loudly instead of silently dropping it;
* physical model — floorplan-driven segmentation makes
  ``operating_frequency_ghz()`` segment-bound: the 64-endpoint folded
  torus on a 20 mm die clocks >= 4x its unsegmented baseline (the
  acceptance bar of the PR).
"""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.noc.packet import Packet

from tests.fabric.test_equivalence import run_traffic

#: A die large enough that the folded-torus wrap links dwarf the
#: 1.25 mm segment pitch — the regime segmentation exists for.
BIG_DIE_MM = 20.0


def _torus(ports=16, **kwargs):
    kwargs.setdefault("chip_width_mm", BIG_DIE_MM)
    kwargs.setdefault("chip_height_mm", BIG_DIE_MM)
    return FabricConfig(topology="torus", ports=ports, **kwargs)


class TestStagedRouterTiming:
    @pytest.mark.parametrize("depth", (2, 4))
    def test_each_hop_adds_depth_minus_one_cycles(self, depth):
        baseline = FabricConfig(topology="mesh", ports=16).build()
        staged = FabricConfig(topology="mesh", ports=16,
                              pipeline_depth=depth).build()
        for net in (baseline, staged):
            net.send(Packet(src=0, dest=15))
            assert net.drain(50_000)
        hops = baseline.stats.hop_counts[0]
        assert staged.stats.latencies_cycles[0] == \
            baseline.stats.latencies_cycles[0] + hops * (depth - 1)

    def test_depth_one_is_the_seed_shape(self):
        net = FabricConfig(topology="torus", ports=16).build()
        assert net.link_stage_count == 0
        assert net.router_stage_registers == 0
        assert all(link.capacity is None for link in net.links)


class TestSegmentedEquivalence:
    """Link stages hold clocked in-flight state; the activity-driven
    fast path must sleep around them without dropping a flit."""

    @pytest.mark.parametrize("flow,policy", (("wormhole", None),
                                             ("vc", "dateline")))
    def test_segmented_torus_bit_identical(self, flow, policy):
        fast = run_traffic("torus", True, flow, policy, cycles=40,
                           pipeline_depth=2, segment_links=True)
        naive = run_traffic("torus", False, flow, policy, cycles=40,
                            pipeline_depth=2, segment_links=True)
        observable = lambda r: {k: v for k, v in r.items() if k != "steps"}
        assert observable(fast) == observable(naive)
        assert len(fast["delivered"]) == fast["injected"]

    def test_segmented_build_has_link_stages(self):
        net = _torus(segment_links=True).build()
        assert net.link_stage_count > 0
        assert net.longest_segment_mm() <= net.config.max_segment_mm


class TestCreditLoopSizing:
    def test_auto_grows_fifos_to_the_round_trip(self):
        depth = 3
        net = _torus(pipeline_depth=depth, segment_links=True,
                     buffer_depth=4).build()
        for link in net.links:
            segments = len(link.stages) + 1
            assert link.capacity == max(4, depth + 2 * segments)

    def test_buffer_that_covers_the_loop_is_kept(self):
        # depth 2 + 2 x 1 segment = 4 <= buffer_depth 4: no growth needed.
        net = FabricConfig(topology="torus", ports=16, pipeline_depth=2,
                           buffer_depth=4).build()
        assert all(link.capacity == 4 for link in net.links)


class TestTreeFamilyRejectsKnobs:
    """The handshake tree has no credit loop to resize and a fixed
    router pipeline — every knob is a loud config error, never a
    silent no-op (the registry-wide knob contract)."""

    @pytest.mark.parametrize("topology", ("tree", "ctree"))
    @pytest.mark.parametrize("kwargs", ({"pipeline_depth": 2},
                                        {"segment_links": True}))
    def test_rejected(self, topology, kwargs):
        extra = {"concentration": 4} if topology == "ctree" else {}
        with pytest.raises(ConfigurationError):
            FabricConfig(topology=topology, ports=16, **extra, **kwargs)


class TestFrequencyAcceptance:
    def test_segmented_64_torus_clocks_4x_the_baseline(self):
        """The PR's acceptance bar: on a 20 mm die the folded torus wrap
        wires cap the unsegmented clock near 0.2 GHz; 1.25 mm segments
        push the critical path back to the ~1 GHz pipeline bound."""
        base = _torus(ports=64).build().operating_frequency_ghz()
        segmented = _torus(ports=64, segment_links=True,
                           max_segment_mm=1.25).build()
        ratio = segmented.operating_frequency_ghz() / base
        assert ratio >= 4.0, ratio

    def test_depth_amortises_the_router_critical_path(self):
        from repro.timing.frequency import router_max_frequency
        assert router_max_frequency(5, pipeline_depth=2) > \
            router_max_frequency(5)
