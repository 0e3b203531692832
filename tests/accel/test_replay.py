"""Replay determinism: the tentpole's acceptance contract.

The same canned trace must (a) complete on every registered fabric,
(b) execute compute events in identical per-PE order everywhere — the
trace's program order, regardless of fabric timing — and (c) produce
byte-identical results across activity-driven/naive kernels and across
repeat runs, over a matrix of >= 3 topologies x both flow controls.
"""

import dataclasses

import pytest

from repro.accel.generators import llm_decode_trace, tiled_gemm_trace
from repro.accel.replay import (
    ReplayPoint,
    evaluate_replay_point,
    measure_replay_points,
    replay_trace_on_fabric,
    sweep_placements,
)
from repro.accel.trace import save_accel_trace
from repro.fabric.registry import FabricConfig

#: The determinism matrix: three credit topologies under both flow
#: controls, plus the handshake tree family.
MATRIX = [
    ("tree", "wormhole"),
    ("ctree", "wormhole"),
    ("mesh", "wormhole"),
    ("mesh", "vc"),
    ("torus", "wormhole"),
    ("torus", "vc"),
    ("ring", "wormhole"),
    ("ring", "vc"),
]


def small_trace():
    return llm_decode_trace(pes=4, mems=2, seed=0, layers=2, d_model=32)


def fabric(topology, flow_control, activity_driven=True):
    kwargs = dict(topology=topology, ports=16,
                  activity_driven=activity_driven)
    if flow_control == "vc":
        kwargs.update(flow_control="vc", n_vcs=2)
    return FabricConfig(**kwargs)


@pytest.fixture(scope="module")
def matrix_results():
    trace = small_trace()
    return {
        (topology, flow): replay_trace_on_fabric(trace,
                                                 fabric(topology, flow))
        for topology, flow in MATRIX
    }


class TestMatrix:
    def test_every_fabric_completes(self, matrix_results):
        for key, results in matrix_results.items():
            assert results.completed, key
            assert results.makespan_cycles > 0, key

    def test_per_pe_orderings_identical_across_fabrics(self,
                                                       matrix_results):
        """Tree vs torus x vc (and the rest): same compute order per PE."""
        reference = [r.events for r in
                     matrix_results[("tree", "wormhole")].per_pe]
        assert any(len(events) > 1 for events in reference)
        for key, results in matrix_results.items():
            assert [r.events for r in results.per_pe] == reference, key

    def test_timing_still_differs_across_fabrics(self, matrix_results):
        """Orderings match but the fabrics are not interchangeable —
        the makespans must actually reflect different networks."""
        makespans = {r.makespan_cycles for r in matrix_results.values()}
        assert len(makespans) > 1


class TestBitIdentity:
    @pytest.mark.parametrize("topology,flow", MATRIX)
    def test_kernel_modes_and_repeats_byte_identical(self, topology,
                                                     flow):
        trace = small_trace()
        fast = replay_trace_on_fabric(trace, fabric(topology, flow))
        naive = replay_trace_on_fabric(
            trace, fabric(topology, flow, activity_driven=False))
        again = replay_trace_on_fabric(trace, fabric(topology, flow))
        assert fast.to_json() == naive.to_json()
        assert fast.to_json() == again.to_json()

    def test_long_compute_phases_byte_identical(self):
        """A drain-heavy tiled GEMM: ~2k-cycle tile computes against a
        handful of DMA flits, so for most of the makespan every endpoint
        sleeps on a scheduled wake over a silent fabric — the windows the
        fast path jumps and the naive loop steps through."""
        trace = tiled_gemm_trace(pes=4, mems=2, seed=0, m=64, n=64, k=512,
                                 tile=32)
        fast = replay_trace_on_fabric(trace, fabric("torus", "vc"))
        naive = replay_trace_on_fabric(
            trace, fabric("torus", "vc", activity_driven=False))
        assert fast.completed
        assert fast.to_json() == naive.to_json()


class TestReplayPoints:
    def test_point_evaluation_matches_direct_replay(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        save_accel_trace(trace, path)
        config = fabric("torus", "vc")
        direct = replay_trace_on_fabric(trace, config).to_dict()
        from_file = evaluate_replay_point(
            ReplayPoint(network=config, trace_path=str(path)))
        regenerated = evaluate_replay_point(
            ReplayPoint(network=config, model="llm-decode", pes=4,
                        mems=2, seed=0))
        assert from_file == direct
        # The regenerated default trace is larger (full layers), so only
        # the shape of the result dict matches here.
        assert set(regenerated) == set(direct)

    def test_parallel_equals_serial(self):
        points = [
            ReplayPoint(network=fabric("mesh", "wormhole")),
            ReplayPoint(network=fabric("mesh", "vc")),
        ]
        serial = measure_replay_points(points, workers=None)
        parallel = measure_replay_points(points, workers=2)
        assert serial == parallel

    def test_point_is_a_frozen_picklable_spec(self):
        import pickle
        point = ReplayPoint(network=fabric("torus", "vc"))
        assert pickle.loads(pickle.dumps(point)) == point
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.seed = 1

    def test_spec_hash_covers_replay_points(self):
        from repro.analysis.parallel import spec_hash
        a = ReplayPoint(network=fabric("torus", "vc"), seed=0)
        b = ReplayPoint(network=fabric("torus", "vc"), seed=1)
        assert spec_hash(a) == spec_hash(a)
        assert spec_hash(a) != spec_hash(b)


class TestPlacementSweep:
    def test_offsets_change_the_mapping_not_the_work(self):
        records = sweep_placements(
            fabric("mesh", "wormhole"), model="llm-decode", pes=4,
            mems=2, seed=0, offsets=(0, 2))
        assert [r["offset"] for r in records] == [0, 2]
        flits = {r["flits_delivered"] for r in records}
        assert len(flits) == 1  # same trace, same traffic volume
        assert all(r["completed"] for r in records)
