"""The process-parallel sweep engine: determinism, fallback, equality."""

import pytest

from repro.analysis.parallel import (
    LoadPoint,
    default_workers,
    evaluate_load_point,
    expand_loads,
    measure_load_points,
    parallel_map,
    parallel_saturation_throughput,
    point_seed,
    scan_saturation_curve,
)
from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig


def square_metrics(value):
    """Module-level (hence picklable) sweep evaluator."""
    return {"square": float(value * value)}


TREE16 = FabricConfig(ports=16, arity=2)


class TestPointSeed:
    def test_deterministic(self):
        assert point_seed(0, 3) == point_seed(0, 3)

    def test_distinct_per_index_and_base(self):
        seeds = {point_seed(0, i) for i in range(10)}
        seeds |= {point_seed(1, i) for i in range(10)}
        assert len(seeds) == 20

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            point_seed(0, -1)


class TestParallelMap:
    def test_serial_matches_parallel(self):
        items = list(range(8))
        assert parallel_map(square_metrics, items, workers=2) == \
            parallel_map(square_metrics, items, workers=None)

    def test_order_preserved(self):
        result = parallel_map(square_metrics, [3, 1, 2], workers=2)
        assert result == [{"square": 9.0}, {"square": 1.0}, {"square": 4.0}]

    def test_unpicklable_falls_back_to_serial(self):
        captured = []  # closure: unpicklable on purpose
        fn = lambda v: (captured.append(v), v * 2)[1]  # noqa: E731
        assert parallel_map(fn, [1, 2, 3], workers=4) == [2, 4, 6]
        assert captured == [1, 2, 3]  # proves it ran in this process

    def test_empty_items(self):
        assert parallel_map(square_metrics, [], workers=2) == []


class TestLoadPoints:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadPoint(load=0.1, pattern="teleport")

    def test_zero_load_rejected(self):
        with pytest.raises(ConfigurationError, match="load"):
            LoadPoint(load=0.0, network=TREE16)

    def test_low_load_fully_accepted_and_drained(self):
        metrics = evaluate_load_point(
            LoadPoint(load=0.05, network=TREE16, cycles=200))
        assert metrics["drained"] == 1.0
        assert metrics["accepted_in_window"] >= 0.8 * metrics["offered"]

    def test_overload_falls_behind(self):
        """Uniform traffic far beyond the tree's root capacity cannot be
        accepted within the injection window."""
        metrics = evaluate_load_point(
            LoadPoint(load=0.9, network=TREE16, cycles=200))
        assert metrics["accepted_in_window"] < 0.9 * metrics["offered"]

    @pytest.mark.parametrize("cycles", (0, -5))
    def test_run_without_cycles_rejected(self, cycles):
        # Where the spec is built, not as a division by zero in a worker.
        with pytest.raises(ConfigurationError, match="cycles must be >= 1"):
            LoadPoint(load=0.1, network=TREE16, cycles=cycles)

    @pytest.mark.parametrize("period", (0, -1))
    def test_trace_sample_period_below_one_rejected(self, period):
        with pytest.raises(ConfigurationError,
                           match="trace_sample_period must be >= 1"):
            LoadPoint(load=0.1, network=TREE16, trace_sample_period=period)

    def test_one_cycle_and_every_packet_traced_accepted(self):
        point = LoadPoint(load=0.1, network=TREE16, cycles=1,
                          trace_sample_period=1)
        assert (point.cycles, point.trace_sample_period) == (1, 1)

    def test_ports_from_tree_and_mesh(self):
        assert LoadPoint(load=0.1, network=TREE16).ports == 16
        mesh = FabricConfig(topology="mesh", ports=16, rows=4)
        assert LoadPoint(load=0.1, network=mesh).ports == 16

    def test_expand_loads_shares_or_derives_seeds(self):
        template = LoadPoint(load=0.1, network=TREE16, seed=42)
        shared = expand_loads(template, [0.1, 0.2])
        assert [s.seed for s in shared] == [42, 42]
        derived = expand_loads(template, [0.1, 0.2], base_seed=42)
        assert derived[0].seed != derived[1].seed
        assert [s.seed for s in derived] == \
            [s.seed for s in expand_loads(template, [0.1, 0.2], base_seed=42)]

    def test_serial_equals_parallel_on_fixed_seed(self):
        """The acceptance criterion: workers>1 returns results identical
        to the serial path."""
        template = LoadPoint(load=0.1, network=TREE16, cycles=100, seed=3)
        specs = expand_loads(template, [0.05, 0.15], base_seed=9)
        serial = measure_load_points(specs, workers=1)
        parallel = measure_load_points(specs, workers=2)
        assert serial == parallel


class TestParallelSaturation:
    def test_matches_serial_search(self):
        loads = [0.05, 0.1, 0.2]
        template = LoadPoint(load=loads[0], network=TREE16, cycles=120)
        curve = zip(loads, measure_load_points(expand_loads(template, loads)))
        scanned = scan_saturation_curve(curve, 0.9)
        found = [parallel_saturation_throughput(template, loads=loads,
                                                workers=workers)
                 for workers in (1, 2)]
        assert found == [scanned, scanned]

    def test_saturation_positive_for_sane_network(self):
        template = LoadPoint(load=0.05, network=TREE16, cycles=150)
        assert parallel_saturation_throughput(
            template, loads=[0.05, 0.1]) >= 0.05

    def test_local_traffic_saturates_later_than_uniform(self):
        """The locality argument, as a saturation-throughput number: the
        tree sustains far more sibling traffic than uniform traffic."""
        loads = [0.1, 0.2, 0.3, 0.5, 0.7]
        uniform = LoadPoint(load=loads[0], network=TREE16, cycles=200)
        local = LoadPoint(load=loads[0], network=TREE16, cycles=200,
                          pattern="neighbour", locality=1.0)
        sat_uniform = parallel_saturation_throughput(uniform, loads=loads)
        sat_local = parallel_saturation_throughput(local, loads=loads)
        assert sat_local > sat_uniform
        assert sat_local >= 0.5


class TestBisectSaturation:
    def test_worker_count_does_not_change_the_answer(self):
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=120, seed=3)
        results = [
            bisect_saturation_throughput(template, lo=0.05, hi=0.85,
                                         budget=6, workers=workers)
            for workers in (1, 2)
        ]
        assert results[0].saturation == results[1].saturation
        assert results[0].evaluated == results[1].evaluated

    def test_knee_at_least_as_tight_as_grid(self):
        """Same budget, a knee no looser than the grid's (usually
        strictly tighter: the bracket shrinks geometrically)."""
        from repro.analysis.parallel import bisect_saturation_throughput
        loads = [0.05, 0.1, 0.2, 0.4, 0.6, 0.85]
        template = LoadPoint(load=loads[0], network=TREE16, cycles=120)
        grid = parallel_saturation_throughput(template, loads=loads)
        search = bisect_saturation_throughput(
            template, lo=loads[0], hi=loads[-1], budget=len(loads))
        assert search.points_used <= len(loads)
        assert search.saturation >= grid - 1e-9

    def test_saturated_bracket_low_end(self):
        """If even the lowest load saturates, report 0 like the grid."""
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=120)
        search = bisect_saturation_throughput(
            template, lo=0.6, hi=0.85, budget=4)
        assert search.saturation == 0.0
        assert search.points_used == 2  # the bracket round settled it

    def test_bad_parameters_rejected(self):
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=80)
        with pytest.raises(ConfigurationError):
            bisect_saturation_throughput(template, lo=0.5, hi=0.2)
        with pytest.raises(ConfigurationError):
            bisect_saturation_throughput(template, budget=1)
        with pytest.raises(ConfigurationError):
            bisect_saturation_throughput(template, resolution=0.0)
        with pytest.raises(ConfigurationError):
            bisect_saturation_throughput(template, points_per_round=0)


class TestDefaultWorkers:
    def test_at_least_one(self):
        assert default_workers() >= 1


class TestFabricLoadPoints:
    """Any registered fabric runs through the sweep engine via
    FabricConfig specs."""

    def test_ports_from_fabric_config(self):
        from repro.fabric.registry import FabricConfig
        spec = LoadPoint(load=0.1,
                         network=FabricConfig(topology="ring", ports=8))
        assert spec.ports == 8
        assert spec.build_network().config.topology == "ring"

    def test_serial_equals_parallel_for_fabric_spec(self):
        from repro.fabric.registry import FabricConfig
        template = LoadPoint(
            load=0.05, cycles=40,
            network=FabricConfig(topology="torus", ports=9))
        specs = expand_loads(template, [0.05, 0.15], base_seed=4)
        serial = measure_load_points(specs, workers=1)
        parallel = measure_load_points(specs, workers=2)
        assert serial == parallel

    def test_ctree_spec_builds_and_measures(self):
        from repro.fabric.registry import FabricConfig
        spec = LoadPoint(
            load=0.1, cycles=40,
            network=FabricConfig(topology="ctree", ports=8,
                                 concentration=2))
        metrics = evaluate_load_point(spec)
        assert metrics["drained"] == 1.0


class TestBisectionReuse:
    """The drained curve the bisection already simulated is reused for
    latency-at-saturation instead of being discarded."""

    @pytest.fixture(scope="class")
    def search(self):
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=200)
        return bisect_saturation_throughput(
            template, lo=0.05, hi=0.85, budget=6)

    def test_latency_recovered_from_measured_curve(self, search):
        assert search.saturation > 0.0
        metrics = search.saturation_metrics
        assert metrics is not None
        assert search.latency_at_saturation == \
            metrics["mean_latency_cycles"]
        assert search.latency_at_saturation > 0.0

    def test_saturation_metrics_is_a_measured_point(self, search):
        assert (search.saturation, search.saturation_metrics) in \
            search.evaluated

    def test_curve_sorted_and_complete(self, search):
        curve = search.curve
        loads = [load for load, _ in curve]
        assert loads == sorted(loads)
        assert len(curve) == search.points_used

    def test_zero_saturation_has_no_metrics(self):
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=120)
        search = bisect_saturation_throughput(
            template, lo=0.6, hi=0.85, budget=4)
        assert search.saturation == 0.0
        assert search.saturation_metrics is None
        assert search.latency_at_saturation == 0.0


class TestAdaptivePlacement:
    """Adaptive bisection budgeting: cluster each round's points near the
    interpolated knee instead of spreading them evenly — fewer points for
    the same knee tolerance on secant-friendly curves."""

    KNEE = 0.6  # efficiency ratio 1.05 - 0.25*load crosses 0.9 here

    @classmethod
    def _fake_evaluate(cls, spec):
        ratio = 1.05 - 0.25 * spec.load
        return {
            "offered": spec.load,
            "accepted_in_window": spec.load * ratio,
            "mean_latency_cycles": 10.0,
            "drained": 1.0,
        }

    def _search(self, monkeypatch, placement, resolution=0.005):
        import repro.analysis.parallel as parallel_module
        from repro.analysis.parallel import bisect_saturation_throughput
        monkeypatch.setattr(parallel_module, "evaluate_load_point",
                            self._fake_evaluate)
        template = LoadPoint(load=0.05, network=TREE16, cycles=10)
        return bisect_saturation_throughput(
            template, lo=0.05, hi=0.95, budget=40,
            resolution=resolution, placement=placement)

    def test_fewer_points_for_the_same_tolerance(self, monkeypatch):
        adaptive = self._search(monkeypatch, "adaptive")
        uniform = self._search(monkeypatch, "uniform")
        tolerance = 0.005
        assert abs(adaptive.saturation - self.KNEE) <= tolerance
        assert abs(uniform.saturation - self.KNEE) <= tolerance
        assert adaptive.points_used < uniform.points_used

    def test_adaptive_is_deterministic_across_workers(self, monkeypatch):
        runs = [self._search(monkeypatch, "adaptive") for _ in range(2)]
        assert runs[0].evaluated == runs[1].evaluated
        assert runs[0].saturation == runs[1].saturation

    def test_unknown_placement_rejected(self):
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=10)
        with pytest.raises(ConfigurationError):
            bisect_saturation_throughput(template, placement="magic")

    def test_single_point_rounds_still_converge(self, monkeypatch):
        # With points_per_round=1 there is no room for the midpoint
        # guarantee; the central clamp must still shrink the bracket
        # geometrically even when the secant estimate is pinned wrong.
        import repro.analysis.parallel as parallel_module
        from repro.analysis.parallel import bisect_saturation_throughput

        def cliff(spec):  # flat then a cliff: secant is far off early
            ratio = 1.0 if spec.load <= 0.8 else 0.1
            return {"offered": spec.load,
                    "accepted_in_window": spec.load * ratio,
                    "mean_latency_cycles": 10.0, "drained": 1.0}

        monkeypatch.setattr(parallel_module, "evaluate_load_point", cliff)
        template = LoadPoint(load=0.05, network=TREE16, cycles=10)
        search = bisect_saturation_throughput(
            template, lo=0.05, hi=0.95, budget=25, resolution=0.01,
            points_per_round=1, placement="adaptive")
        assert abs(search.saturation - 0.8) <= 0.02

    def test_real_search_still_finds_the_knee(self):
        # End-to-end sanity on a real network: adaptive placement must
        # agree with uniform placement within the resolution.
        from repro.analysis.parallel import bisect_saturation_throughput
        template = LoadPoint(load=0.05, network=TREE16, cycles=120, seed=3)
        adaptive = bisect_saturation_throughput(
            template, lo=0.05, hi=0.85, budget=8, resolution=0.05,
            placement="adaptive")
        uniform = bisect_saturation_throughput(
            template, lo=0.05, hi=0.85, budget=8, resolution=0.05,
            placement="uniform")
        assert abs(adaptive.saturation - uniform.saturation) <= 0.2
        assert adaptive.saturation > 0.0


class TestTrafficThreading:
    """Hotspot knobs and the transpose permutation ride LoadPoint specs
    (and therefore sweeps, workers, and the CLI)."""

    def test_transpose_generator(self):
        spec = LoadPoint(load=0.2, network=TREE16, pattern="transpose",
                         size_flits=2)
        generator = spec.build_generator()
        assert type(generator).__name__ == "PermutationTraffic"
        assert generator.permutation == "transpose"

    def test_hotspot_knobs_reach_the_generator(self):
        spec = LoadPoint(load=0.2, network=TREE16, pattern="hotspot",
                         hotspots=(3, 5), hotspot_fraction=0.5)
        generator = spec.build_generator()
        assert generator.hotspots == (3, 5)
        assert generator.fraction == 0.5

    def test_transpose_spec_measures(self):
        from repro.fabric.registry import FabricConfig
        spec = LoadPoint(load=0.1, cycles=40, pattern="transpose",
                         network=FabricConfig(topology="mesh", ports=16))
        metrics = evaluate_load_point(spec)
        assert metrics["drained"] == 1.0

    def test_vc_fabric_spec_measures_in_workers(self):
        from repro.fabric.registry import FabricConfig
        template = LoadPoint(
            load=0.05, cycles=40,
            network=FabricConfig(topology="torus", ports=16,
                                 flow_control="vc"))
        specs = expand_loads(template, [0.05, 0.15], base_seed=4)
        serial = measure_load_points(specs, workers=1)
        parallel = measure_load_points(specs, workers=2)
        assert serial == parallel

    def test_unknown_pattern_still_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadPoint(load=0.1, network=TREE16, pattern="nope")

    def test_bad_pattern_knobs_fail_at_spec_construction(self):
        # A bad spec must fail where it is built (the CLI turns this
        # into a clean error), not as a traceback inside a worker.
        with pytest.raises(ConfigurationError, match="out of range"):
            LoadPoint(load=0.1, network=TREE16, pattern="hotspot",
                      hotspots=(99,))
        with pytest.raises(ConfigurationError, match="hotspot"):
            LoadPoint(load=0.1, network=TREE16, pattern="hotspot",
                      hotspots=())
        with pytest.raises(ConfigurationError, match="fraction"):
            LoadPoint(load=0.1, network=TREE16, pattern="hotspot",
                      hotspot_fraction=1.5)
        from repro.fabric.registry import FabricConfig
        with pytest.raises(ConfigurationError, match="power-of-two"):
            LoadPoint(load=0.1, pattern="transpose",
                      network=FabricConfig(topology="torus", ports=36))
