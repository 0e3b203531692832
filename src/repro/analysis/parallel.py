"""Load-point measurement and process-parallel sweep evaluation.

Design-space sweeps (load curves, saturation searches, ablations) evaluate
many independent simulation points; this module measures them and fans
them out over worker processes. The building blocks:

* :func:`parallel_map` — ordered map over picklable items with a
  ``ProcessPoolExecutor``, submitting in chunks so large campaigns
  don't pay one IPC round-trip per point, and falling back to
  the serial loop whenever the work cannot be shipped to workers
  (closures, broken pools, ``workers`` <= 1), so callers never need two
  code paths;
* :class:`LoadPoint` — a picklable spec of one offered-load measurement
  (network config + traffic pattern by name + load/cycles/seed),
  evaluated by the module-level :func:`evaluate_load_point`, the only
  code that runs a load point;
* :func:`point_seed` — deterministic per-point seeds, identical no matter
  how points are distributed over processes;
* :func:`parallel_saturation_throughput` — the fixed-grid saturation
  search (:data:`DEFAULT_SATURATION_LOADS`, scanned by
  :func:`scan_saturation_curve`);
* :func:`bisect_saturation_throughput` — a parallel bisection over the
  saturation knee: the fixed grid's simulation budget, spent adaptively
  for a tighter saturation estimate;
* :func:`spec_hash` / checkpointing — ``measure_load_points(...,
  checkpoint=path)`` appends every finished point to a JSONL file keyed
  by its spec hash; a restarted sweep skips the recorded points (a torn
  last line from a killed run is cut off and measured again) and
  returns results identical to the uninterrupted run.

Workers ship back *compact* result records (a value tuple in fixed field
order plus an extras dict only when non-empty) instead of one pickled
dict per point; the parent expands them, so callers always see plain
metric dicts.

Parallel and serial runs of the same specs return identical results: every
point builds its own network and derives its RNG from the spec alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fabric.registry import FabricConfig
from repro.physical.descriptor import physical_model
from repro.physical.report import RunEnergyReport
from repro.telemetry.metrics import MetricsSummary
from repro.traffic.base import TrafficGenerator, inject_window
from repro.traffic.patterns import (
    PATTERN_NAMES,
    HotspotTraffic,
    NeighbourTraffic,
    PermutationTraffic,
    UniformRandom,
)


def default_workers() -> int:
    """Worker count for "use the machine": one per CPU."""
    return os.cpu_count() or 1


def point_seed(base_seed: int, index: int) -> int:
    """A deterministic, well-mixed seed for the index-th sweep point."""
    if index < 0:
        raise ConfigurationError("point index must be >= 0")
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 workers: int | None = None) -> list[Any]:
    """``[fn(item) for item in items]``, fanned out over processes.

    Results keep item order. Runs serially when ``workers`` is None or
    <= 1, when there is at most one item, or when the work cannot be
    shipped to workers (closures and other unpicklables, broken pools) —
    parallelism is an optimisation, never a requirement. The upfront
    probe pickles only ``fn`` and the first item (sweep items are
    homogeneous specs); a later unpicklable item is caught by the
    fallback instead.

    Each worker task carries ``max(1, len(items) // (4 * workers))``
    items (``pool.map``'s submission granularity): large campaigns pay
    one IPC round-trip per chunk, not per point, with about four chunks
    per worker — small enough that a slow chunk cannot straggle the pool.
    """
    n_workers = 1 if workers is None else workers
    if n_workers <= 1 or len(items) <= 1 or not _picklable(fn, items[0]):
        return [fn(item) for item in items]
    n_workers = min(n_workers, len(items))
    chunksize = max(1, len(items) // (4 * n_workers))
    try:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except (BrokenProcessPool, OSError, pickle.PicklingError,
            TypeError, AttributeError):
        # Pickling failures surface as PicklingError, TypeError, or
        # AttributeError depending on the object; a genuine TypeError
        # from fn re-raises identically from the serial retry.
        return [fn(item) for item in items]


# -- load-point specs -----------------------------------------------------


@dataclass(frozen=True)
class LoadPoint:
    """Picklable spec of one offered-load measurement.

    Everything needed to rebuild the experiment in a worker process:
    the network (any registry fabric, as its
    :class:`~repro.fabric.registry.FabricConfig`, which also carries the
    execution backend), the traffic pattern by registered name, and the
    run parameters. ``seed`` alone determines the injection schedule, so
    equal specs give equal results in any process.
    """

    load: float
    network: FabricConfig = FabricConfig()
    pattern: str = "uniform"
    cycles: int = 300
    seed: int = 0
    size_flits: int = 1
    locality: float = 0.8
    hotspots: tuple[int, ...] = (0,)
    hotspot_fraction: float = 0.3
    #: Attach a metrics registry; the point's result dict gains a
    #: picklable ``MetricsSummary`` under ``"telemetry"``.
    telemetry: bool = False
    #: Trace every Nth packet; the result gains ``"traces"``.
    trace_sample_period: int | None = None

    def __post_init__(self) -> None:
        if self.pattern not in PATTERN_NAMES:
            raise ConfigurationError(
                f"unknown traffic pattern {self.pattern!r}; "
                f"known: {', '.join(PATTERN_NAMES)}"
            )
        if self.cycles < 1:
            raise ConfigurationError(
                f"cycles must be >= 1, got {self.cycles}")
        if self.trace_sample_period is not None \
                and self.trace_sample_period < 1:
            raise ConfigurationError(
                f"trace_sample_period must be >= 1, "
                f"got {self.trace_sample_period}")
        # Validate the pattern knobs against the network here, not first
        # in a worker process: a bad spec must fail where it is built
        # (the CLI turns this into a clean error), not as a traceback
        # mid-sweep. Building and discarding the generator single-sources
        # the rules (hotspot range/fraction, transpose port shape, load
        # bounds) from the traffic constructors.
        self.build_generator()

    @property
    def ports(self) -> int:
        return self.network.ports

    def build_network(self):
        return self.network.build()

    def build_generator(self, load: float | None = None) -> TrafficGenerator:
        load = self.load if load is None else load
        if self.pattern == "neighbour":
            return NeighbourTraffic(self.ports, load,
                                    size_flits=self.size_flits,
                                    locality=self.locality)
        if self.pattern == "hotspot":
            return HotspotTraffic(self.ports, load,
                                  size_flits=self.size_flits,
                                  hotspots=self.hotspots,
                                  fraction=self.hotspot_fraction)
        if self.pattern == "transpose":
            return PermutationTraffic(self.ports, load,
                                      size_flits=self.size_flits,
                                      permutation="transpose")
        return UniformRandom(self.ports, load, size_flits=self.size_flits)


def evaluate_load_point(spec: LoadPoint) -> dict[str, Any]:
    """Worker entry point: one offered/accepted/latency measurement.

    Accepted throughput is measured over the injection window only (not
    the drain), which is what saturates; delivery of the backlog is still
    verified via the drain.

    ``spec.telemetry`` attaches a metrics registry (:mod:`repro.telemetry`)
    to the freshly built network and adds its picklable
    :class:`~repro.telemetry.metrics.MetricsSummary` under the
    ``"telemetry"`` key; ``spec.trace_sample_period=N`` additionally
    traces every Nth packet and adds the
    :class:`~repro.telemetry.trace.PacketTrace` list under ``"traces"``.
    Both ride the event/probe fast path, so untraced points are
    unaffected and traced points stay bit-identical across kernel modes.
    """
    net = spec.build_network()
    registry = tracer = None
    if spec.telemetry:
        from repro.telemetry import attach_metrics
        registry = attach_metrics(net)
    if spec.trace_sample_period is not None:
        from repro.telemetry import attach_tracer
        tracer = attach_tracer(net, spec.trace_sample_period)
    cycles, ports = spec.cycles, spec.ports
    schedule = spec.build_generator().generate(
        cycles, np.random.default_rng(spec.seed))
    # Delivered flits are sampled at the window end, before the drain.
    inject_window(net, schedule, cycles)
    accepted = net.stats.flits_delivered / cycles / ports
    offered = sum(i.size_flits for i in schedule) / cycles / ports
    drained = net.drain(max_ticks=500_000)
    # LatencySummary's mean, without sorting for percentiles unread here.
    latencies = net.stats.latencies_cycles
    latency = sum(latencies) / len(latencies) if latencies else 0.0
    metrics: dict[str, Any] = {
        "offered": offered,
        "accepted_in_window": accepted,
        "mean_latency_cycles": latency,
        "drained": float(drained),
    }
    metrics.update(_run_energy_metrics(net))
    if registry is not None:
        metrics["telemetry"] = registry.summary()
    if tracer is not None:
        metrics["traces"] = tracer.traces
    return metrics


def _run_energy_metrics(net: Any) -> dict[str, float]:
    """Per-run energy of a drained measurement, when the network has a
    registered physical descriptor (every registry fabric does; a
    topology registered without one simply omits the energy keys).

    Only the descriptor *lookup* may decline (``physical_model`` raises
    ``ConfigurationError`` for a network without a registered
    descriptor) — a genuine bug inside a registered descriptor
    propagates instead of silently blanking the energy column."""
    try:
        model = physical_model(net)
    except ConfigurationError:
        return {}
    report = RunEnergyReport.from_run(net, model=model)
    return {
        "energy_pj_per_flit": report.energy_per_flit_pj,
        "mean_power_mw": report.mean_power_mw,
    }


# -- compact worker records -----------------------------------------------

#: Fixed field order for compact per-point records. The scalar metrics
#: every point produces come back as a bare value tuple; only optional
#: payloads (energy on physically-modelled fabrics, telemetry, traces)
#: ride in the extras dict, and only when present.
COMPACT_FIELDS = ("offered", "accepted_in_window", "mean_latency_cycles",
                  "drained")


def evaluate_load_point_compact(
        spec: LoadPoint) -> tuple[tuple[float, ...], dict[str, Any] | None]:
    """:func:`evaluate_load_point`, shipped back as a compact record.

    Workers return ``(values, extras)`` — the :data:`COMPACT_FIELDS`
    scalars as a tuple plus an extras dict only when the point carried
    optional payloads — instead of one pickled dict per point, so a
    10k-point campaign does not serialise 10k copies of the same keys.
    The parent expands with :func:`expand_compact_record`.
    """
    metrics = evaluate_load_point(spec)
    values = tuple(metrics[key] for key in COMPACT_FIELDS)
    extras = {key: value for key, value in metrics.items()
              if key not in COMPACT_FIELDS}
    return values, extras or None


def expand_compact_record(
        record: tuple[tuple[float, ...], dict[str, Any] | None],
) -> dict[str, Any]:
    """Rebuild the plain metrics dict from a compact worker record."""
    values, extras = record
    metrics = dict(zip(COMPACT_FIELDS, values))
    if extras:
        metrics.update(extras)
    return metrics


def expand_loads(template: LoadPoint, loads: Sequence[float],
                 base_seed: int | None = None) -> list[LoadPoint]:
    """One spec per load. With ``base_seed``, each point gets its own
    deterministic seed (:func:`point_seed`); otherwise all points share
    the template's seed (what the serial saturation search does)."""
    specs = []
    for index, load in enumerate(loads):
        seed = (template.seed if base_seed is None
                else point_seed(base_seed, index))
        specs.append(replace(template, load=load, seed=seed))
    return specs


def measure_load_points(specs: Sequence[LoadPoint],
                        workers: int | None = None,
                        checkpoint: str | Path | None = None,
                        ) -> list[dict[str, float]]:
    """Evaluate many load points, optionally in parallel, in spec order.

    With ``checkpoint``, every finished point is appended to that JSONL
    file keyed by :func:`spec_hash`; rerunning the same sweep against the
    same file skips the recorded points and returns the merged results —
    identical to an uninterrupted run, because equal specs measure
    identically in any process.
    """
    if checkpoint is not None:
        return checkpointed_load_points(specs, checkpoint, workers)
    records = parallel_map(evaluate_load_point_compact, specs, workers)
    return [expand_compact_record(record) for record in records]


# -- checkpoint/resume ----------------------------------------------------


def spec_hash(spec: Any) -> str:
    """Stable content hash identifying a sweep point across runs.

    SHA-1 of the spec's canonical JSON (sorted keys, nested configs
    flattened by ``dataclasses.asdict``, the network class name included
    so equal-fielded config types cannot collide). Equal specs hash
    equally in every process and session; any field change rehashes.

    Accepts any dataclass spec with a ``network`` config field — the
    :class:`LoadPoint` here and the accel replay's mapping-sweep
    :class:`~repro.accel.replay.ReplayPoint` share the checkpoint format.
    """
    payload = asdict(spec)
    payload["network_type"] = type(spec.network).__name__
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def _result_to_json(metrics: dict[str, Any]) -> dict[str, Any]:
    record = dict(metrics)
    if "telemetry" in record:
        record["telemetry"] = record["telemetry"].to_dict()
    return record


def _result_from_json(record: dict[str, Any]) -> dict[str, Any]:
    metrics = dict(record)
    if "telemetry" in metrics:
        metrics["telemetry"] = MetricsSummary.from_dict(metrics["telemetry"])
    return metrics


def _read_checkpoint(path: Path) -> dict[str, dict[str, Any]]:
    """The recorded results of a checkpoint file, by spec hash.

    A final line without its newline is a torn append from a killed
    run: it is cut off the file, so that point is measured again and the
    next record starts on a line of its own. Any complete line that is
    not a ``{"spec": ..., "result": {...}}`` object is an error naming
    the file and its 1-based line number.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    done: dict[str, dict[str, Any]] = {}
    for number, line in enumerate(data[:complete].split(b"\n")[:-1],
                                  start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            done[record["spec"]] = _result_from_json(record["result"])
        except (ValueError, KeyError, TypeError) as error:
            raise ConfigurationError(
                f"{path}:{number}: not a checkpoint record (a JSON "
                f"object with 'spec' and 'result'); fix or delete the "
                f"line to resume") from error
    if complete < len(data):
        os.truncate(path, complete)
    return done


def checkpointed_load_points(specs: Sequence[LoadPoint],
                             checkpoint: str | Path,
                             workers: int | None = None,
                             ) -> list[dict[str, float]]:
    """:func:`measure_load_points` with crash-resumable progress.

    Finished points are appended to ``checkpoint`` (JSONL, one
    ``{"spec": hash, "load": ..., "result": ...}`` line each) batch by
    batch as they complete; a restarted sweep reads the file, skips every
    recorded hash, measures only the remainder, and returns results in
    spec order — byte-identical to the uninterrupted run. Duplicate specs
    are fine: they hash equally and deterministically measure equally, so
    one recorded result serves all copies. Packet traces cannot ride
    along (:class:`PacketTrace` records do not round-trip through JSON),
    so tracing specs are rejected loudly up front.
    """
    for spec in specs:
        if spec.trace_sample_period is not None:
            raise ConfigurationError(
                "checkpointed sweeps cannot carry packet traces "
                "(trace records do not round-trip through the JSONL "
                "checkpoint); drop the checkpoint or the trace sampling"
            )
    path = Path(checkpoint)
    done = _read_checkpoint(path)
    hashes = [spec_hash(spec) for spec in specs]
    pending = [(digest, spec) for digest, spec in zip(hashes, specs)
               if digest not in done]
    # Checkpoint granularity: one batch per worker round, so a killed
    # sweep loses at most the in-flight round. Serial runs flush every
    # point.
    batch = max(1, workers or 1)
    with open(path, "a", encoding="utf-8") as handle:
        for start in range(0, len(pending), batch):
            round_items = pending[start:start + batch]
            records = parallel_map(evaluate_load_point_compact,
                                   [spec for _, spec in round_items],
                                   workers)
            for (digest, spec), record in zip(round_items, records):
                metrics = expand_compact_record(record)
                if digest not in done:
                    handle.write(json.dumps(
                        {"spec": digest, "load": spec.load,
                         "result": _result_to_json(metrics)},
                        sort_keys=True) + "\n")
                    handle.flush()
                done[digest] = metrics
    return [done[digest] for digest in hashes]


# -- saturation searches --------------------------------------------------

#: Default load grid of the saturation searches (grid and bisection).
DEFAULT_SATURATION_LOADS = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.55,
                            0.70, 0.85)


def _keeps_up(metrics: dict[str, float], efficiency_floor: float) -> bool:
    return metrics["accepted_in_window"] >= efficiency_floor * metrics["offered"]


def scan_saturation_curve(pairs: Any, efficiency_floor: float) -> float:
    """Walk (load, metrics) pairs upward; return the last load whose
    accepted throughput kept up with ``efficiency_floor`` times the
    offered load. Accepts a lazy iterable, so serial searches stop
    measuring at the first saturated point."""
    last_good = 0.0
    for load, metrics in pairs:
        if not _keeps_up(metrics, efficiency_floor):
            return last_good
        last_good = load
    return last_good


def parallel_saturation_throughput(template: LoadPoint,
                                   loads: Sequence[float] | None = None,
                                   efficiency_floor: float = 0.9,
                                   workers: int | None = None) -> float:
    """Highest offered load still delivered at >= ``efficiency_floor``.

    Sweeps the template's offered load upward over ``loads``; saturation
    is declared at the first point whose in-window accepted throughput
    falls below the floor times the offered load, and the previous load
    is returned. Serially the walk stops measuring there; with
    ``workers`` > 1 every candidate load is evaluated concurrently and
    the same scan runs over the completed curve, so both return the same
    load for the same specs.
    """
    if loads is None:
        loads = list(DEFAULT_SATURATION_LOADS)
    specs = expand_loads(template, loads)
    if workers is None or workers <= 1:
        # Lazy pairs: the serial walk stops measuring at saturation.
        pairs = ((spec.load, evaluate_load_point(spec)) for spec in specs)
    else:
        pairs = zip(loads, measure_load_points(specs, workers))
    return scan_saturation_curve(pairs, efficiency_floor)


# -- bisection saturation search ------------------------------------------


@dataclass
class SaturationSearch:
    """Outcome of a bisection saturation search.

    Attributes:
        saturation: highest load measured to keep up with the floor.
        evaluated: every (load, metrics) measurement, in evaluation order.
        rounds: bisection rounds run (including the bracket round).

    Every point the bisection measured was fully simulated *and drained*,
    so the search already paid for a latency curve — the properties below
    reuse it instead of discarding everything but the knee.
    """

    saturation: float
    evaluated: list[tuple[float, dict[str, float]]]
    rounds: int

    @property
    def points_used(self) -> int:
        return len(self.evaluated)

    @property
    def curve(self) -> list[tuple[float, dict[str, float]]]:
        """The measured (load, metrics) points, sorted by load — the
        offered-load curve the bisection simulated along the way."""
        return sorted(self.evaluated, key=lambda pair: pair[0])

    @property
    def saturation_metrics(self) -> dict[str, float] | None:
        """The full measurement at the saturation load (None when the
        bracket was already saturated and ``saturation`` is 0.0)."""
        for load, metrics in self.evaluated:
            if load == self.saturation:
                return metrics
        return None

    @property
    def latency_at_saturation(self) -> float:
        """Mean latency (cycles) at the highest load that kept up —
        recovered from the already-simulated drained curve, at zero extra
        simulation cost. 0.0 when nothing kept up."""
        metrics = self.saturation_metrics
        return metrics["mean_latency_cycles"] if metrics else 0.0


def _efficiency_ratio(metrics: dict[str, float]) -> float:
    """Accepted over offered throughput (how well a load kept up)."""
    offered = metrics["offered"]
    return metrics["accepted_in_window"] / offered if offered > 0 else 1.0


def _knee_candidates(good: float, bad: float,
                     good_metrics: dict[str, float],
                     bad_metrics: dict[str, float],
                     k: int, efficiency_floor: float,
                     resolution: float) -> list[float]:
    """``k`` (or fewer) interior loads clustered around the knee estimate.

    The knee estimate interpolates the *efficiency ratio*
    (accepted/offered — above the floor at ``good``, below it at
    ``bad``) linearly between the bracket endpoints: its floor crossing
    is the knee whenever the ratio degrades roughly linearly with load,
    which is what measured saturation curves do near the knee. Candidates
    cluster around the estimate at ``resolution``-scale spacing, with the
    bracket midpoint always included when ``k >= 2``: when the
    interpolation is accurate the bracket collapses to candidate spacing
    in one round, and when it is wildly off the midpoint still
    guarantees classic halving. Single-point rounds (``k == 1``) cannot
    afford both, so the lone candidate is clamped to the central half of
    the bracket — a plausible estimate is still used, and a consistently
    wrong one still shrinks the bracket by a quarter per round.
    Candidates are clipped to the bracket interior and deduplicated, so a
    tight bracket may spend fewer than ``k`` points — adaptivity never
    wastes budget on loads that cannot move the bracket.
    """
    width = bad - good
    ratio_good = _efficiency_ratio(good_metrics)
    ratio_bad = _efficiency_ratio(bad_metrics)
    denominator = ratio_good - ratio_bad
    fraction = ((ratio_good - efficiency_floor) / denominator
                if denominator > 0 else 0.5)
    knee = good + width * min(max(fraction, 0.0), 1.0)
    spread = max(resolution / 2.0, width / 16.0)
    raw = [knee, good + width / 2.0]
    step = 1
    while len(raw) < k:
        raw.append(knee + step * spread)
        if len(raw) < k:
            raw.append(knee - step * spread)
        step += 1
    if k == 1:
        # No room for the midpoint guarantee: clamp the estimate into
        # the central half so every round shrinks the bracket by >= 1/4.
        edge = width / 4.0
    else:
        edge = min(spread / 2.0, width / (2.0 * (k + 1)))
    clipped = (min(max(load, good + edge), bad - edge) for load in raw[:k])
    return sorted(set(clipped))


def bisect_saturation_throughput(template: LoadPoint,
                                 lo: float = DEFAULT_SATURATION_LOADS[0],
                                 hi: float = DEFAULT_SATURATION_LOADS[-1],
                                 efficiency_floor: float = 0.9,
                                 budget: int = len(DEFAULT_SATURATION_LOADS),
                                 resolution: float = 0.01,
                                 points_per_round: int = 3,
                                 workers: int | None = None,
                                 placement: str = "adaptive",
                                 ) -> SaturationSearch:
    """Parallel bisection over the saturation knee.

    The fixed-grid search (:func:`parallel_saturation_throughput`) spends
    its whole budget on predetermined loads, so the returned knee is only
    as tight as the grid spacing. This search spends the *same* simulation
    budget adaptively: after bracketing with ``lo``/``hi``, each round
    evaluates up to ``points_per_round`` interior loads (concurrently,
    with ``workers`` > 1) and narrows the bracket to the sub-interval
    containing the knee. ``placement`` picks how each round spends its
    points:

    * ``"adaptive"`` (default) — cluster candidates around the current
      knee estimate (:func:`_knee_candidates`): the measured efficiency
      ratios at the bracket ends give an interpolated knee, most of the
      round's budget lands within ``resolution`` of it, and the bracket
      midpoint rides along (central clamp for single-point rounds) so a
      bad estimate still shrinks the bracket geometrically. Reaches a
      given knee tolerance in fewer points than the even spread whenever
      the efficiency ratio is roughly monotone in load.
    * ``"uniform"`` — ``points_per_round`` evenly spaced interior loads,
      shrinking the bracket by a fixed factor per round.

    Stops when the bracket is narrower than ``resolution`` or the budget
    is spent; returns the highest measured load that kept up with
    ``efficiency_floor`` times the offered load.

    Deterministic: the candidate loads depend only on measured metrics,
    the bracket, and ``points_per_round`` (never on ``workers``), and
    each measurement's seed derives from the template seed and its global
    evaluation index (:func:`point_seed`) — so serial and parallel
    searches measure identical curves and return identical knees.
    """
    if not 0.0 < lo < hi <= 1.0:
        raise ConfigurationError("need 0 < lo < hi <= 1")
    if budget < 2:
        raise ConfigurationError("bisection needs a budget of >= 2 points")
    if resolution <= 0.0:
        raise ConfigurationError("resolution must be positive")
    if points_per_round < 1:
        raise ConfigurationError("points_per_round must be >= 1")
    if placement not in ("adaptive", "uniform"):
        raise ConfigurationError(
            f"unknown placement {placement!r}: adaptive or uniform"
        )
    evaluated: list[tuple[float, dict[str, float]]] = []
    next_index = 0

    def measure(loads: list[float]) -> list[dict[str, float]]:
        nonlocal next_index
        specs = []
        for offset, load in enumerate(loads):
            specs.append(replace(template, load=load,
                                 seed=point_seed(template.seed,
                                                 next_index + offset)))
        next_index += len(loads)
        results = measure_load_points(specs, workers)
        evaluated.extend(zip(loads, results))
        return results

    # Round 0: bracket the knee.
    lo_metrics, hi_metrics = measure([lo, hi])
    budget -= 2
    rounds = 1
    if not _keeps_up(lo_metrics, efficiency_floor):
        # Saturated below the bracket: same verdict as the grid walk.
        return SaturationSearch(0.0, evaluated, rounds)
    if _keeps_up(hi_metrics, efficiency_floor):
        return SaturationSearch(hi, evaluated, rounds)
    good, bad = lo, hi
    good_metrics, bad_metrics = lo_metrics, hi_metrics
    while budget > 0 and (bad - good) > resolution:
        k = min(points_per_round, budget)
        if placement == "adaptive":
            candidates = _knee_candidates(good, bad, good_metrics,
                                          bad_metrics, k, efficiency_floor,
                                          resolution)
        else:
            step = (bad - good) / (k + 1)
            candidates = [good + step * (i + 1) for i in range(k)]
        results = measure(candidates)
        budget -= len(candidates)
        rounds += 1
        for load, metrics in zip(candidates, results):
            if _keeps_up(metrics, efficiency_floor):
                good, good_metrics = load, metrics
            else:
                bad, bad_metrics = load, metrics
                break
    return SaturationSearch(good, evaluated, rounds)

