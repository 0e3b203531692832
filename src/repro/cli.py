"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``info``      — describe any registered fabric (structure, clock
  distribution, f_max, area, clock power; the tree family adds its
  skew-limited f_max);
* ``validate``  — run the eq. (1)-(7) timing checks at a frequency on a
  fabric that carries the integrated clock;
* ``fig7``      — print the Fig. 7 frequency/wire-length curve;
* ``traffic``   — run a synthetic workload on any registered fabric and
  print the statistics, or replay a recorded injection trace
  (``--trace file.jsonl``);
* ``replay``    — replay an accelerator workload trace (canned model or
  ``--trace file.jsonl``) over any registered fabric: a control
  processor fans commands out to processing elements whose DMAs hit
  memory channels, and the run reports makespan, per-PE utilisation and
  NoC stall cycles; ``--sweep-placements N`` measures N rotated
  placements (optionally ``--workers``-parallel);
* ``sweep``     — offered-load sweep (optionally process-parallel), as a
  fixed grid or a parallel bisection of the saturation knee, over any
  registered fabric (``--topology tree|mesh|torus|ring|ctree``), with
  per-run energy (pJ/flit, mean mW) alongside throughput and latency,
  per-point telemetry as JSONL via ``--metrics out.jsonl``, the
  vectorized execution backend via ``--backend array``, and
  crash-resumable campaigns via ``--checkpoint out.jsonl`` (finished
  points are appended and skipped on rerun, keyed by spec hash);
* ``metrics``   — run one load point with the metrics registry attached
  and print the congestion attribution (top-k links/routers, latency
  percentiles); ``--metrics out.jsonl`` exports the summary;
* ``trace``     — follow sampled packets hop by hop (deterministic
  1-in-N sampling), decomposing queueing vs transit per hop;
* ``compare``   — the paper-style physical comparison (hops, buffer
  flits, area, energy per flit, clock power) across every registered
  topology under every flow control it declares, plus a real-workload
  makespan column replaying the same accelerator trace on every row
  (``--workload none`` keeps it purely structural);
* ``topologies``— list the fabric registry (structure, clocking);
* ``demo``      — run the 32-tile demonstrator system;
* ``corners``   — operating frequency per process corner;
* ``reproduce`` — evaluate the paper-vs-measured record
  (:mod:`repro.analysis.experiments`), or only the named experiments
  (``reproduce EXP-F7 EXP-RT``): one row per paper number or claim,
  exit 1 if any row deviates.

Every fabric knob is one row of :data:`FABRIC_KNOBS` (flag ->
:class:`~repro.fabric.registry.FabricConfig` field(s) + argparse
keywords). A verb offers a knob by naming its flag, and
:func:`_fabric_config_from` reads each offered knob back through the same
row, so it is spelled, defaulted and refused one way on every verb that
builds a network. Adding a knob is one row, plus its flag in the verbs
that offer it. ``binary``/``quad`` (:data:`TREE_ALIASES`) are the only
aliases: the registered ``tree`` at arity 2/4. The eq. (1)-(7) timing
checks model links that carry the integrated clock, so ``validate``
refuses every fabric the registry does not mark tree-legal, naming the
supported set.

Every module a verb runs (the sweep engine, the traffic generators,
numpy, the demonstrator, the corners table, the timing checks, plots,
tables, the record, the accelerator replay) is imported inside that
verb, so ``import repro.cli`` loads only what the parser reads: the
fabric registry and the allocator names, without numpy or the tree.

Errors: a verb raises :class:`~repro.errors.ConfigurationError` for an
illegal spec, a bad knob or a corrupt input file and never catches it;
:func:`main` prints ``error: <message>`` to stderr and exits 2, after
whatever the verb printed first. Other exceptions propagate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.errors import ConfigurationError
from repro.fabric.allocator import ALLOCATOR_NAMES
from repro.fabric.registry import (
    BACKENDS,
    FLOW_VC,
    FLOW_WORMHOLE,
    FabricConfig,
    get_topology,
    topology_names,
    topology_table,
)


#: The historical tree spellings: the registered ``tree`` at this arity.
TREE_ALIASES = {"binary": 2, "quad": 4}


def sweep_topologies() -> tuple[str, ...]:
    """What every network verb's ``--topology`` accepts: the historical
    tree aliases plus every registered fabric — a new
    ``register_topology`` call is immediately sweepable, no CLI edit
    needed."""
    return tuple(TREE_ALIASES) + topology_names()


#: Every fabric knob, declared once: flag -> (the FabricConfig field(s)
#: it sets, its argparse keywords). A callable ``choices`` is read when
#: the parser is built, so it follows the registry.
FABRIC_KNOBS: dict[str, tuple[tuple[str, ...], dict]] = {
    "--ports": (("ports",), dict(
        type=int, default=64, help="network ports (power of the arity)")),
    "--topology": (("topology",), dict(
        choices=sweep_topologies, default="binary")),
    "--chip-mm": (("chip_width_mm", "chip_height_mm"), dict(
        type=float, default=10.0, help="square chip edge length in mm")),
    "--segment-mm": (("max_segment_mm",), dict(
        type=float, default=1.25,
        help="maximum pipeline segment length in mm (default: 1.25)")),
    "--buffer-depth": (("buffer_depth",), dict(
        type=int, default=4, help="credit FIFO depth per (port, VC)")),
    "--backend": (("backend",), dict(
        choices=BACKENDS, default="dispatch",
        help="execution backend for credit fabrics: dispatch (per-router "
             "events), array (vectorized whole-fabric kernel, loud error "
             "when the config has no lowering), auto (array when "
             "supported, else dispatch)")),
    "--flow-control": (("flow_control",), dict(
        choices=(FLOW_WORMHOLE, FLOW_VC), default=FLOW_WORMHOLE,
        help="link-level flow control for registry fabrics "
             "(vc = virtual channels)")),
    "--vcs": (("n_vcs",), dict(
        type=int, default=None,
        help="virtual channels per port, default 2 (--flow-control vc "
             "only)")),
    "--vc-policy": (("vc_policy",), dict(
        default=None,
        help="VC-assignment policy (topology default when omitted): "
             "dateline | escape")),
    "--allocator": (("allocator",), dict(
        choices=ALLOCATOR_NAMES, default="rr",
        help="router allocation policy: rr round-robin (every fabric); "
             "with --flow-control vc, weighted per-VC bandwidth "
             "reservations or escape-reentry Duato-legal escape-to-adaptive "
             "re-entry; on the binary tree, local_priority (a processor "
             "beats the network to its local memory)")),
    "--reserve": (("reservations",), dict(
        action="append", default=None, metavar="VC:FRACTION",
        help="reserve FRACTION of each output port's bandwidth for VC "
             "(repeatable; --allocator weighted only)")),
    "--priority-flow": (("priority_flows",), dict(
        action="append", default=None, metavar="SRC:DEST",
        help="route the SRC->DEST flow on the dedicated priority lane "
             "(repeatable; escape VC policy only)")),
    "--pipeline-depth": (("pipeline_depth",), dict(
        type=int, default=1,
        help="router pipeline stages on credit fabrics (default: 1 = "
             "single-cycle routers)")),
    "--segment-links": (("segment_links",), dict(
        action="store_true",
        help="pipeline credit-fabric links so no segment exceeds "
             "--segment-mm (the tree always does)")),
    "--naive": (("activity_driven",), dict(
        action="store_true",
        help="run the naive (non-activity-driven) kernel; results are "
             "bit-identical, only slower")),
}

#: The knobs every network verb offers.
NETWORK = ("--ports", "--topology", "--chip-mm", "--segment-mm")
#: Flow control and allocation (credit fabrics; the tree takes only
#: --allocator rr or local_priority).
FLOW = ("--flow-control", "--vcs", "--vc-policy", "--allocator",
        "--reserve", "--priority-flow")
#: Every credit-fabric knob of the verbs that run load points.
CREDIT = ("--backend", *FLOW, "--pipeline-depth", "--segment-links")


def _offer(parser: argparse.ArgumentParser, flags: Sequence[str],
           overrides: dict[str, dict] | None = None) -> None:
    """Add the named :data:`FABRIC_KNOBS` to a verb's parser, with the
    verb's own argparse keywords (``overrides[flag]``) on top."""
    for flag in flags:
        keywords = {**FABRIC_KNOBS[flag][1], **(overrides or {}).get(flag, {})}
        if callable(keywords.get("choices")):
            keywords["choices"] = keywords["choices"]()
        parser.add_argument(flag, **keywords)


def _pairs(specs, flag: str, shape: str, left, right) -> tuple:
    """Parse a repeatable ``A:B`` option into ``((a, b), ...)``."""
    pairs = []
    for spec in specs or ():
        try:
            first, second = spec.split(":", 1)
            pairs.append((left(first), right(second)))
        except ValueError:
            raise ConfigurationError(
                f"{flag} expects {shape}, got {spec!r}"
            )
    return tuple(pairs)


def _fabric_config_from(args: argparse.Namespace) -> FabricConfig:
    """The network spec an invocation names.

    The only place the CLI spells the registry's vocabulary: every verb
    that builds a fabric maps its offered :data:`FABRIC_KNOBS` through
    here (a knob the verb does not offer keeps the spec's own default),
    and the registry itself decides legality (knobs the topology cannot
    honour, allocator vs flow control, reservation bounds, port shapes).
    """
    options = vars(args)
    spec = {}
    for flag, (fields, _) in FABRIC_KNOBS.items():
        dest = flag[2:].replace("-", "_")
        if dest not in options:
            continue
        value = options[dest]
        if flag == "--topology" and value in TREE_ALIASES:
            value, spec["arity"] = "tree", TREE_ALIASES[value]
        elif flag == "--vcs":
            if value is None:
                continue
            if options.get("flow_control") != FLOW_VC:
                # n_vcs has a default the registry cannot tell from
                # "--vcs 2".
                raise ConfigurationError(
                    "--vcs only applies with --flow-control vc"
                )
        elif flag == "--reserve":
            value = _pairs(value, flag, "VC:FRACTION", int, float)
        elif flag == "--priority-flow":
            value = _pairs(value, flag, "SRC:DEST", int, int)
        elif flag == "--naive":
            value = not value
        spec.update(dict.fromkeys(fields, value))
    return FabricConfig(**spec)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.physical.descriptor import physical_model
    config = _fabric_config_from(args)
    network = config.build()
    entry = get_topology(config.topology)
    model = physical_model(network)
    frequency = model.frequency_ghz()
    clock = model.clock_power(frequency, sink_activity=1.0)
    print(network.describe())
    print(f"clock distribution: {model.clock_distribution}, "
          f"f_max {frequency:.3f} GHz")
    if entry.supports_pipeline:
        # Credit fabrics only: the handshake trees have a fixed pipeline
        # and report their stages in describe() already.
        print(f"pipeline: router depth {config.pipeline_depth}, "
              f"{network.link_stage_count} link stage registers, "
              f"longest segment {network.longest_segment_mm():.3f} mm "
              f"-> critical path {frequency:.3f} GHz")
        line = f"allocation: {config.allocator}"
        if config.reservations:
            shares = ", ".join(f"vc{vc}={fraction:g}" for vc, fraction
                               in sorted(config.reservations))
            line += f" (reservations {shares})"
        if config.priority_flows:
            flows = ", ".join(f"{src}->{dest}" for src, dest
                              in config.priority_flows)
            line += f" (priority flows {flows})"
        print(line)
    print(f"area: {model.area_report().describe()}")
    if entry.structure.tree_legal:
        from repro.timing.validator import channels_max_frequency
        skew_limited = channels_max_frequency(network.channel_specs,
                                              config.tech.register)
        print(f"skew-limited f_max: {skew_limited:.3f} GHz")
    print(f"clock power (un-gated): {clock.describe()}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.timing.validator import validate_channels
    config = _fabric_config_from(args)
    legal = [name for name in topology_names()
             if get_topology(name).structure.tree_legal]
    if config.topology not in legal:
        raise ConfigurationError(
            f"the eq. (1)-(7) timing checks model the handshake "
            f"tree only (supported: {', '.join((*TREE_ALIASES, *legal))}); "
            f"{args.topology!r} has converging paths, so it cannot carry "
            f"the integrated clock — see 'repro compare' for its physical "
            f"report"
        )
    network = config.build()
    frequency = args.frequency or network.operating_frequency_ghz()
    report = validate_channels(network.channel_specs, config.tech.register,
                               frequency)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_fig7(args: argparse.Namespace) -> int:
    import numpy as np
    from repro.analysis.plots import ascii_plot
    from repro.timing.frequency import pipeline_max_frequency
    lengths = list(np.linspace(0.0, args.max_length, args.points))
    freqs = [pipeline_max_frequency(x) for x in lengths]
    print(ascii_plot(lengths, freqs, x_label="wire length (mm)",
                     y_label="f (GHz)",
                     title="Fig. 7: frequency vs segment length"))
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    from repro.traffic.base import apply_traffic
    network = _fabric_config_from(args).build()
    if args.trace is not None:
        # Replay a recorded schedule instead of generating one — the
        # loader (shared with the accel formats) validates the trace's
        # schema version and reports corrupt lines by number.
        from repro.traffic.trace import replay_trace

        injections = replay_trace(args.trace)
        for injection in injections:
            if not 0 <= injection.src < args.ports \
                    or not 0 <= injection.dest < args.ports:
                raise ConfigurationError(
                    f"{args.trace}: injection {injection.src} -> "
                    f"{injection.dest} does not fit a "
                    f"{args.ports}-port network"
                )
        apply_traffic(network, injections)
        print(f"replayed {len(injections)} injections from {args.trace}")
    else:
        import numpy as np
        from repro.traffic.patterns import NeighbourTraffic, UniformRandom
        if args.pattern == "uniform":
            generator = UniformRandom(args.ports, args.load,
                                      size_flits=args.flits)
        else:
            generator = NeighbourTraffic(args.ports, args.load,
                                         size_flits=args.flits,
                                         locality=args.locality)
        schedule = generator.generate(args.cycles,
                                      np.random.default_rng(args.seed))
        apply_traffic(network, schedule, run_cycles=args.cycles)
    stats = network.stats
    print(stats.describe())
    return 0 if stats.packets_delivered == stats.packets_injected else 1


def _traffic_template(args: argparse.Namespace, load: float,
                      telemetry: bool = False,
                      trace_sample_period: int | None = None):
    """A :class:`~repro.analysis.parallel.LoadPoint` from the shared
    traffic options.

    Raises :class:`ConfigurationError` on bad knob combinations (never
    silently ignore a knob the selected pattern cannot honour).
    """
    from repro.analysis.parallel import LoadPoint
    if args.pattern != "hotspot" and (args.hotspots is not None
                                      or args.hotspot_fraction is not None):
        raise ConfigurationError(
            "--hotspots/--hotspot-fraction only apply with "
            "--traffic hotspot"
        )
    hotspots_arg = "0" if args.hotspots is None else args.hotspots
    try:
        hotspots = tuple(int(x) for x in hotspots_arg.split(",")
                         if x.strip())
    except ValueError:
        raise ConfigurationError(
            f"--hotspots expects comma-separated port numbers, "
            f"got {args.hotspots!r}"
        )
    return LoadPoint(
        load=load,
        network=_fabric_config_from(args),
        pattern=args.pattern, cycles=args.cycles,
        size_flits=args.flits, locality=args.locality,
        seed=args.seed,
        hotspots=hotspots,
        hotspot_fraction=(0.3 if args.hotspot_fraction is None
                          else args.hotspot_fraction),
        telemetry=telemetry,
        trace_sample_period=trace_sample_period,
    )


def _export_metrics(path: str, pairs: list[tuple[float, dict]]) -> None:
    """Write per-point records as JSONL and print the merged hot links."""
    from repro.analysis.parallel import _result_to_json
    from repro.telemetry import MetricsSummary
    with open(path, "w") as handle:
        for load, metrics in pairs:
            record = {**_result_to_json(metrics), "load": load}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    merged = MetricsSummary.merge(
        metrics["telemetry"] for _, metrics in pairs)
    print(f"metrics written to {path} ({len(pairs)} points)")
    hot = ", ".join(f"{name} ({util:.0%})"
                    for name, _, util in merged.top_links(3))
    if hot:
        print(f"hottest links across the run: {hot}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import (
        bisect_saturation_throughput,
        expand_loads,
        measure_load_points,
    )
    from repro.analysis.tables import format_table
    try:
        loads = [float(x) for x in args.loads.split(",") if x.strip()]
    except ValueError:
        raise ConfigurationError(f"--loads expects comma-separated numbers, "
                                 f"got {args.loads!r}")
    if not loads:
        raise ConfigurationError("--loads needs at least one value")
    template = _traffic_template(args, loads[0],
                                 telemetry=args.metrics is not None)
    if args.search != "bisect" and args.placement is not None:
        raise ConfigurationError(
            "--placement only applies with --search bisect")
    bisect = args.search == "bisect"
    if bisect:
        if len(loads) < 2:
            raise ConfigurationError("--search bisect needs at least two "
                                     "--loads values (the bracket)")
        if args.checkpoint is not None:
            # Bisection picks each round's loads from the previous
            # round's measurements; skip-by-hash resume only makes sense
            # for a predetermined grid.
            raise ConfigurationError(
                "--checkpoint only applies with --search grid")
        search = bisect_saturation_throughput(
            template, lo=min(loads), hi=max(loads),
            budget=max(len(loads), args.budget),
            workers=args.workers,
            placement=args.placement or "adaptive",
        )
        points = list(search.evaluated)
        title = (f"Saturation bisection: {args.topology}, "
                 f"{args.ports} ports, {args.pattern}, "
                 f"workers={args.workers}, "
                 f"{search.points_used} points / {search.rounds} rounds")
    else:
        specs = expand_loads(template, loads, base_seed=args.seed)
        results = measure_load_points(specs, workers=args.workers,
                                      checkpoint=args.checkpoint)
        points = [(spec.load, m) for spec, m in zip(specs, results)]
        title = (f"Offered-load sweep: {args.topology}, {args.ports} ports, "
                 f"{args.pattern}, workers={args.workers}")
    rows = [[round(load, 4) if bisect else load,
             round(m["offered"], 4),
             round(m["accepted_in_window"], 4),
             round(m["mean_latency_cycles"], 2),
             _energy_cell(m),
             "yes" if m["drained"] else "NO"]
            for load, m in points]
    print(format_table(
        ["load", "offered", "accepted", "latency (cy)", "pJ/flit",
         "drained"],
        rows, title=title,
    ))
    if bisect:
        print(f"saturation throughput: {search.saturation:.4f} "
              f"offered load")
        # The drained curve is already paid for — report the knee's
        # latency instead of discarding it.
        print(f"latency at saturation: {search.latency_at_saturation:.2f} "
              f"cycles (reused from the measured curve)")
    if args.metrics is not None:
        _export_metrics(args.metrics, points)
    return 0 if all(m["drained"] for _, m in points) else 1


def _energy_cell(metrics: dict) -> str:
    """Per-run flit energy, when the network published a physical model."""
    energy = metrics.get("energy_pj_per_flit")
    return "-" if energy is None else f"{energy:.2f}"


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import evaluate_load_point
    from repro.telemetry import render_metrics_report
    if args.top < 1:
        raise ConfigurationError(f"--top must be >= 1, got {args.top}")
    template = _traffic_template(args, args.load, telemetry=True)
    metrics = evaluate_load_point(template)
    print(f"Metrics: {args.topology}, {args.ports} ports, {args.pattern} "
          f"at load {args.load:g}, {args.cycles} cycles")
    print(render_metrics_report(metrics["telemetry"], top=args.top))
    print(f"offered {metrics['offered']:.4f}, accepted "
          f"{metrics['accepted_in_window']:.4f} flits/cycle/port, "
          f"drained: {'yes' if metrics['drained'] else 'NO'}")
    if args.metrics is not None:
        _export_metrics(args.metrics, [(args.load, metrics)])
    return 0 if metrics["drained"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import evaluate_load_point
    if args.max_packets < 0:
        raise ConfigurationError(
            f"--max-packets must be >= 0, got {args.max_packets}")
    template = _traffic_template(args, args.load,
                                 trace_sample_period=args.sample_period)
    metrics = evaluate_load_point(template)
    traces = metrics["traces"]
    print(f"Trace: {args.topology}, {args.ports} ports, {args.pattern} at "
          f"load {args.load:g} — 1 in {args.sample_period} packets sampled "
          f"({len(traces)} traces)")
    for trace in traces[:args.max_packets]:
        print(trace.describe())
    if len(traces) > args.max_packets:
        print(f"... and {len(traces) - args.max_packets} more sampled "
              f"packets (raise --max-packets)")
    return 0 if metrics["drained"] else 1


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.accel import (
        ReplaySystem,
        generate_trace,
        load_accel_trace,
        save_accel_trace,
        sweep_placements,
    )
    from repro.analysis.tables import format_table
    if args.trace is not None:
        trace = load_accel_trace(args.trace)
    else:
        trace = generate_trace(args.model, pes=args.pes, mems=args.mems,
                               seed=args.seed)
    if args.save_trace is not None:
        save_accel_trace(trace, args.save_trace)
        print(f"trace written to {args.save_trace} "
              f"({len(trace.events)} events)")
    config = _fabric_config_from(args)
    if args.sweep_placements:
        records = sweep_placements(
            config, model=args.model, trace_path=args.trace,
            pes=trace.pes, mems=trace.mems, seed=args.seed,
            offsets=tuple(range(args.sweep_placements)),
            workers=args.workers, max_cycles=args.max_cycles)
        print(format_table(
            ["offset", "makespan cy", "noc stall cy", "delivered"],
            [[r["offset"], r["makespan_cycles"], r["noc_stall_cycles"],
              r["packets_delivered"]] for r in records],
            title=(f"Placement sweep: {trace.model} on "
                   f"{config.topology} ({config.flow_control}), "
                   f"{config.ports} endpoints"),
        ))
        best = min(records, key=lambda r: r["makespan_cycles"])
        print(f"best offset: {best['offset']} "
              f"({best['makespan_cycles']} cycles)")
        return 0
    system = ReplaySystem(trace, config)
    registry = None
    if args.metrics is not None:
        from repro.telemetry import attach_metrics
        registry = attach_metrics(system.network)
    results = system.run(max_cycles=args.max_cycles)
    print(f"replay: {trace.model} on {config.topology} "
          f"({config.flow_control}), {config.ports} endpoints, "
          f"{len(trace.events)} events")
    print(f"makespan: {results.makespan_cycles} cycles")
    print(f"noc stall cycles: {results.noc_stall_cycles} "
          f"({results.packets_delivered} packets, "
          f"{results.flits_delivered} flits delivered)")
    for pe in results.per_pe:
        print(f"  pe{pe.pe}: {pe.compute_cycles} compute cy, "
              f"{pe.stall_cycles} stall cy, "
              f"utilisation {pe.utilization:.1%}")
    if registry is not None:
        with open(args.metrics, "w") as handle:
            handle.write(json.dumps(registry.summary().to_dict(),
                                    sort_keys=True) + "\n")
        print(f"metrics written to {args.metrics}")
    if args.json:
        print(results.to_json())
    if not results.completed:
        print(f"error: replay incomplete after {args.max_cycles} cycles",
              file=sys.stderr)
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.physical.comparison import physical_comparison_rows
    workload = None if args.workload == "none" else args.workload
    rows = physical_comparison_rows(
        nodes=args.nodes, n_vcs=args.vcs,
        buffer_depth=args.buffer_depth,
        concentration=args.concentration, chip_mm=args.chip_mm,
        pipeline_depth=args.pipeline_depth,
        segment_mm=args.segment_mm,
        backend=args.backend,
        workload=workload,
    )
    pipeline_note = ""
    if args.pipeline_depth != 1:
        pipeline_note += f", {args.pipeline_depth}-stage routers"
    if args.segment_mm is not None:
        pipeline_note += f", <= {args.segment_mm:g} mm segments"
    if workload is not None:
        pipeline_note += f", workload {workload}"
    headers = ["topology", "flow", "clock", "hops avg/worst",
               "buffer flits", "area mm^2", "pJ/flit", "clock mW",
               "f GHz"]
    cells = [[r.topology, r.flow_control, r.clock_distribution,
              f"{r.mean_hops:.2f} / {r.worst_hops}",
              r.buffer_flits,
              round(r.area_mm2, 3),
              round(r.energy_pj_per_flit, 2),
              round(r.clock_mw, 2),
              round(r.frequency_ghz, 3)] for r in rows]
    if workload is not None:
        headers.append("makespan cy")
        for row, r in zip(cells, rows):
            row.append(r.makespan_cycles)
    print(format_table(
        headers, cells,
        title=(f"Physical comparison, {args.nodes} endpoints, buffer "
               f"depth {args.buffer_depth}, {args.vcs} VCs"
               f"{pipeline_note} "
               f"(clock power un-gated; VC rows pay n_vcs x the "
               f"wormhole buffers)"),
    ))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.system.demonstrator import (DemonstratorConfig,
                                           DemonstratorSystem)
    system = DemonstratorSystem(DemonstratorConfig(tiles=args.tiles,
                                                   seed=args.seed))
    results = system.run(cycles=args.cycles)
    print(results.describe())
    return 0 if results.requests_completed == results.requests_issued else 1


def cmd_topologies(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    rows = [[r["name"], r["clocking"], r["tree_legal"], r["flow_control"],
             r["allocators"], r["description"]]
            for r in topology_table()]
    print(format_table(
        ["topology", "clock distribution", "tree-legal", "flow control",
         "allocators", "description"],
        rows,
        title="Fabric registry (sweep --topology <name>)",
    ))
    return 0


def cmd_corners(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.tech.corners import corner_frequency_table
    rows = corner_frequency_table()
    print(format_table(
        ["corner", "delay factor", "pipeline@1.25mm (GHz)", "3x3 (GHz)"],
        [[r["corner"], r["delay_factor"],
          round(r["pipeline_1_25mm_ghz"], 3),
          round(r["router_3x3_ghz"], 3)] for r in rows],
        title="Operating frequency per process corner",
    ))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import evaluate
    log = evaluate(args.experiments)
    print(log.render(title="Paper vs measured"))
    print(f"{len(log.comparisons)} rows:",
          "ALL MATCH" if log.all_match else "DEVIATIONS PRESENT")
    return 0 if log.all_match else 1


def build_parser() -> argparse.ArgumentParser:
    from repro.accel.generators import MODEL_NAMES
    from repro.traffic.patterns import PATTERN_NAMES
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IC-NoC reproduction (Bjerregaard et al., DATE 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a network instance")
    _offer(p_info, NETWORK + CREDIT)
    p_info.set_defaults(func=cmd_info)

    p_val = sub.add_parser("validate", help="run the timing checks")
    _offer(p_val, NETWORK)
    p_val.add_argument("--frequency", type=float, default=None,
                       help="GHz (default: the operating point)")
    p_val.set_defaults(func=cmd_validate)

    p_fig = sub.add_parser("fig7", help="print the Fig. 7 curve")
    p_fig.add_argument("--max-length", type=float, default=3.0)
    p_fig.add_argument("--points", type=int, default=61)
    p_fig.set_defaults(func=cmd_fig7)

    p_tr = sub.add_parser("traffic", help="run a synthetic workload")
    _offer(p_tr, NETWORK)
    p_tr.add_argument("--pattern", choices=("uniform", "neighbour"),
                      default="uniform")
    p_tr.add_argument("--load", type=float, default=0.1)
    p_tr.add_argument("--locality", type=float, default=0.8)
    p_tr.add_argument("--flits", type=int, default=1)
    p_tr.add_argument("--cycles", type=int, default=300)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--trace", default=None,
                      help="replay this recorded injection trace "
                           "(JSONL, see repro.traffic.trace) instead of "
                           "generating synthetic traffic")
    p_tr.set_defaults(func=cmd_traffic)

    # The network, credit-fabric and workload knobs of every verb that
    # runs load points (sweep, metrics, trace).
    load_points = argparse.ArgumentParser(add_help=False)
    _offer(load_points, NETWORK)
    load_points.add_argument("--traffic", "--pattern", dest="pattern",
                             choices=PATTERN_NAMES, default="uniform",
                             help="traffic pattern (--pattern is the "
                                  "historical spelling)")
    _offer(load_points, CREDIT)
    load_points.add_argument("--hotspots", default=None,
                             help="comma-separated hotspot ports, default "
                                  "0 (--traffic hotspot only)")
    load_points.add_argument("--hotspot-fraction", type=float, default=None,
                             help="fraction of traffic aimed at the "
                                  "hotspots, default 0.3 (--traffic "
                                  "hotspot only)")
    load_points.add_argument("--locality", type=float, default=0.8)
    load_points.add_argument("--flits", type=int, default=1)
    load_points.add_argument("--cycles", type=int, default=300)
    load_points.add_argument("--seed", type=int, default=0)

    p_sw = sub.add_parser("sweep", parents=[load_points],
                          help="offered-load sweep (parallelisable)")
    p_sw.add_argument("--loads", default="0.05,0.10,0.20,0.40",
                      help="comma-separated offered loads")
    p_sw.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial)")
    p_sw.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="append finished points to PATH (JSONL, keyed "
                           "by spec hash); a rerun skips the recorded "
                           "points and merges identical results "
                           "(--search grid only)")
    p_sw.add_argument("--metrics", default=None, metavar="PATH",
                      help="attach the telemetry registry to every point "
                           "and export per-point MetricsSummary records "
                           "as JSONL to PATH")
    p_sw.add_argument("--search", choices=("grid", "bisect"),
                      default="grid",
                      help="grid: measure every --loads value; bisect: "
                           "parallel bisection of the saturation knee "
                           "between min and max of --loads")
    p_sw.add_argument("--budget", type=int, default=9,
                      help="simulation budget for --search bisect")
    p_sw.add_argument("--placement", choices=("adaptive", "uniform"),
                      default=None,
                      help="bisect point placement, default adaptive: "
                           "cluster near the knee estimate, or spread "
                           "evenly per round (--search bisect only)")
    p_sw.set_defaults(func=cmd_sweep)

    p_met = sub.add_parser(
        "metrics", parents=[load_points],
        help="one load point with the metrics registry attached: "
             "congestion attribution, latency percentiles, JSONL export",
    )
    p_met.add_argument("--load", type=float, default=0.2,
                       help="offered load in flits/cycle/port")
    p_met.add_argument("--top", type=int, default=5,
                       help="links/routers named in the attribution report")
    p_met.add_argument("--metrics", default=None, metavar="PATH",
                       help="also export the MetricsSummary as JSONL "
                            "to PATH")
    p_met.set_defaults(func=cmd_metrics)

    p_trc = sub.add_parser(
        "trace", parents=[load_points],
        help="follow sampled packets hop by hop (queueing vs transit)",
    )
    p_trc.add_argument("--load", type=float, default=0.2,
                       help="offered load in flits/cycle/port")
    p_trc.add_argument("--sample-period", type=int, default=16,
                       help="trace every Nth packet (deterministic "
                            "id-based sampling)")
    p_trc.add_argument("--max-packets", type=int, default=8,
                       help="traces printed before summarising the rest")
    p_trc.set_defaults(func=cmd_trace)

    p_demo = sub.add_parser("demo", help="run the 32-tile demonstrator")
    p_demo.add_argument("--tiles", type=int, default=32)
    p_demo.add_argument("--cycles", type=int, default=1000)
    p_demo.add_argument("--seed", type=int, default=2007)
    p_demo.set_defaults(func=cmd_demo)

    p_cmp = sub.add_parser(
        "compare",
        help="paper-style physical comparison across every registered "
             "fabric (hops, buffers, area, energy, clock power)",
    )
    p_cmp.add_argument("--nodes", type=int, default=16,
                       help="network endpoints per fabric; must fit every "
                            "registered shape (square, power of two, "
                            "multiple of the concentration) — 16 and 64 do")
    # Every row is its own fabric: compare reads these knobs itself.
    compare_knobs = {
        "--vcs": dict(default=2,
                      help="virtual channels per port on the VC rows"),
        "--segment-mm": dict(
            default=None,
            help="pipeline every link at this maximum segment length in "
                 "mm (default: credit-fabric links unsegmented; the tree "
                 "rows always segment, at 1.25 mm unless set)"),
    }
    _offer(p_cmp, ("--buffer-depth", "--vcs"), compare_knobs)
    p_cmp.add_argument("--concentration", type=int, default=4,
                       help="endpoints per ctree leaf NI")
    _offer(p_cmp, ("--chip-mm", "--pipeline-depth", "--segment-mm",
                   "--backend"), compare_knobs)
    p_cmp.add_argument("--workload", choices=MODEL_NAMES + ("none",),
                       default="llm-decode",
                       help="canned accelerator trace replayed on every "
                            "row for the makespan column ('none' keeps "
                            "the table purely structural)")
    p_cmp.set_defaults(func=cmd_compare)

    p_rp = sub.add_parser(
        "replay",
        help="replay an accelerator workload trace (CP/PE/memory "
             "endpoint models) over any registered fabric",
    )
    _offer(p_rp, ("--topology", "--ports", *FLOW, "--buffer-depth",
                  "--chip-mm"), {
        "--topology": dict(choices=topology_names, default="torus"),
        "--ports": dict(default=16, help="fabric endpoints (CP + PEs + "
                                         "memory channels must fit)"),
    })
    p_rp.add_argument("--model", choices=MODEL_NAMES,
                      default="llm-decode",
                      help="canned workload to generate (ignored with "
                           "--trace)")
    p_rp.add_argument("--trace", default=None,
                      help="replay this accel trace file instead of "
                           "generating --model")
    p_rp.add_argument("--save-trace", default=None,
                      help="also write the replayed trace to this file")
    p_rp.add_argument("--pes", type=int, default=4,
                      help="processing elements of the generated trace")
    p_rp.add_argument("--mems", type=int, default=2,
                      help="memory channels of the generated trace")
    p_rp.add_argument("--seed", type=int, default=0,
                      help="trace-generator seed")
    p_rp.add_argument("--max-cycles", type=int, default=500_000,
                      help="abort an unfinished replay past this budget")
    _offer(p_rp, ("--naive",))
    p_rp.add_argument("--metrics", default=None,
                      help="attach the telemetry registry and write its "
                           "summary JSON here")
    p_rp.add_argument("--json", action="store_true",
                      help="also print the full results as JSON")
    p_rp.add_argument("--sweep-placements", type=int, default=0,
                      metavar="N",
                      help="replay under N rotated placements and rank "
                           "them by makespan")
    p_rp.add_argument("--workers", type=int, default=1,
                      help="worker processes for --sweep-placements")
    p_rp.set_defaults(func=cmd_replay)

    p_top = sub.add_parser("topologies", help="list the fabric registry")
    p_top.set_defaults(func=cmd_topologies)

    p_cor = sub.add_parser("corners", help="frequency per process corner")
    p_cor.set_defaults(func=cmd_corners)

    p_rep = sub.add_parser(
        "reproduce", help="the paper-vs-measured record; exit 1 on deviation")
    p_rep.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                       help="experiments to evaluate (default: all)")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        # The one error boundary: a bad spec, knob or input file is a
        # one-line diagnosis and exit 2, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
