"""A caller census of the public surface: exported names nobody calls.

For ``repro`` and every sub-package with an ``__all__``, a name is an
orphan when no file outside its home mentions it as a word. Its home is
the module that defines it (the one the package ``__init__`` imports it
from, or names for it in its lazy export table), that module's package
``__init__``, and the ``__init__`` whose ``__all__`` lists it. Outside
is every other ``.py`` file under ``src/`` plus ``examples/`` and
``bench/``; tests are not callers.

The orphan list is pinned below and may only shrink: a new export needs
a caller, and a deleted or newly called name is struck from the list.
Reads the sources with ``ast`` and one word set per file; imports
nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (package, name, why it stays exported) for every name with no caller
#: outside its home. A valid reason is that it is the return or
#: parameter type of a called API, or that it waits for a named ROADMAP
#: item; any other orphan leaves ``__all__`` and stays importable from
#: its defining module.
ORPHANS = [
    ("repro", "__version__", "the package version"),
    ("repro.analysis", "EXPERIMENTS", "the table whose ids evaluate() takes"),
    ("repro.analysis", "ExperimentLog", "return type of evaluate()"),
    ("repro.analysis", "PaperComparison", "ExperimentLog.comparisons items"),
    ("repro.clocking", "ClockTreeNode", "return type of ClockTree.node()"),
    ("repro.clocking", "DegradationPoint",
     "items of graceful_degradation_curve()"),
    ("repro.clocking", "PhaseDetectorScheme",
     "waits for the timing contract's step (c)"),
    ("repro.clocking", "VariationModel",
     "parameter type of graceful_degradation_curve()"),
    ("repro.ext", "LatchStageModel",
     "parameter type of latch_savings_table()"),
    ("repro.ext", "ShortcutLink", "parameter type of RingAugmentedTree"),
    ("repro.fabric", "DatelineVc",
     "base of the exported TorusDatelineVc and RingDatelineVc"),
    ("repro.noc", "DeadlockWatchdog", "return type of attach_watchdog()"),
    ("repro.noc", "FaultInjector", "return type of inject_link_fault()"),
    ("repro.noc", "ProtocolMonitor", "items of attach_monitors()"),
    ("repro.noc", "SinkStage", "part of build_pipeline()'s return"),
    ("repro.noc", "SourceStage", "part of build_pipeline()'s return"),
    ("repro.physical", "PathProfile", "return type of PhysicalModel.path()"),
    ("repro.physical", "PhysicalComparison",
     "items of physical_comparison_rows()"),
    ("repro.system", "DemonstratorResults",
     "return type of DemonstratorSystem.run()"),
    ("repro.system", "StreamingConfig",
     "parameter type of StreamingWorkload"),
    ("repro.system", "StreamingResults",
     "return type of StreamingWorkload.run()"),
    ("repro.system", "StreamingWorkload",
     "waits for the driver-seam item to give it a caller"),
    ("repro.telemetry", "FlitTracer", "return type of attach_tracer()"),
    ("repro.telemetry", "HopRecord", "items of PacketTrace.hops"),
]

#: Names across the sub-package ``__all__``s (``repro`` itself excluded).
SUBPACKAGE_ALL_TOTAL = 160


def _module_file(dotted: str) -> Path:
    path = SRC.joinpath(*dotted.split("."))
    package = path / "__init__.py"
    return package if package.exists() else path.with_suffix(".py")


def _lazy_table(node: ast.stmt) -> dict[str, tuple[str, ...]] | None:
    """The module -> names table of ``... = lazy_exports(__name__, {...})``
    (see ``repro._lazy``), or None for any other statement."""
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "lazy_exports"):
        return None
    return ast.literal_eval(node.value.args[1])


def _exports(init: Path) -> tuple[list[str], dict[str, Path]] | None:
    """A package's ``__all__`` and, per exported name, its source file:
    where the ``__init__`` imports it from, eagerly or through its lazy
    table."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    names, origin = None, {}
    for node in tree.body:
        table = _lazy_table(node)
        if table is not None:
            for module, lazy in table.items():
                for name in lazy:
                    origin[name] = _module_file(module)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                origin[alias.asname or alias.name] = _module_file(node.module)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names = ast.literal_eval(node.value)
    return None if names is None else (names, origin)


def census() -> tuple[list[tuple[str, str]], int]:
    """(sorted orphan pairs, sub-package ``__all__`` total)."""
    files = [path for tree in (SRC, ROOT / "examples", ROOT / "bench")
             for path in tree.rglob("*.py")]
    words = {path: set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
             for path in files}
    orphans, total = [], 0
    for init in sorted(SRC.rglob("__init__.py")):
        exported = _exports(init)
        if exported is None:
            continue
        names, origin = exported
        package = ".".join(init.parent.relative_to(SRC).parts)
        if package != "repro":
            total += len(names)
        for name in names:
            home = origin.get(name, init)
            skip = {init, home, home.parent / "__init__.py"}
            if not any(name in words[path] for path in files
                       if path not in skip):
                orphans.append((package, name))
    return sorted(orphans), total


def test_orphan_list_only_shrinks():
    orphans, _ = census()
    assert all(reason for _, _, reason in ORPHANS)
    pinned = [(package, name) for package, name, _ in ORPHANS]
    assert pinned == sorted(set(pinned))
    new = sorted(set(orphans) - set(pinned))
    assert not new, f"exported names with no caller outside their home: {new}"


def test_subpackage_all_total_is_pinned():
    _, total = census()
    assert total == SUBPACKAGE_ALL_TOTAL


#: Names a change deleted: (regex, the number of the CHANGES.md entry
#: that removed it, why). No source, example or doc may spell them
#: again. ``\b`` keeps ICNoCNetwork, ICNoCCrossing, _fabric_config_from,
#: parallel_saturation_throughput, bisect_saturation_throughput and
#: cmd_sweep( out of the match.
DEAD_NAMES = [
    (r"MeshConfig", 14, "FabricConfig is the one network spec"),
    (r"MeshRouter", 14, "the mesh's private router: FabricRouter serves all"),
    (r"MeshLink", 14, "the mesh's private link: CreditLink serves all"),
    (r"repro\.fabric\.vc", 14, "alias module: VC routers are FabricRouter"),
    (r"VcFabricRouter", 14, "the second router: FabricRouter(n_vcs=...)"),
    (r"VcCreditLink", 14, "the second link: CreditLink(n_vcs=...)"),
    (r"\.on_tick\(", 14, "components fire through on_edge"),
    (r"NetworkConfig", 15, "the third config type: FabricConfig"),
    (r"network_config\(", 15, "the config converter: FabricConfig"),
    (r"_tree_network_config", 15, "the tree's config converter"),
    (r"hasattr\(network", 15, "duck-typed family probes: the Network base"),
    (r"getattr\(network", 15, "duck-typed family probes: the Network base"),
    (r"repro\.mesh", 16, "the mesh package: the shared fabric layer"),
    (r"tree_noc_area", 16, "analytic area: queries on the physical model"),
    (r"mesh_noc_area", 16, "analytic area: queries on the physical model"),
    (r"path_energy_pj", 16, "analytic energy: the physical model's paths"),
    (r"(tree|mesh)_flit_energy_pj", 16, "two-fabric energy functions"),
    (r"average_flit_energy_(tree|mesh)", 16, "two-fabric energy functions"),
    (r"run_energy_report", 16, "RunEnergyReport.from_run"),
    (r"bench_kernel_throughput", 17, "wall-clock ratio harness: bench/"),
    (r"bench_accel_replay", 17, "wall-clock ratio harness: bench/"),
    (r"REGRESSION_FACTOR", 17, "a wall-time gate: exact step counts gate"),
    (r"repro\.analysis\.scorecard", 24, "the scorecard: the experiments"),
    (r"build_scorecard", 24, "the scorecard: the experiments table"),
    (r"render_scorecard", 24, "the scorecard: the experiments table"),
    (r"benchmarks/bench_", 24, "timed figure regenerators: reproduce"),
    (r"pytest-benchmark", 24, "timed figure regenerators: reproduce"),
    (r"benchmark\.pedantic", 24, "timed figure regenerators: reproduce"),
    (r"EXPERIMENTS\.md", 24, "a second record: the experiments table"),
    (r"DESIGN\.md", 24, "a second record: the experiments table"),
    (r"ICNoCConfig", 25, "the repro.core facade: FabricConfig"),
    (r"ICNoC\b", 25, "the repro.core facade: FabricConfig"),
    (r"repro\.core", 25, "the facade package: FabricConfig and timing"),
    (r"validate_timing", 25, "a facade-only timing name"),
    (r"skew_limited_frequency_ghz", 25, "a facade-only timing name"),
    (r"network_max_frequency", 25, "a facade-only timing name"),
    (r"TimingViolationError", 25, "a facade-only error type"),
    (r"TREE_FAMILY", 25, "the CLI's second spec mapping"),
    (r"\b_config_from", 25, "the CLI's second spec mapping"),
    (r"build_fabric", 26, "the one-call build: FabricConfig.build"),
    (r"resolved_allocator", 26, "an echo of FabricConfig.allocator"),
    (r"_add_network_options", 26, "per-group options: FABRIC_KNOBS"),
    (r"_add_fabric_options", 26, "per-group options: FABRIC_KNOBS"),
    (r"_add_backend_option", 26, "per-group options: FABRIC_KNOBS"),
    (r"_add_flow_options", 26, "per-group options: FABRIC_KNOBS"),
    (r"_add_traffic_options", 26, "per-group options: FABRIC_KNOBS"),
    (r"repro\.analysis\.sweeps", 27, "closure-factory sweeps: load points"),
    (r"analysis/sweeps\.py", 27, "closure-factory sweeps: load points"),
    (r"SweepResult", 27, "sweep records: evaluate_load_point results"),
    (r"SweepPoint", 27, "sweep records: evaluate_load_point results"),
    (r"measure_offered_vs_accepted", 27, "evaluate_load_point measures"),
    (r"\bsaturation_throughput", 27, "a second saturation search"),
    (r"\bsweep\(", 27, "the generic sweep: run_sweep over load points"),
    (r"\._value\b", 28, "Signal.value is a plain slot the commit writes"),
    (r"def is_head", 28, "Flit.is_head is derived once, at construction"),
    (r"def is_tail", 28, "Flit.is_tail is derived once, at construction"),
    (r"take_flit", 29, "endpoints read the wires directly"),
    (r"take_credits", 29, "endpoints read the wires directly"),
    (r"settle_credit", 29, "endpoints drive the wires directly"),
    (r"_route_steps", 30, "one batched route walk prices every pair"),
    (r"_DestProbe", 30, "one batched route walk prices every pair"),
    (r"\.set\(0, tick\)", 31, "a credit wire keeps its last return"),
    (r"_route_checked", 32, "SwitchCore reads the router's RouteMemo"),
    (r"_route_fn", 32, "SwitchCore reads the router's RouteMemo"),
    (r"arbiter_policy", 33, "local_priority is a registered allocator"),
    (r"MeshNetwork", 34, "a credit fabric is one CreditFabricNetwork entry"),
    (r"TorusNetwork", 34, "a credit fabric is one CreditFabricNetwork entry"),
    (r"RingNetwork", 34, "a credit fabric is one CreditFabricNetwork entry"),
    (r"make_vc_policy", 34, "the (topology, policy) if-chain: the entry"),
    (r"_grid_shape", 34, "topologies.grid_shape states the rule once"),
    (r"_validate_grid", 34, "topologies.grid_shape states the rule once"),
    (r"credit_sizing", 34, "FIFOs always grow to the credit loop"),
    (r"flit_from_wire", 35, "per-change payload sniffing in telemetry"),
    (r"_validate_tree", 38, "the structure's from_config states the rules"),
    (r"_validate_ctree", 38, "the structure's from_config states the rules"),
    (r"tree_updown_route", 38, "the tree structure's routing()"),
    (r"_route_for\b", 38, "the tree structure's routing()"),
    (r"dest_leaf", 38, "the tree structure's routing()"),
    (r"_watch_wire", 44, "the telemetry tap's one probe per wire"),
    (r"_flit_reader|_vc_flit", 44, "the telemetry tap reads each payload"),
    (r"_on_grant\b", 44, "grants are read off the wires they drive"),
    (r"_on_credit_exhausted|_on_vc_allocated", 44,
     "the telemetry tap's one listener per event"),
    (r"_on_inject\b", 44, "the telemetry tap's one listener per event"),
    (r"_credit_links", 44, "the registry's flat per-signal counters"),
    (r"\._sampled\b", 44, "one membership test of the tracer's sample"),
    (r"route_path", 45, "the tree's walker: the one Network.walk"),
    (r"xy_path", 45, "the mesh's walker: the one Network.walk"),
    (r"\b_path\(", 45, "per-family path walkers: the one Network.walk"),
    (r"\b_walk\(", 45, "the credit fabrics' walker: Network.walk"),
    (r"priced_path", 45, "pair_costs and path read the walk, unmemoised"),
    (r"_hop_count", 45, "hop_count is a closed form on every structure"),
    (r"repro\.noc\.latency_model", 46,
     "the tree-only model: Network.zero_load_latency_ticks"),
    (r"zero_load_latency_cycles", 46, "the ticks array, halved"),
    (r"worst_case_latency_cycles", 46, "the ticks array's max()"),
    (r"mean_latency_cycles_uniform", 46, "the ticks array's mean()"),
    (r"path_link_stage_count", 46, "the walk's link stage ticks"),
    (r"repro\.sim\.probes", 46, "one probe callback, one event subscriber"),
    (r"SignalTrace", 46, "one Signal.attach_probe callback"),
    (r"ThroughputMeter", 46, "one kernel.subscribe('flit') counter"),
    (r"compare_topologies|TopologyComparison", 48,
     "Section 3 is the record's EXP-TM"),
    (r"tree_mesh_(hop|area|energy)_table", 48,
     "Section 3 is the record's EXP-TM"),
    (r"energy_crossover_locality|LocalityMix|locality_mix", 48,
     "EXP-TM's energy rows over physical_model"),
    (r"section3_(mixes|models)|sibling_leaf|mesh_x_neighbour", 48,
     "EXP-TM's energy rows over physical_model"),
    (r"average_hops_uniform", 48, "PhysicalModel.mean_hops, walked"),
    (r"sibling_pairs", 48, "the walk's one-router pairs"),
    (r"\.link_count\(", 48, "len(list(topology.links()))"),
    (r"\.router_ports\(", 48, "PhysicalModel.router_port_counts"),
    (r"link_pitch_mm", 48, "the floorplan's link lengths"),
    (r"scheme_cost_table", 48, "no verb, record or bench read it"),
    (r"evaluate_bursty", 48, "BurstySystem(config).run()"),
    (r"record_delivery", 51, "NetworkStats reads network.delivered"),
    (r"_local_delivered", 51, "one delivery record: network.delivered"),
]

#: Where a dead name may not come back.
DEAD_NAME_SCOPE = ("src", "examples", "docs", "README.md")


def _dead_name_scope():
    for entry in DEAD_NAME_SCOPE:
        path = ROOT / entry
        for file in ([path] if path.is_file() else sorted(path.rglob("*"))):
            if file.is_file() and "__pycache__" not in file.parts:
                yield file


def test_dead_names_stay_dead():
    entries = [entry for _, entry, _ in DEAD_NAMES]
    assert entries == sorted(entries)
    patterns = [(re.compile(pattern), entry, why)
                for pattern, entry, why in DEAD_NAMES]
    hits = []
    for file in _dead_name_scope():
        try:
            text = file.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            for pattern, entry, why in patterns:
                if pattern.search(line):
                    hits.append(f"{file.relative_to(ROOT)}:{lineno}: "
                                f"{pattern.pattern} (deleted, CHANGES.md "
                                f"entry {entry}: {why})")
    assert not hits, "\n".join(hits)
