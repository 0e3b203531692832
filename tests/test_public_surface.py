"""A caller census of the public surface: exported names nobody calls.

For ``repro`` and every sub-package with an ``__all__``, a name is an
orphan when no file outside its home mentions it as a word. Its home is
the module that defines it (the one the package ``__init__`` imports it
from), that module's package ``__init__``, and the ``__init__`` whose
``__all__`` lists it. Outside is every other ``.py`` file under ``src/``
plus ``examples/`` and ``bench/``; tests are not callers.

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

#: (package, name) pairs with no caller outside their home.
ORPHANS = [
    ("repro", "__version__"),
    ("repro.analysis", "EXPERIMENTS"),
    ("repro.analysis", "ExperimentLog"),
    ("repro.analysis", "PaperComparison"),
    ("repro.analysis", "point_seed"),
    ("repro.clocking", "ClockTreeNode"),
    ("repro.clocking", "DegradationPoint"),
    ("repro.clocking", "PhaseDetectorScheme"),
    ("repro.clocking", "VariationModel"),
    ("repro.clocking", "perturb_channels"),
    ("repro.ext", "LatchStageModel"),
    ("repro.ext", "ShortcutLink"),
    ("repro.fabric", "CLOCK_INTEGRATED"),
    ("repro.fabric", "CLOCK_MESOCHRONOUS"),
    ("repro.fabric", "DatelineVc"),
    ("repro.fabric", "dateline_class"),
    ("repro.noc", "DeadlockWatchdog"),
    ("repro.noc", "FaultInjector"),
    ("repro.noc", "ProtocolMonitor"),
    ("repro.noc", "SinkStage"),
    ("repro.noc", "SourceStage"),
    ("repro.noc", "h_tree_floorplan"),
    ("repro.noc", "quad_tree_floorplan"),
    ("repro.noc", "zero_load_latency_cycles"),
    ("repro.noc", "zero_load_latency_ticks"),
    ("repro.physical", "PathProfile"),
    ("repro.physical", "PhysicalComparison"),
    ("repro.physical", "current_profile"),
    ("repro.sim", "ThroughputMeter"),
    ("repro.system", "DemonstratorResults"),
    ("repro.system", "StreamingConfig"),
    ("repro.system", "StreamingResults"),
    ("repro.system", "StreamingWorkload"),
    ("repro.tech", "ElmoreWireModel"),
    ("repro.telemetry", "FlitTracer"),
    ("repro.telemetry", "HopRecord"),
    ("repro.telemetry", "LatencyHistogram"),
    ("repro.telemetry", "percentile_from_buckets"),
    ("repro.timing", "channel_min_half_period"),
    ("repro.timing", "downstream_slack"),
    ("repro.timing", "pipeline_half_period"),
    ("repro.timing", "upstream_slack"),
    ("repro.traffic", "TraceRecorder"),
    ("repro.traffic", "bit_complement"),
    ("repro.traffic", "bit_reverse"),
]

#: Names across the sub-package ``__all__``s (``repro`` itself excluded).
SUBPACKAGE_ALL_TOTAL = 187


def _module_file(dotted: str) -> Path:
    path = SRC.joinpath(*dotted.split("."))
    package = path / "__init__.py"
    return package if package.exists() else path.with_suffix(".py")


def _exports(init: Path) -> tuple[list[str], dict[str, Path]] | None:
    """A package's ``__all__`` and, per imported name, its source file."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    names, origin = None, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
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
    pinned = [tuple(pair) for pair in ORPHANS]
    assert pinned == sorted(set(pinned))
    new = sorted(set(orphans) - set(pinned))
    assert not new, f"exported names with no caller outside their home: {new}"


def test_subpackage_all_total_is_pinned():
    _, total = census()
    assert total == SUBPACKAGE_ALL_TOTAL
