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
SUBPACKAGE_ALL_TOTAL = 161


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
