"""What importing the package costs, and that the lazy exports resolve.

``repro`` and its sub-packages resolve their exports on first access
(``repro._lazy``), and ``repro.cli`` imports each verb-only module inside
its verb, so a run loads only the modules it uses: parsing a command and
replaying an accelerator trace need no numpy, and a credit fabric loads
none of the handshake tree's modules. Each check runs in a fresh
interpreter: this process has imported most of the package already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no verb-independent import may load: the record, the system
#: and accelerator models, the extensions, the tree's debug and fault
#: tools, and the variation Monte Carlo.
VERB_ONLY = ("repro.analysis.experiments", "repro.system", "repro.accel",
             "repro.ext", "repro.noc.debug", "repro.noc.faults",
             "repro.clocking.variation")

#: The handshake tree's modules: its network, routers, link stages, NIs
#: and clock tree, the concentrated tree, and the eq. (1)-(7) checks.
TREE = ("repro.noc.network", "repro.noc.router", "repro.noc.pipeline",
        "repro.noc.ni", "repro.noc.handshake", "repro.clocking.clock_tree",
        "repro.timing.validator", "repro.fabric.ctree")

PACKAGES = ("repro", "repro.accel", "repro.analysis", "repro.clocking",
            "repro.ext", "repro.fabric", "repro.noc", "repro.physical",
            "repro.sim", "repro.system", "repro.tech", "repro.telemetry",
            "repro.timing", "repro.traffic")


def _python(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [path for path in [env.get("PYTHONPATH")] if path])
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    """The ``repro`` modules loaded after ``statement``, and ``numpy``
    if it was loaded too."""
    return _python(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.split('.')[0] == 'repro'\n"
        "                        or name == 'numpy')))")


def _verb_only(loaded: list[str]) -> list[str]:
    return [name for name in loaded for heavy in VERB_ONLY
            if name == heavy or name.startswith(heavy + ".")]


def test_import_repro_loads_no_subpackage():
    loaded = _loaded_after("import repro")
    assert not _verb_only(loaded)
    assert loaded == ["repro", "repro._lazy"]


def test_import_cli_loads_no_verb_only_module():
    assert not _verb_only(_loaded_after("import repro.cli"))


def test_import_cli_loads_no_numpy_sweep_engine_or_tree():
    loaded = _loaded_after("import repro.cli")
    assert "numpy" not in loaded
    assert "repro.analysis.parallel" not in loaded
    assert "repro.physical.descriptor" not in loaded
    assert not [name for name in loaded
                if name.startswith("repro.telemetry")]
    assert not set(TREE) & set(loaded)


def test_import_physical_report_loads_no_numpy():
    """Importing ``repro.physical`` binds ``peak_current`` (named like
    its module) eagerly; that module imports numpy only when called."""
    loaded = _loaded_after("import repro.physical.report")
    assert "repro.physical.peak_current" in loaded
    assert "numpy" not in loaded


def test_replay_verb_runs_without_numpy():
    loaded = _python(
        "import json, sys\n"
        "from repro.cli import main\n"
        "code = main(['replay', '--model', 'llm-decode', '--topology',\n"
        "             'torus', '--ports', '16', '--flow-control', 'vc'])\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))")
    assert loaded == [0, False]


def test_dispatch_mesh_load_point_loads_no_tree_module():
    loaded = _loaded_after(
        "from repro.analysis.parallel import LoadPoint, "
        "evaluate_load_point\n"
        "from repro.fabric.registry import FabricConfig\n"
        "result = evaluate_load_point(LoadPoint(\n"
        "    load=0.1, network=FabricConfig(topology='mesh', ports=16),\n"
        "    cycles=50))\n"
        "assert result['drained'] and 'energy_pj_per_flit' in result")
    assert "repro.physical.descriptor" in loaded
    assert not set(TREE) & set(loaded)


def test_every_export_resolves():
    """Every ``__all__`` name resolves through ``getattr`` (never to a
    same-named submodule), and ``dir()`` lists it before first use."""
    missing = _python(
        "import importlib, json, types\n"
        f"packages = {PACKAGES!r}\n"
        "missing = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    exported = getattr(package, '__all__', [])\n"
        "    listed = dir(package)\n"
        "    missing += [f'{name}.{attr} (dir)' for attr in exported\n"
        "                if attr not in listed]\n"
        "    for attr in exported:\n"
        "        value = getattr(package, attr, None)\n"
        "        if value is None or isinstance(value, types.ModuleType):\n"
        "            missing.append(f'{name}.{attr}')\n"
        "print(json.dumps(missing))")
    assert missing == []


def test_exports_are_the_defining_objects():
    """Also for a function named like its module, imported first."""
    same = _python(
        "import importlib, json\n"
        "import repro, repro.fabric, repro.telemetry\n"
        "module = importlib.import_module('repro.physical.peak_current')\n"
        "from repro.fabric.registry import FabricConfig\n"
        "from repro.telemetry.attribution import congestion_snapshot\n"
        "print(json.dumps([repro.FabricConfig is FabricConfig,\n"
        "                  repro.fabric.FabricConfig is FabricConfig,\n"
        "                  repro.telemetry.congestion_snapshot\n"
        "                  is congestion_snapshot,\n"
        "                  repro.physical.peak_current\n"
        "                  is module.peak_current]))")
    assert same == [True, True, True, True]


def test_unknown_name_raises_attribute_error():
    assert _python(
        "import json, repro\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(json.dumps(str(error)))") == \
        "module 'repro' has no attribute 'no_such_name'"


def test_star_import():
    names = _python(
        "import json\n"
        "from repro import *\n"
        "import repro\n"
        "print(json.dumps([name for name in repro.__all__\n"
        "                  if name not in globals()]))")
    assert names == []


def test_telemetry_binds_its_attach_calls_eagerly():
    """Callers that wrap ``attach_metrics`` / ``attach_tracer`` replace
    the package attribute itself, so both must be bound at import."""
    bound = _python(
        "import json, repro.telemetry\n"
        "print(json.dumps(sorted(name for name in ('attach_metrics',\n"
        "                                          'attach_tracer')\n"
        "                        if name in vars(repro.telemetry))))")
    assert bound == ["attach_metrics", "attach_tracer"]
