"""Print the repository's tracked numbers, one ``label: value`` per line.

    python tools/tracked_numbers.py

The numbers: source lines (the total ``find src -name '*.py' | xargs
wc -l`` prints, and the largest modules), the exported-name counts
(``repro.__all__`` and the sub-packages' ``__all__`` total), the field
counts of ``TopologyEntry`` and ``FabricConfig``, and how many ``repro``
modules ``import repro``, ``import repro.cli``, a VC-torus ``repro
replay`` and one 16-port mesh ``evaluate_load_point`` load, and whether
they load numpy. The load point also prints the source lines of the
``repro`` modules it imported, ``sys.flags.dont_write_bytecode`` (with
the flag set no ``.pyc`` is written, so every fresh interpreter compiles
those lines again) and the Python and numpy versions: the array
engine's per-edge cost is mostly numpy call overhead, which moves with
both. Each import probe runs in a fresh interpreter, so one probe's
imports never count toward the next.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What each import probe runs before the count, by label.
PROBES = {
    "import repro": "import repro",
    "import repro.cli": "import repro.cli",
    "repro replay on a 16-port VC torus": (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['replay', '--model', 'llm-decode', '--topology',\n"
        "                 'torus', '--ports', '16', '--flow-control', 'vc'])\n"
        "print('exit', code, end=', ')\n"
    ),
    "one 16-port mesh evaluate_load_point": (
        "import sys\n"
        "from repro.analysis.parallel import LoadPoint, evaluate_load_point\n"
        "from repro.fabric.registry import FabricConfig\n"
        "evaluate_load_point(LoadPoint(\n"
        "    load=0.1, network=FabricConfig(topology='mesh', ports=16)))\n"
        "lines = sum(open(m.__file__, 'rb').read().count(b'\\n')\n"
        "            for name, m in list(sys.modules.items())\n"
        "            if name.split('.')[0] == 'repro')\n"
        "import platform\n"
        "print(lines, 'source lines, dont_write_bytecode:',\n"
        "      sys.flags.dont_write_bytecode, end=', ')\n"
        "print('python', platform.python_version(), end=', ')\n"
        "numpy = sys.modules.get('numpy')\n"
        "print('numpy', numpy.__version__ if numpy else '-', end=', ')\n"
    ),
}

#: Appended to every probe: the repro module count and numpy's presence.
COUNT = ("\nimport sys\n"
         "print(sum(m.split('.')[0] == 'repro' for m in sys.modules),\n"
         "      'repro modules, numpy loaded:', 'numpy' in sys.modules)\n")


def source_lines() -> dict[Path, int]:
    """Lines per source file, counted as ``wc -l`` counts them."""
    return {path: path.read_bytes().count(b"\n")
            for path in sorted(SRC.rglob("*.py"))}


def subpackage_exports() -> int:
    """Names across the sub-packages' ``__all__`` lists."""
    total = 0
    for init in SRC.joinpath("repro").rglob("*/__init__.py"):
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in node.targets):
                total += len(ast.literal_eval(node.value))
    return total


def probe(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code + COUNT], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip().splitlines()[-1]


def main() -> None:
    sys.path.insert(0, str(SRC))
    import repro
    from repro.fabric.registry import FabricConfig, TopologyEntry

    lines = source_lines()
    largest = sorted(lines.items(), key=lambda item: -item[1])[:7]
    print(f"src lines: {sum(lines.values())}")
    print("largest modules: " + ", ".join(
        f"{path.relative_to(SRC / 'repro')} {count}"
        for path, count in largest))
    print(f"names in repro.__all__: {len(repro.__all__)}")
    print(f"names in sub-package __all__s: {subpackage_exports()}")
    print(f"fields in TopologyEntry: {len(fields(TopologyEntry))}")
    print(f"fields in FabricConfig: {len(fields(FabricConfig))}")
    for label, code in PROBES.items():
        print(f"{label}: {probe(code)}")


if __name__ == "__main__":
    main()
