"""Record the CLI golden transcript, ``tests/golden_cli.json``.

Run from the repo root to (re)generate it:

    PYTHONPATH=src python tests/record_cli_golden.py

The fixture pins what a user sees from ``repro``: for every invocation
in :func:`cases`, the argv and the exact stdout, stderr and exit code of
``repro.cli.main(argv)``; and, under ``"options"``, every subcommand's
option strings, choices and defaults. ``tests/test_cli_golden.py``
replays each entry in process and asserts equality, so a CLI refactor
that moves one printed byte, one exit code or one flag fails tier-1.

The cases cover every verb; each network verb under every ``--topology``
spelling it accepts (and ``replay`` under every registered name); every
fabric flag on each verb that offers it; and every ``error:`` exit 2
the verbs print. Each entry runs in a fresh directory holding the input
files :func:`prepare` writes, under relative names, so no host path
reaches the text. Sizes are the smallest that reach each path (16
ports, ring 8, 60 cycles); a few bare invocations pin the defaults.
Re-record only for an intended change of output, and say which entries
moved and why.
"""

import contextlib
import io
import json
import os
import pathlib
import shlex
import sys
import tempfile

FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")

#: Every ``--topology`` spelling of the network verbs, at its port count.
TOPOLOGIES = {"binary": 16, "quad": 16, "tree": 16, "ctree": 16,
              "mesh": 16, "torus": 16, "ring": 8}

#: The registered fabrics ``replay`` accepts (no tree aliases there).
REPLAY_TOPOLOGIES = ("tree", "ctree", "mesh", "torus", "ring")

#: Fabric flags shared by info/sweep/metrics/trace, in two legal sets.
PIPELINE_FLAGS = ("--topology torus --ports 16 --chip-mm 12 "
                  "--segment-mm 1.0 --pipeline-depth 2 --segment-links "
                  "--backend dispatch")
VC_FLAGS = ("--topology mesh --ports 16 --flow-control vc --vcs 4 "
            "--vc-policy escape --allocator weighted --reserve 3:0.5 "
            "--priority-flow 0:5")

SWEEP = "--loads 0.05 --cycles 60"
POINT = "--load 0.1 --cycles 60"

#: Bad input that once escaped the verbs as a traceback (an uncaught
#: ConfigurationError, a division by zero over ``--cycles 0``, or a
#: TypeError from an accel trace line of the wrong shape); each is now
#: one ``error:`` line and exit 2.
FORMER_TRACEBACKS = (
    "trace --sample-period 0",
    "fig7 --points 0",
    "demo --tiles 0",
    "traffic --load 1.5",
    "traffic --flits 0",
    "sweep --loads 0.05,nan",
    "sweep --cycles 0",
    "metrics --cycles 0",
    "trace --cycles 0",
    "replay --trace not_object.jsonl",
    "replay --trace int_deps.jsonl",
    "replay --trace str_pe.jsonl",
)

#: Report sizes that once made the output lie (a report naming no link
#: after flits were delivered, a negative slice of the traces); each is
#: now one ``error:`` line and exit 2.
BAD_REPORT_SIZES = (
    "metrics --top 0",
    "trace --max-packets -2",
)

#: Die and segment sizes that once ran to a result on a nan or empty
#: die or died in a traceback (a division by a zero die); each is now
#: one ``error:`` line naming the field and its value, and exit 2.
BAD_DIE_SIZES = (
    "traffic --topology mesh --ports 16 --chip-mm nan --cycles 20",
    "traffic --topology mesh --ports 16 --chip-mm 0 --cycles 20",
    "traffic --topology mesh --ports 16 --segment-mm nan --cycles 20",
    "compare --nodes 16 --chip-mm 0",
    "compare --nodes 16 --chip-mm nan",
    "compare --nodes 16 --chip-mm inf",
    "compare --nodes 16 --chip-mm -5",
)

#: Accel traces with a valid header and one event line of the wrong
#: shape, by file name.
CORRUPT_ACCEL_LINES = {
    "not_object.jsonl": "[1, 2, 3]",
    "int_deps.jsonl": '{"id": 0, "kind": "compute", "pe": 0, "cycles": 5, '
                      '"deps": 5}',
    "str_pe.jsonl": '{"id": 0, "kind": "compute", "pe": "x", "cycles": 5}',
}


def cases() -> list[list[str]]:
    """Every recorded invocation, as argv lists."""
    lines = []
    for topology, ports in TOPOLOGIES.items():
        size = f"--topology {topology} --ports {ports}"
        lines += [
            f"info {size}",
            f"validate {size}",
            f"traffic {size} --load 0.05 --cycles 60",
            f"sweep {size} {SWEEP}",
            f"metrics {size} {POINT} --top 2",
            f"trace {size} {POINT} --max-packets 1",
        ]
    for topology in REPLAY_TOPOLOGIES:
        ports = TOPOLOGIES[topology]
        lines.append(f"replay --topology {topology} --ports {ports} "
                     f"--model gemm")
    lines += [
        # info
        "info",
        f"info {PIPELINE_FLAGS}",
        f"info {VC_FLAGS}",
        "info --topology mesh --ports 16 --backend array",
        "info --topology mesh --ports 16 --backend auto",
        "info --topology mesh --ports 16 --flow-control vc "
        "--allocator escape-reentry",
        "info --topology mesh --ports 24",
        "info --topology binary --pipeline-depth 2",
        "info --topology binary --ports 16 --backend array",
        "info --topology mesh --ports 16 --vcs 4",
        "info --topology mesh --ports 16 --flow-control vc --reserve bad",
        "info --topology mesh --ports 16 --flow-control vc "
        "--priority-flow 1-2",
        # validate
        "validate",
        "validate --ports 16 --frequency 3.0",
        "validate --ports 16 --chip-mm 20 --segment-mm 2.0",
        "validate --ports 24",
        # fig7, topologies, corners, demo, reproduce
        "fig7 --points 5 --max-length 2.0",
        "topologies",
        "corners",
        "demo --tiles 4 --cycles 100 --seed 3",
        "reproduce EXP-F7 EXP-RT",
        "reproduce EXP-NOPE",
        # traffic
        "traffic --ports 16 --pattern neighbour --locality 0.5 --flits 2 "
        "--seed 3 --load 0.05 --cycles 60 --chip-mm 12 --segment-mm 1.0",
        "traffic --ports 8 --trace injections.jsonl",
        "traffic --ports 8 --trace wide.jsonl",
        "traffic --ports 8 --trace future.jsonl",
        "traffic --topology mesh --ports 24",
        # sweep
        f"sweep {PIPELINE_FLAGS} {SWEEP}",
        f"sweep {VC_FLAGS} {SWEEP}",
        "sweep --topology mesh --ports 16 --backend array "
        "--loads 0.05,0.1 --cycles 60 --seed 3",
        f"sweep --topology mesh --ports 16 --backend auto {SWEEP}",
        "sweep --topology mesh --ports 16 --traffic hotspot "
        f"--hotspots 0,5 --hotspot-fraction 0.2 {SWEEP}",
        f"sweep --topology mesh --ports 16 --traffic transpose {SWEEP}",
        "sweep --ports 16 --pattern neighbour --locality 0.5 --flits 2 "
        f"{SWEEP}",
        "sweep --ports 16 --loads 0.05,0.1 --cycles 60 --workers 1 "
        "--metrics m.jsonl --checkpoint ck.jsonl",
        "sweep --ports 16 --loads 0.05,0.85 --search bisect --budget 4 "
        "--cycles 60 --placement uniform --metrics m.jsonl",
        "sweep --ports 16 --loads a,b",
        "sweep --ports 16 --loads ,",
        "sweep --ports 16 --hotspots 3 --loads 0.05",
        "sweep --ports 16 --traffic hotspot --hotspots a,b --loads 0.05",
        "sweep --ports 16 --loads 0.05 --placement uniform",
        "sweep --ports 16 --loads 0.2 --search bisect",
        "sweep --ports 16 --loads 0.05,0.5 --search bisect "
        "--checkpoint ck.jsonl",
        "sweep --topology torus --ports 16 --flits 4 --loads 0.05 "
        "--cycles 60",
        "sweep --topology ring --ports 8 --flow-control vc "
        "--vc-policy escape --loads 0.05",
        # metrics
        f"metrics {PIPELINE_FLAGS} {POINT} --top 2",
        f"metrics {VC_FLAGS} {POINT} --top 2",
        f"metrics --topology mesh --ports 16 --backend auto {POINT} --top 2",
        "metrics --topology mesh --ports 16 --traffic hotspot --hotspots 15 "
        "--hotspot-fraction 0.5 --load 0.3 --cycles 60 --top 3 "
        "--metrics m.jsonl",
        "metrics --ports 16 --pattern neighbour --locality 0.5 --flits 2 "
        f"--seed 3 {POINT} --top 2",
        "metrics --ports 16 --hotspots 3",
        # trace
        f"trace {PIPELINE_FLAGS} {POINT} --max-packets 1",
        f"trace {VC_FLAGS} {POINT} --max-packets 1",
        f"trace --topology mesh --ports 16 --backend auto {POINT} "
        "--max-packets 1",
        "trace --topology mesh --ports 16 --traffic hotspot --hotspots 15 "
        "--hotspot-fraction 0.5 --load 0.3 --cycles 60 --sample-period 4 "
        "--max-packets 2",
        "trace --ports 16 --pattern neighbour --locality 0.5 --flits 2 "
        f"--seed 3 {POINT} --max-packets 1",
        "trace --ports 16 --traffic hotspot --hotspots 99",
        # replay
        "replay --model gemm",
        "replay --topology mesh --ports 16 --flow-control vc --vcs 4 "
        "--vc-policy escape --allocator weighted --reserve 3:0.5 "
        "--priority-flow 0:5 --buffer-depth 6 --chip-mm 12 --naive "
        "--model gemm",
        "replay --topology mesh --ports 16 --model llm-decode --pes 2 "
        "--mems 1 --seed 1 --save-trace saved.jsonl --json "
        "--metrics replay.json",
        "replay --topology mesh --ports 16 --trace decode.jsonl",
        "replay --topology mesh --ports 16 --model gemm "
        "--sweep-placements 2 --workers 1",
        "replay --topology mesh --ports 16 --model gemm --max-cycles 50",
        "replay --topology mesh --vcs 4",
        "replay --topology mesh --ports 4 --pes 4 --mems 2",
        "replay --topology mesh --ports 4 --save-trace saved.jsonl",
        "replay --trace future_accel.jsonl",
        # compare
        "compare --workload none",
        "compare --nodes 16 --buffer-depth 6 --vcs 4 --chip-mm 12 "
        "--pipeline-depth 2 --segment-mm 1.0 --backend auto "
        "--concentration 2 --workload none",
        "compare --nodes 16",
        "compare --nodes 24",
        *FORMER_TRACEBACKS,
        *BAD_REPORT_SIZES,
        *BAD_DIE_SIZES,
    ]
    return [shlex.split(line) for line in lines]


def prepare(directory) -> None:
    """Write the input files the cases name into ``directory``."""
    import numpy as np

    from repro.accel import generate_trace, save_accel_trace
    from repro.traffic.patterns import UniformRandom
    from repro.traffic.trace import TraceRecorder

    directory = pathlib.Path(directory)
    for name, ports in (("injections.jsonl", 8), ("wide.jsonl", 64)):
        recorder = TraceRecorder()
        recorder.extend(UniformRandom(ports=ports, load=0.2).generate(
            20, np.random.default_rng(0)))
        recorder.save(directory / name)
    save_accel_trace(generate_trace("gemm", pes=2, mems=1, seed=1),
                     directory / "decode.jsonl")
    for name, schema, version in (
            ("future.jsonl", "repro.traffic.trace", 7),
            ("future_accel.jsonl", "repro.accel.trace", 99)):
        (directory / name).write_text(
            json.dumps({"schema": schema, "version": version}) + "\n")
    header = json.dumps({"schema": "repro.accel.trace", "version": 1,
                         "model": "corrupt", "pes": 2, "mems": 1})
    for name, line in CORRUPT_ACCEL_LINES.items():
        (directory / name).write_text(header + "\n" + line + "\n")


def run(argv: list[str]) -> dict:
    """One invocation of the CLI, in process, as a transcript entry."""
    from repro.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": list(argv), "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "exit": code}


def parser_options() -> dict[str, list]:
    """Every subcommand's ``[option strings, choices, default]`` rows."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {}
    for verb, subparser in subparsers.choices.items():
        options[verb] = [
            [list(action.option_strings) or [action.dest],
             None if action.choices is None else list(action.choices),
             action.default]
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
    return options


def record() -> dict:
    transcript = []
    cwd = os.getcwd()
    for argv in cases():
        with tempfile.TemporaryDirectory() as directory:
            prepare(directory)
            os.chdir(directory)
            try:
                transcript.append(run(argv))
            finally:
                os.chdir(cwd)
        print(" ".join(argv), "->", transcript[-1]["exit"], file=sys.stderr)
    return {"options": parser_options(), "transcript": transcript}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
