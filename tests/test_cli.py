"""The command-line interface."""

import json

import pytest

from repro.cli import _fabric_config_from, build_parser, main
from repro.fabric.topologies import MeshTopology
from tests import record_cli_golden


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


@pytest.mark.parametrize("topology, arity",
                         (("tree", 2), ("binary", 2), ("quad", 4)))
def test_tree_spellings_name_one_tree_spec(topology, arity):
    """Every tree spelling maps to the registry's tree with its arity,
    and the port count carries through unchanged."""
    args = build_parser().parse_args(["info", "--topology", topology,
                                      "--ports", "16"])
    config = _fabric_config_from(args)
    assert config.topology == "tree"
    assert config.arity == arity
    assert config.ports == 16
    assert config.build().topology.leaves == 16


class TestInfo:
    def test_prints_description(self, capsys):
        assert main(["info", "--ports", "16"]) == 0
        out = capsys.readouterr().out
        assert "IC-NoC" in out
        assert "16 ports" in out

    @pytest.mark.parametrize("topology, labels", [
        ("binary", ["clock distribution", "area", "skew-limited f_max",
                    "clock power (un-gated)"]),
        ("ctree", ["clock distribution", "area", "skew-limited f_max",
                   "clock power (un-gated)"]),
        ("mesh", ["clock distribution", "pipeline", "allocation", "area",
                  "clock power (un-gated)"]),
    ])
    def test_one_block_for_every_fabric(self, capsys, topology, labels):
        """Every fabric prints the same block under its description; the
        handshake trees add their skew-limited f_max (eqs. 1-7) between
        the area and clock power lines."""
        assert main(["info", "--topology", topology, "--ports", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == labels

    def test_quad_topology(self, capsys):
        assert main(["info", "--ports", "16", "--topology", "quad"]) == 0
        assert "5x5" in capsys.readouterr().out


class TestValidate:
    def test_passes_at_default_frequency(self, capsys):
        assert main(["validate", "--ports", "16"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_fails_at_high_frequency(self, capsys):
        assert main(["validate", "--ports", "16",
                     "--frequency", "3.0"]) == 1
        assert "violations" in capsys.readouterr().out


class TestFig7:
    def test_renders_plot(self, capsys):
        assert main(["fig7", "--points", "20"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "*" in out


class TestTraffic:
    def test_uniform_run(self, capsys):
        code = main(["traffic", "--ports", "16", "--load", "0.05",
                     "--cycles", "100"])
        assert code == 0
        assert "packets" in capsys.readouterr().out

    def test_neighbour_run(self, capsys):
        code = main(["traffic", "--ports", "16", "--pattern", "neighbour",
                     "--load", "0.05", "--cycles", "100"])
        assert code == 0

    def test_any_registered_fabric(self, capsys):
        code = main(["traffic", "--topology", "mesh", "--ports", "16",
                     "--load", "0.05", "--cycles", "100"])
        assert code == 0  # every injected packet delivered
        assert "packets" in capsys.readouterr().out


class TestSweep:
    def test_serial_sweep(self, capsys):
        code = main(["sweep", "--ports", "16", "--loads", "0.05,0.10",
                     "--cycles", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Offered-load sweep" in out
        assert "0.05" in out

    def test_parallel_sweep_matches_serial(self, capsys):
        args = ["sweep", "--ports", "16", "--loads", "0.05,0.10",
                "--cycles", "80", "--seed", "3"]
        assert main(args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Identical numbers, worker count aside.
        assert serial_out.replace("workers=1", "") == \
            parallel_out.replace("workers=2", "")

    def test_neighbour_pattern(self, capsys):
        code = main(["sweep", "--ports", "16", "--pattern", "neighbour",
                     "--loads", "0.05", "--cycles", "80"])
        assert code == 0

    def test_bisect_search(self, capsys):
        code = main(["sweep", "--ports", "16", "--loads", "0.05,0.85",
                     "--search", "bisect", "--budget", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Saturation bisection" in out
        assert "saturation throughput:" in out

    def test_bisect_parallel_matches_serial(self, capsys):
        args = ["sweep", "--ports", "16", "--loads", "0.05,0.85",
                "--search", "bisect", "--budget", "4", "--seed", "3"]
        assert main(args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Candidate loads and per-point seeds are worker-independent, so
        # every measured row and the knee agree exactly.
        assert serial_out.replace("workers=1", "") == \
            parallel_out.replace("workers=2", "")

    def test_bisect_needs_a_bracket(self, capsys):
        assert main(["sweep", "--ports", "16", "--loads", "0.2",
                     "--search", "bisect"]) == 2

    def test_corrupt_checkpoint_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("{}\n")
        code = main(["sweep", "--topology", "mesh", "--ports", "16",
                     "--loads", "0.05", "--cycles", "40",
                     "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:1: not a checkpoint record " \
            "(a JSON object with 'spec' and 'result'); fix or delete " \
            "the line to resume\n"


class TestDemo:
    def test_small_demo(self, capsys):
        assert main(["demo", "--tiles", "4", "--cycles", "150"]) == 0
        assert "transactions" in capsys.readouterr().out


class TestCorners:
    def test_table(self, capsys):
        assert main(["corners"]) == 0
        out = capsys.readouterr().out
        for corner in ("ff", "tt", "ss", "worst"):
            assert corner in out


class TestTopologies:
    def test_lists_registry_with_clocking(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("tree", "ctree", "mesh", "torus", "ring"):
            assert name in out
        assert "integrated" in out
        assert "mesochronous" in out


class TestFabricSweep:
    def test_torus_sweep(self, capsys):
        code = main(["sweep", "--topology", "torus", "--ports", "16",
                     "--loads", "0.05", "--cycles", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "torus" in out

    def test_ring_sweep(self, capsys):
        code = main(["sweep", "--topology", "ring", "--ports", "8",
                     "--loads", "0.05", "--cycles", "60"])
        assert code == 0

    def test_ctree_sweep(self, capsys):
        code = main(["sweep", "--topology", "ctree", "--ports", "16",
                     "--loads", "0.05", "--cycles", "60"])
        assert code == 0

    def test_mesh_sweep_parallel_matches_serial(self, capsys):
        args = ["sweep", "--topology", "mesh", "--ports", "16",
                "--loads", "0.05,0.10", "--cycles", "60", "--seed", "3"]
        assert main(args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out.replace("workers=1", "") == \
            parallel_out.replace("workers=2", "")

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--topology", "moebius", "--loads", "0.05"])

    def test_bisect_reports_latency_at_saturation(self, capsys):
        code = main(["sweep", "--ports", "16", "--loads", "0.05,0.85",
                     "--search", "bisect", "--budget", "4",
                     "--cycles", "120"])
        assert code == 0
        assert "latency at saturation:" in capsys.readouterr().out


class TestSweepTopologyChoices:
    def test_choices_track_the_registry(self):
        """A freshly registered fabric is sweepable with no CLI edit."""
        from repro.cli import sweep_topologies
        from repro.fabric import registry

        entry = registry.TopologyEntry(
            name="_cli_test_fabric", description="test",
            clock_distribution=(registry.CLOCK_MESOCHRONOUS,),
            structure=MeshTopology, builder=lambda config, kernel: None,
        )
        registry.register_topology(entry)
        try:
            assert "_cli_test_fabric" in sweep_topologies()
            parser = build_parser()
            args = parser.parse_args(
                ["sweep", "--topology", "_cli_test_fabric"])
            assert args.topology == "_cli_test_fabric"
        finally:
            del registry._REGISTRY["_cli_test_fabric"]
        assert "_cli_test_fabric" not in sweep_topologies()


class TestSweepFlowControl:
    def test_vc_sweep_runs(self, capsys):
        code = main(["sweep", "--topology", "torus", "--ports", "16",
                     "--flow-control", "vc", "--loads", "0.05",
                     "--cycles", "60"])
        assert code == 0
        assert "Offered-load sweep" in capsys.readouterr().out

    def test_vc_policy_and_vcs_flags(self, capsys):
        code = main(["sweep", "--topology", "torus", "--ports", "16",
                     "--flow-control", "vc", "--vc-policy", "escape",
                     "--vcs", "4", "--loads", "0.05", "--cycles", "60"])
        assert code == 0

    def test_vc_on_tree_alias_is_a_clean_error(self, capsys):
        code = main(["sweep", "--topology", "binary", "--ports", "16",
                     "--flow-control", "vc", "--loads", "0.05"])
        assert code == 2
        assert "flow control" in capsys.readouterr().err

    def test_vc_on_registered_tree_is_a_clean_error(self, capsys):
        code = main(["sweep", "--topology", "tree", "--ports", "16",
                     "--flow-control", "vc", "--loads", "0.05"])
        assert code == 2
        assert "flow control" in capsys.readouterr().err

    def test_bad_vc_policy_is_a_clean_error(self, capsys):
        code = main(["sweep", "--topology", "ring", "--ports", "8",
                     "--flow-control", "vc", "--vc-policy", "escape",
                     "--loads", "0.05"])
        assert code == 2

    def test_vcs_without_vc_flow_control_is_a_clean_error(self, capsys):
        # Never silently ignore a VC knob on a build that cannot honour
        # it — wormhole registry fabrics and the tree aliases alike.
        for topology in ("mesh", "binary"):
            code = main(["sweep", "--topology", topology, "--ports", "16",
                         "--vcs", "8", "--loads", "0.05"])
            assert code == 2
            assert "--flow-control vc" in capsys.readouterr().err


class TestSweepTraffic:
    def test_traffic_flag_transpose(self, capsys):
        code = main(["sweep", "--topology", "mesh", "--ports", "16",
                     "--traffic", "transpose", "--loads", "0.05",
                     "--cycles", "60"])
        assert code == 0

    def test_pattern_spelling_still_works(self, capsys):
        code = main(["sweep", "--ports", "16", "--pattern", "neighbour",
                     "--loads", "0.05", "--cycles", "60"])
        assert code == 0

    def test_hotspot_knobs(self, capsys):
        code = main(["sweep", "--topology", "mesh", "--ports", "16",
                     "--traffic", "hotspot", "--hotspots", "0,5",
                     "--hotspot-fraction", "0.2", "--loads", "0.05",
                     "--cycles", "60"])
        assert code == 0

    def test_bad_hotspots_rejected(self, capsys):
        code = main(["sweep", "--ports", "16", "--traffic", "hotspot",
                     "--hotspots", "a,b", "--loads", "0.05"])
        assert code == 2

    def test_hotspot_knobs_without_hotspot_traffic_rejected(self, capsys):
        code = main(["sweep", "--ports", "16", "--traffic", "uniform",
                     "--hotspots", "3,5", "--loads", "0.05"])
        assert code == 2
        assert "--traffic hotspot" in capsys.readouterr().err
        code = main(["sweep", "--ports", "16",
                     "--hotspot-fraction", "0.9", "--loads", "0.05"])
        assert code == 2

    def test_empty_hotspots_rejected(self, capsys):
        code = main(["sweep", "--ports", "16", "--traffic", "hotspot",
                     "--hotspots", "", "--loads", "0.05"])
        assert code == 2
        assert "hotspot" in capsys.readouterr().err

    def test_out_of_range_hotspot_is_a_clean_error(self, capsys):
        code = main(["sweep", "--ports", "16", "--traffic", "hotspot",
                     "--hotspots", "99", "--loads", "0.05"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestSweepPlacement:
    def test_uniform_placement_still_available(self, capsys):
        code = main(["sweep", "--ports", "16", "--loads", "0.05,0.85",
                     "--search", "bisect", "--budget", "4",
                     "--placement", "uniform"])
        assert code == 0
        assert "Saturation bisection" in capsys.readouterr().out

    def test_placement_without_bisect_rejected(self, capsys):
        code = main(["sweep", "--ports", "16", "--loads", "0.05",
                     "--placement", "uniform"])
        assert code == 2
        assert "--search bisect" in capsys.readouterr().err


class TestTopologiesFlowControl:
    def test_table_has_flow_control_column(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "flow control" in out
        assert "wormhole+vc" in out
        assert "dateline" in out


class TestCompare:
    @pytest.fixture(scope="class")
    def out(self):
        """``compare --nodes 16`` (eight replays) for the four tests that
        read its table: its golden-transcript entry, which
        tests/test_cli_golden.py holds the live run to."""
        golden = json.loads(record_cli_golden.FIXTURE.read_text())
        entry = next(entry for entry in golden["transcript"]
                     if entry["argv"] == ["compare", "--nodes", "16"])
        assert entry["exit"] == 0
        return entry["stdout"]

    def test_every_registered_topology_has_rows(self, out):
        from repro.fabric.registry import topology_names

        assert "Physical comparison" in out
        # Row-leading tokens, not substrings — "tree" inside a "ctree"
        # row must not mask a missing tree row (same rule as the CI gate).
        rows = {line.split("|")[0].strip()
                for line in out.splitlines() if "|" in line}
        for name in topology_names():
            assert name in rows
        # Both flow controls appear.
        assert "wormhole" in out
        assert "vc" in out
        assert "integrated" in out
        assert "mesochronous" in out

    def test_vc_rows_pay_n_vcs_times_the_buffers(self, out):
        mesh_rows = [line for line in out.splitlines()
                     if line.startswith("mesh")]
        buffers = [int(line.split("|")[4]) for line in mesh_rows]
        assert len(buffers) == 2
        assert buffers[1] == 2 * buffers[0]

    def test_unbuildable_node_count_is_a_clean_error(self, capsys):
        assert main(["compare", "--nodes", "24"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_frequency_column_present(self, out):
        header = next(line for line in out.splitlines()
                      if line.lstrip().startswith("topology"))
        assert "f GHz" in header

    def test_segmentation_payoff_visible_in_frequency_column(self, capsys):
        """The PR acceptance bar, through the CLI: segmenting the
        64-endpoint torus on a 20 mm die lifts its f GHz cell >= 4x."""
        def torus_ghz(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            row = next(line for line in out.splitlines()
                       if line.startswith("torus") and "wormhole" in line)
            return float(row.split("|")[-1])

        base = torus_ghz(["compare", "--nodes", "64", "--chip-mm", "20",
                          "--workload", "none"])
        segmented = torus_ghz(["compare", "--nodes", "64", "--chip-mm",
                               "20", "--segment-mm", "1.25",
                               "--workload", "none"])
        assert segmented >= 4.0 * base, (base, segmented)

    def test_pipeline_knobs_reach_the_table_title(self, capsys):
        assert main(["compare", "--nodes", "16", "--pipeline-depth", "2",
                     "--segment-mm", "1.25", "--workload", "none"]) == 0
        out = capsys.readouterr().out
        assert "2-stage routers" in out
        assert "1.25 mm segments" in out

    def test_workload_makespan_column_on_every_row(self, out):
        header = next(line for line in out.splitlines()
                      if line.lstrip().startswith("topology"))
        assert "makespan cy" in header
        assert "workload llm-decode" in out
        rows = [line for line in out.splitlines()
                if "|" in line and not line.lstrip().startswith("topology")
                and not set(line.strip()) <= {"-", "+", " "}]
        assert len(rows) >= 8  # every registered topology x flow control
        for row in rows:
            assert int(row.split("|")[-1]) > 0, row

    def test_workload_none_keeps_the_table_structural(self, capsys):
        assert main(["compare", "--nodes", "16", "--workload",
                     "none"]) == 0
        out = capsys.readouterr().out
        assert "makespan" not in out


class TestReplay:
    def test_canned_model_prints_makespan_and_utilisation(self, capsys):
        assert main(["replay", "--topology", "torus", "--flow-control",
                     "vc", "--model", "llm-decode"]) == 0
        out = capsys.readouterr().out
        assert "makespan: " in out
        assert "noc stall cycles" in out
        assert "utilisation" in out

    def test_saved_trace_replays_identically(self, capsys, tmp_path):
        path = tmp_path / "llm.jsonl"
        assert main(["replay", "--topology", "mesh", "--model",
                     "llm-decode", "--save-trace", str(path)]) == 0
        generated = capsys.readouterr().out
        assert main(["replay", "--topology", "mesh", "--trace",
                     str(path)]) == 0
        replayed = capsys.readouterr().out
        pick = lambda text: [line for line in text.splitlines()
                             if line.startswith(("makespan", "noc", "  pe"))]
        assert pick(generated) == pick(replayed)

    def test_naive_kernel_bit_identical(self, capsys):
        argv = ["replay", "--topology", "torus", "--model",
                "param-server", "--json"]
        assert main(argv) == 0
        fast = capsys.readouterr().out
        assert main(argv + ["--naive"]) == 0
        naive = capsys.readouterr().out
        assert fast.splitlines()[-1] == naive.splitlines()[-1]

    def test_placement_sweep_ranks_offsets(self, capsys):
        assert main(["replay", "--topology", "mesh",
                     "--sweep-placements", "2"]) == 0
        out = capsys.readouterr().out
        assert "Placement sweep" in out
        assert "best offset" in out

    def test_vc_knobs_without_vc_flow_rejected(self, capsys):
        assert main(["replay", "--topology", "mesh", "--vcs", "4"]) == 2
        assert "--flow-control vc" in capsys.readouterr().err

    def test_too_small_fabric_is_a_clean_error(self, capsys):
        assert main(["replay", "--topology", "mesh", "--ports", "4",
                     "--pes", "4", "--mems", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_version_mismatch_is_a_clean_error(self, capsys, tmp_path):
        import json
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema": "repro.accel.trace",
                                    "version": 99}) + "\n")
        assert main(["replay", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert "99" in err


class TestTrafficTraceReplay:
    def make_trace(self, path, ports=8):
        import numpy as np
        from repro.traffic.patterns import UniformRandom
        from repro.traffic.trace import TraceRecorder

        recorder = TraceRecorder()
        recorder.extend(UniformRandom(ports=ports, load=0.2).generate(
            20, np.random.default_rng(0)))
        recorder.save(path)
        return recorder.injections

    def test_recorded_trace_replays(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        injections = self.make_trace(path)
        assert main(["traffic", "--ports", "8", "--trace",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert f"replayed {len(injections)} injections" in out
        assert f"{len(injections)}/{len(injections)} packets" in out

    def test_trace_wider_than_network_rejected(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.make_trace(path, ports=64)
        assert main(["traffic", "--ports", "8", "--trace",
                     str(path)]) == 2
        assert "8-port" in capsys.readouterr().err

    def test_version_mismatch_is_a_clean_error(self, capsys, tmp_path):
        import json
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema": "repro.traffic.trace",
                                    "version": 7}) + "\n")
        assert main(["traffic", "--ports", "8", "--trace",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert "7" in err and "future.jsonl" in err


class TestInfoRegistryFabrics:
    def test_torus_info_prints_physical_view(self, capsys):
        assert main(["info", "--topology", "torus", "--ports", "16"]) == 0
        out = capsys.readouterr().out
        assert "torus" in out
        assert "mesochronous" in out
        assert "area:" in out
        assert "clock power" in out

    def test_info_prints_pipeline_line(self, capsys):
        assert main(["info", "--topology", "torus", "--ports", "16",
                     "--chip-mm", "20", "--pipeline-depth", "2",
                     "--segment-links"]) == 0
        out = capsys.readouterr().out
        assert "pipeline: router depth 2" in out
        assert "link stage registers" in out
        assert "critical path" in out

    def test_info_tree_rejects_pipeline_knobs(self, capsys):
        assert main(["info", "--topology", "binary",
                     "--pipeline-depth", "2"]) == 2
        assert "credit fabrics" in capsys.readouterr().err

    def test_sweep_tree_rejects_pipeline_knobs(self, capsys):
        assert main(["sweep", "--topology", "binary", "--ports", "16",
                     "--loads", "0.05", "--segment-links"]) == 2
        assert "credit fabrics" in capsys.readouterr().err

    def test_ctree_info(self, capsys):
        assert main(["info", "--topology", "ctree", "--ports", "16"]) == 0
        out = capsys.readouterr().out
        assert "concentration" in out
        assert "integrated" in out

    def test_registered_tree_name_describes_the_tree(self, capsys):
        assert main(["info", "--topology", "tree", "--ports", "16"]) == 0
        assert "IC-NoC" in capsys.readouterr().out

    def test_bad_port_count_is_a_clean_error(self, capsys):
        # 24 is not square: the registry refuses, the CLI reports.
        assert main(["info", "--topology", "mesh", "--ports", "24"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flow", ([], ["--flow-control", "vc"]))
    def test_mesh_header_is_the_same_under_both_flow_controls(self, capsys,
                                                              flow):
        assert main(["info", "--topology", "mesh", "--ports", "16"]
                    + flow) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("CreditFabricNetwork: 4x4 mesh, ")


#: One short run per verb that names a network through the shared spec.
SPEC_VERBS = {
    "info": [],
    "sweep": ["--loads", "0.05", "--cycles", "40"],
    "metrics": ["--load", "0.05", "--cycles", "40"],
    "trace": ["--load", "0.05", "--cycles", "40"],
}


@pytest.mark.parametrize("topology", ("tree", "binary", "quad"))
@pytest.mark.parametrize("verb", SPEC_VERBS)
class TestTreeBackendHasOneAnswer:
    """The registry's answer, on every verb and every tree spelling."""

    def test_auto_falls_back_to_dispatch(self, capsys, verb, topology):
        assert main([verb, "--topology", topology, "--ports", "16",
                     "--backend", "auto"] + SPEC_VERBS[verb]) == 0

    def test_array_is_refused_naming_the_handshake_tree(self, capsys, verb,
                                                        topology):
        assert main([verb, "--topology", topology, "--ports", "16",
                     "--backend", "array"] + SPEC_VERBS[verb]) == 2
        err = capsys.readouterr().err
        assert "backend='array'" in err and "handshake" in err


@pytest.mark.parametrize("argv", record_cli_golden.FORMER_TRACEBACKS
                         + record_cli_golden.BAD_REPORT_SIZES
                         + record_cli_golden.BAD_DIE_SIZES)
def test_bad_input_is_one_error_line_and_exit_2(capsys, argv, tmp_path,
                                                monkeypatch):
    """main() is the one error boundary: bad input anywhere in a verb is
    a single ``error:`` line on stderr, never a traceback."""
    monkeypatch.chdir(tmp_path)
    record_cli_golden.prepare(tmp_path)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")
    assert "Traceback" not in captured.err + captured.out


def test_traffic_without_cycles_still_reports_an_empty_run(capsys):
    # traffic generates its own schedule (no LoadPoint): zero cycles is
    # an empty, fully delivered run.
    assert main(["traffic", "--ports", "16", "--cycles", "0"]) == 0
    assert capsys.readouterr().out.startswith("0/0 packets")


class TestValidateRegistryFabrics:
    def test_credit_fabric_is_a_clean_error(self, capsys):
        assert main(["validate", "--topology", "ring",
                     "--ports", "16"]) == 2
        err = capsys.readouterr().err
        assert "handshake tree only" in err
        assert "binary, quad, tree" in err

    def test_tree_alias_still_validates(self, capsys):
        assert main(["validate", "--topology", "tree",
                     "--ports", "16"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_concentrated_tree_validates(self, capsys):
        """The registry, not a CLI tuple, names the supported set: the
        ctree is tree-legal and carries channel specs like the tree."""
        assert main(["validate", "--topology", "ctree",
                     "--ports", "16"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_bad_port_count_is_a_clean_error(self, capsys):
        assert main(["validate", "--ports", "24"]) == 2
        assert "power of 2" in capsys.readouterr().err


class TestSweepEnergyColumn:
    def test_grid_sweep_reports_energy(self, capsys):
        code = main(["sweep", "--topology", "torus", "--ports", "16",
                     "--loads", "0.05", "--cycles", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pJ/flit" in out
        # A real per-run number, not the no-descriptor placeholder.
        assert "| -" not in out

    def test_bisect_reports_energy(self, capsys):
        code = main(["sweep", "--ports", "16", "--loads", "0.05,0.85",
                     "--search", "bisect", "--budget", "4",
                     "--cycles", "100"])
        assert code == 0
        assert "pJ/flit" in capsys.readouterr().out


class TestMetricsCommand:
    def test_hotspot_attribution_names_adjacent_links(self, capsys):
        """The acceptance bar: a corner-hotspot run's top-k links are
        the hotspot-adjacent ones."""
        code = main(["metrics", "--topology", "mesh", "--ports", "16",
                     "--traffic", "hotspot", "--hotspots", "15",
                     "--load", "0.3", "--cycles", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top 5 links by utilization" in out
        top_block = out.split("links by utilization:")[1] \
                       .split("routers by congestion")[0]
        assert "m15.ej" in top_block
        assert "m11>m15" in top_block or "m14>m15" in top_block

    def test_report_has_latency_percentiles(self, capsys):
        code = main(["metrics", "--topology", "ring", "--ports", "10",
                     "--load", "0.1", "--cycles", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p50=" in out
        assert "p99=" in out
        assert "offered" in out

    def test_jsonl_export(self, capsys, tmp_path):
        import json as _json
        path = tmp_path / "metrics.jsonl"
        code = main(["metrics", "--topology", "mesh", "--ports", "16",
                     "--load", "0.1", "--cycles", "60",
                     "--metrics", str(path)])
        assert code == 0
        records = [_json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["load"] == 0.1
        assert records[0]["telemetry"]["packets_delivered"] > 0
        assert "metrics written to" in capsys.readouterr().out

    def test_tree_topology_supported(self, capsys):
        code = main(["metrics", "--topology", "tree", "--ports", "16",
                     "--load", "0.1", "--cycles", "60"])
        assert code == 0
        assert "links by utilization" in capsys.readouterr().out

    def test_bad_knob_is_a_clean_error(self, capsys):
        code = main(["metrics", "--ports", "16", "--hotspots", "3"])
        assert code == 2
        assert "--traffic hotspot" in capsys.readouterr().err


class TestTraceCommand:
    def test_prints_hop_decomposition(self, capsys):
        code = main(["trace", "--topology", "torus", "--ports", "16",
                     "--load", "0.2", "--cycles", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 in 16 packets sampled" in out
        assert "grant t=" in out
        assert "queued" in out
        assert "transit" in out

    def test_max_packets_caps_output(self, capsys):
        code = main(["trace", "--topology", "mesh", "--ports", "16",
                     "--load", "0.3", "--cycles", "200",
                     "--sample-period", "4", "--max-packets", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("packet ") == 2
        assert "more sampled packets" in out

    def test_vc_flow_control(self, capsys):
        code = main(["trace", "--topology", "torus", "--ports", "16",
                     "--flow-control", "vc", "--load", "0.1",
                     "--cycles", "60", "--max-packets", "1"])
        assert code == 0
        assert "vc" in capsys.readouterr().out


class TestSweepMetricsExport:
    def test_grid_export_one_record_per_load(self, capsys, tmp_path):
        import json as _json
        path = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--topology", "mesh", "--ports", "16",
                     "--loads", "0.05,0.1", "--cycles", "60",
                     "--metrics", str(path)])
        assert code == 0
        records = [_json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["load"] for r in records] == [0.05, 0.1]
        for record in records:
            assert "telemetry" in record
            assert record["offered"] > 0
        assert "hottest links across the run" in capsys.readouterr().out

    def test_bisect_export(self, capsys, tmp_path):
        path = tmp_path / "bisect.jsonl"
        code = main(["sweep", "--ports", "16", "--loads", "0.05,0.85",
                     "--search", "bisect", "--budget", "4",
                     "--cycles", "80", "--metrics", str(path)])
        assert code == 0
        assert path.read_text().count("\n") >= 2
        assert "metrics written to" in capsys.readouterr().out

    def test_sweep_without_flag_writes_nothing(self, capsys, tmp_path):
        code = main(["sweep", "--topology", "mesh", "--ports", "16",
                     "--loads", "0.05", "--cycles", "60"])
        assert code == 0
        assert "metrics written" not in capsys.readouterr().out
