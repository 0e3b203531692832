"""The paper-vs-measured record: its comparison type, its table, its
evaluator and the ``reproduce`` verb that prints it."""

import dataclasses
import math

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentLog,
    PaperComparison,
    compare,
    evaluate,
)
from repro.cli import main
from repro.errors import ConfigurationError


class TestPaperComparison:
    def test_relative_error(self):
        c = PaperComparison("E", "q", paper_value=1.0, measured_value=1.05)
        assert c.relative_error == pytest.approx(0.05)

    def test_matches_within_tolerance(self):
        c = PaperComparison("E", "q", 1.0, 1.05, tolerance=0.10)
        assert c.matches

    def test_deviation_flagged(self):
        c = PaperComparison("E", "q", 1.0, 1.5, tolerance=0.10)
        assert not c.matches

    def test_zero_paper_value(self):
        c = PaperComparison("E", "q", 0.0, 0.001)
        assert c.relative_error == pytest.approx(0.001)

    def test_row_contains_status(self):
        row = PaperComparison("E", "q", 1.0, 1.0).row()
        assert "OK" in row

    def test_claim_row_holds_only_when_true(self):
        assert PaperComparison("E", "claim", True, True, tolerance=0.0).matches
        broken = PaperComparison("E", "claim", True, False, tolerance=0.0)
        assert not broken.matches
        assert broken.row()[3:5] == ["True", "False"]

    def test_cells_keep_four_significant_digits(self):
        """The stage area and the chip fraction, which a 3-decimal cell
        prints as 0.002 and 0.007."""
        stage = PaperComparison("E", "stage area", 0.0015, 0.0015)
        fraction = PaperComparison("E", "chip fraction", 0.0073, 0.00744)
        assert stage.row()[3:5] == ["0.0015", "0.0015"]
        assert fraction.row()[3:5] == ["0.0073", "0.00744"]
        text = ExperimentLog([stage, fraction]).render()
        assert "0.0015" in text and "0.0073" in text
        assert "0.002" not in text and "0.007 " not in text


class TestExperimentLog:
    def test_render(self):
        log = ExperimentLog([
            PaperComparison("EXP-F7", "frequency at 0 mm", 1.8, 1.8, "GHz"),
            PaperComparison("EXP-F7", "frequency at 1.25 mm", 1.0, 0.994,
                            "GHz"),
        ])
        text = log.render(title="Fig 7")
        assert "EXP-F7" in text
        assert "GHz" in text
        assert log.all_match

    def test_all_match_false_on_deviation(self):
        log = ExperimentLog([PaperComparison("X", "off by 2x", 1.0, 2.0)])
        assert not log.all_match

    def test_empty_log_raises(self):
        with pytest.raises(ConfigurationError):
            ExperimentLog().all_match


class TestRecord:
    def test_ids_unique_and_every_experiment_has_rows(self):
        ids = [experiment.id for experiment in EXPERIMENTS]
        assert len(ids) == len(set(ids))
        for experiment in EXPERIMENTS:
            assert experiment.rows, experiment.id
            assert experiment.section, experiment.id

    def test_every_experiment_of_the_retired_harness_is_present(self):
        assert {experiment.id for experiment in EXPERIMENTS} == {
            "EXP-EQ4", "EXP-EQ7", "EXP-F7", "EXP-RT", "EXP-TM", "EXP-DM",
            "EXP-QB", "EXP-GD", "EXP-CP", "EXP-FC", "EXP-FC-ABL",
            "EXP-SEG-ABL", "EXP-MS", "EXP-PHY", "EXP-MAP", "EXP-LL",
            "EXP-SAT", "EXP-X1", "EXP-X2", "EXP-X3",
        }

    def test_every_measured_quantity_is_a_row_and_vice_versa(self):
        """Nothing is measured without being held to the paper, and no
        row names a quantity its experiment does not measure."""
        for experiment in EXPERIMENTS:
            measured = experiments._measured(experiment.measure)
            assert set(measured) == {row.quantity
                                     for row in experiment.rows}, \
                experiment.id

    def test_every_row_evaluates_to_a_finite_number_or_a_bool(self):
        for comparison in evaluate().comparisons:
            value = comparison.measured_value
            assert isinstance(value, (bool, int, float)), comparison
            assert math.isfinite(value), comparison
            assert isinstance(value, bool) == \
                isinstance(comparison.paper_value, bool), comparison

    def test_an_experiment_is_measured_once_per_process(self, monkeypatch):
        calls = []

        def measure():
            calls.append(1)
            return {"a": 1.0, "b": True}

        probe = experiments.Experiment("EXP-PROBE", "none", measure, (
            experiments.Row("a", 1.0), experiments.Row("b", True)))
        monkeypatch.setattr(experiments, "EXPERIMENTS", (probe,))
        assert evaluate().all_match
        assert evaluate(["EXP-PROBE"]).all_match
        assert compare(probe, probe.rows[0]).matches
        assert len(calls) == 1

    def test_evaluate_filters_in_table_order(self):
        log = evaluate(["EXP-RT", "EXP-EQ4"])
        assert [c.experiment for c in log.comparisons] == [
            experiment.id for experiment in EXPERIMENTS
            if experiment.id in ("EXP-EQ4", "EXP-RT")
            for _ in experiment.rows]
        assert log.comparisons[0].experiment == "EXP-EQ4"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="EXP-NOPE"):
            evaluate(["EXP-NOPE"])


def _with_altered_paper_value(experiment_id, quantity, paper):
    """The table, with one row's paper value changed."""
    return tuple(
        dataclasses.replace(experiment, rows=tuple(
            dataclasses.replace(row, paper=paper)
            if row.quantity == quantity else row
            for row in experiment.rows))
        if experiment.id == experiment_id else experiment
        for experiment in EXPERIMENTS
    )


class TestTheGateBites:
    def test_moved_paper_number_deviates(self, monkeypatch, capsys):
        altered = _with_altered_paper_value("EXP-F7", "frequency at 0.6 mm",
                                            1.5)
        fig7 = next(e for e in altered if e.id == "EXP-F7")
        comparison = compare(fig7, fig7.rows[1])
        assert comparison.row()[-1] == "DEVIATES"
        monkeypatch.setattr(experiments, "EXPERIMENTS", altered)
        assert not evaluate(["EXP-F7"]).all_match
        assert main(["reproduce", "EXP-F7"]) == 1
        out = capsys.readouterr().out
        assert "DEVIATES" in out and "DEVIATIONS PRESENT" in out

    def test_broken_claim_deviates(self, monkeypatch):
        altered = _with_altered_paper_value(
            "EXP-QB", "quad swap-halves throughput > 1.5x binary", False)
        monkeypatch.setattr(experiments, "EXPERIMENTS", altered)
        assert not evaluate(["EXP-QB"]).all_match


class TestReproduceVerb:
    def test_named_experiment_prints_only_its_rows(self, capsys):
        assert main(["reproduce", "EXP-F7"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.startswith("EXP-")]
        assert len(rows) == 4
        assert all(line.startswith("EXP-F7 ") for line in rows)
        assert "ALL MATCH" in out

    def test_unknown_experiment_is_a_clean_error(self, capsys):
        assert main(["reproduce", "EXP-NOPE"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown experiment 'EXP-NOPE' (known: EXP-EQ4, ")

    def test_whole_record_reproduces(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        for experiment in EXPERIMENTS:
            assert f"\n{experiment.id} " in out
        assert "DEVIATES" not in out
