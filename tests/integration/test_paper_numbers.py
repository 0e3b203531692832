"""Every number and claim of the paper, one test case per row of the
paper-vs-measured record (``repro.analysis.experiments``): a change that
moves a paper number fails here and the case id names the row.
"""

import pytest

from repro.analysis.experiments import EXPERIMENTS, compare


@pytest.mark.parametrize("experiment, row", [
    pytest.param(experiment, row, id=f"{experiment.id}: {row.quantity}")
    for experiment in EXPERIMENTS for row in experiment.rows
])
def test_paper_vs_measured(experiment, row):
    comparison = compare(experiment, row)
    assert comparison.matches, (
        f"paper {comparison.paper_value} vs measured "
        f"{comparison.measured_value} {comparison.unit} "
        f"({comparison.relative_error:.2%} off, "
        f"tolerance {comparison.tolerance:.2%})"
    )
