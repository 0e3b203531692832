"""The CLI's golden transcript: every recorded invocation, byte for byte.

``tests/golden_cli.json`` is written by ``tests/record_cli_golden.py``;
see that module for what it covers and when to re-record it.
"""

import json

import pytest

from tests import record_cli_golden

GOLDEN = json.loads(record_cli_golden.FIXTURE.read_text())


@pytest.mark.parametrize("entry", GOLDEN["transcript"],
                         ids=lambda entry: " ".join(entry["argv"]))
def test_invocation_prints_the_recorded_transcript(entry, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    record_cli_golden.prepare(tmp_path)
    assert record_cli_golden.run(entry["argv"]) == entry


def test_no_option_gained_or_lost():
    """Every subcommand keeps its option strings, choices and defaults."""
    assert record_cli_golden.parser_options() == GOLDEN["options"]


def test_transcript_reaches_every_option():
    """Each verb's every option appears in at least one of its recorded
    invocations."""
    used = {}
    for entry in GOLDEN["transcript"]:
        verb, *rest = entry["argv"]
        used.setdefault(verb, set()).update(rest)
    for verb, rows in GOLDEN["options"].items():
        for spellings, _choices, _default in rows:
            if spellings[0].startswith("--"):
                assert used.get(verb, set()) & set(spellings), \
                    (verb, spellings)
