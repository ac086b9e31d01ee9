"""Byte identity of every pinned command line (see tests/golden_cases.py).

The records are never written here; ``tests/regen_golden.py`` writes them,
each from a fresh process.  Here every command runs on the test session's
warm ``SolverContext`` instead of building its own, so the gate also checks
that a warm context prints the bytes a cold one does.
"""

import json

import pytest

from g2fmethod import cli
from golden_cases import CASES, GOLDEN_DIR, case_name, golden_path, run_in_process


def test_every_record_belongs_to_a_case():
    names = {f"{case_name(argv)}.json" for argv in CASES}
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.json")) == sorted(names)


@pytest.mark.parametrize("argv", CASES, ids=case_name)
def test_output_matches_golden_record(argv, ctx, monkeypatch):
    monkeypatch.setattr(cli, "SolverContext", lambda: ctx)
    expected = json.loads(golden_path(argv).read_text())
    got = run_in_process(argv)
    assert got["exit"] == expected["exit"]
    assert "".join(got["stderr"]) == "".join(expected["stderr"])
    assert "".join(got["stdout"]) == "".join(expected["stdout"])
