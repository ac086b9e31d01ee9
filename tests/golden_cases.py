"""The command lines the golden gate pins, and how one is run and recorded.

Each case is one ``g2fmethod`` invocation.  Its record, one JSON file under
``tests/golden/``, holds the argument list, the exit code and the exact
stdout and stderr as lists of lines (line ends kept), so a file diffs line
by line and joins back to the bytes.  ``tests/test_golden.py`` compares the
records with in-process runs; ``tests/regen_golden.py`` writes them from
``python -m g2fmethod`` subprocesses.  The only masked bytes are the
per-suite timings of ``verify``.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import List, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _formats(argv: List[str], formats: Tuple[str, ...]) -> List[List[str]]:
    return [argv + (["--format", f] if f != "text" else []) for f in formats]


def _cases() -> List[List[str]]:
    cases: List[List[str]] = []
    for n in ("2", "3"):
        cases += _formats(["algebra", "--n", n], ("text", "json"))
    cases += [["algebra", "--n", "4"], ["algebra", "--n", "8"]]
    cases += _formats(["embedding", "verify"], ("text", "json"))
    cases += _formats(["embedding", "lattice"], ("text", "json", "dot"))
    for weight in ("eps1", "omega2", "omega3", "eps1 + 2*eps2", "eps1 - 3*eps2", "1/2*eta1 - eta3"):
        cases += _formats(["embedding", "project", "--weight", weight], ("text", "json"))
    for weight in ("alpha1", "alpha2", "psi1 - 2*psi2", "-1/3*alpha2"):
        cases += _formats(["embedding", "inject", "--weight", weight], ("text", "json"))
    for mask in ("0,0,0", "1,0,0", "0,1,0", "0,0,1", "1,1,0", "1,0,1", "0,1,1", "1,1,1"):
        cases += _formats(["parabolic", "--algebra", "so7", "--mask", mask], ("text", "json"))
    for mask in ("0,0", "1,0", "0,1", "1,1"):
        cases += _formats(["parabolic", "--algebra", "g2", "--mask", mask], ("text", "json"))
    cases += _formats(["hilbert", "--max-degree", "6"], ("text", "json"))
    cases += _formats(["hilbert", "--max-degree", "6", "--t", "0"], ("text", "json"))
    cases += _formats(["hilbert", "--max-degree", "0"], ("text", "json"))
    cases += [["hilbert", "--max-degree", "0", "--t", "3"]]
    for N in range(1, 13):
        cases += _formats(["singular", "--homogeneity", str(2 * N)], ("text", "json", "latex"))
    for d in ("1", "3", "5", "7"):
        cases += _formats(["singular", "--homogeneity", d], ("text", "json"))
    cases += _formats(["singular", "--scan", "--max-degree", "14"], ("text", "json"))
    cases += _formats(["singular", "--show-operator"], ("text", "json", "latex"))
    cases += [
        ["oracle", "--degree", "2", "--lambda=-3/2"],
        ["oracle", "--degree", "2", "--lambda=-3/2", "--format", "json"],
        ["oracle", "--degree", "2", "--lambda=0"],
        ["oracle", "--degree", "4", "--lambda=-1/2", "--annihilators", "borel"],
        ["oracle", "--degree", "6", "--lambda=1/2", "--format", "json"],
        ["oracle", "--degree", "10", "--lambda=5/2", "--format", "json"],
        ["oracle", "--degree", "10", "--lambda=5/2", "--annihilators", "borel"],
        ["oracle", "--degree", "40", "--lambda=35/2"],
    ]
    cases += _formats(["verify"], ("text", "json"))
    # one-line errors, usage errors and requests over a cap (exit 64)
    cases += [
        ["embedding", "project"],
        ["embedding", "inject"],
        ["embedding", "project", "--weight", "eps1?eps2"],
        ["embedding", "inject", "--weight", "eps1?eps2"],
        ["embedding", "project", "--weight", "2 2 eps1"],
        ["embedding", "project", "--weight", "eps1*2"],
        ["embedding", "project", "--weight", "1/0*eps1"],
        ["embedding", "inject", "--weight", "2*alpha1*alpha2"],
        ["embedding", "project", "--weight", "alpha1"],
        ["embedding", "inject", "--weight", "eps1"],
        ["embedding", "verify", "--format", "dot"],
        ["parabolic", "--algebra", "so7", "--mask", "1,x"],
        ["parabolic", "--algebra", "g2", "--mask", "1,0,0"],
        ["oracle", "--degree", "2", "--lambda=1/0"],
        ["oracle", "--degree", "2", "--lambda=x"],
        ["oracle", "--degree", "-1", "--lambda=1/2"],
        ["algebra", "--n", "1"],
        ["singular"],
        ["singular", "--scan"],
        ["singular", "--homogeneity", "0"],
        ["singular", "--homogeneity", "3", "--format", "latex"],
        ["singular", "--homogeneity", "301", "--format", "latex"],
        ["singular", "--scan", "--max-degree", "4", "--format", "latex"],
        ["singular", "--scan", "--max-degree", "-3"],
        ["singular", "--scan", "--max-degree", "0"],
        ["singular", "--homogeneity", "4", "--scan", "--max-degree", "2"],
        ["singular", "--show-operator", "--homogeneity", "4"],
        ["singular", "--homogeneity", "4", "--max-degree", "3"],
        ["embedding", "lattice", "--weight", "eps1"],
        ["hilbert", "--max-degree", "3", "--t", "-1"],
        ["singular", "--homogeneity", "abc"],
        ["oracle", "--degree", "2"],
        ["oracle", "--degree", "2", "--lambda=1/2", "--format", "xml"],
        ["oracle", "--degree", "100000", "--lambda=1/2"],
        ["singular", "--homogeneity", "602"],
        ["singular", "--scan", "--max-degree", "201"],
        ["hilbert", "--max-degree", "41"],
        ["algebra", "--n", "9"],
    ]
    return cases


CASES: List[List[str]] = _cases()


def case_name(argv: List[str]) -> str:
    """File stem of a case: its arguments without the flags' leading '--',
    joined by '_', in filename-safe characters."""
    words = (a[2:] if a.startswith("--") else a for a in argv)
    return re.sub(r"[^A-Za-z0-9=,.+-]", "_", "_".join(words))


assert len({case_name(a) for a in CASES}) == len(CASES), "two cases share a file name"

_TIMING = re.compile(r" \(\d+\.\d+s\)$", re.MULTILINE)


def mask(argv: List[str], stdout: str) -> str:
    """Hide what may differ between two correct runs: verify's suite timings."""
    return _TIMING.sub(" (<timing>)", stdout) if argv[0] == "verify" else stdout


def record(argv: List[str], code: int, stdout: str, stderr: str) -> dict:
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": mask(argv, stdout).splitlines(keepends=True),
        "stderr": stderr.splitlines(keepends=True),
    }


def run_in_process(argv: List[str]) -> dict:
    """Run ``g2fmethod argv`` in this process, as the console script would.

    A ``SystemExit`` carrying a message goes to stderr with exit code 1, as
    the interpreter reports it at the top level.
    """
    from g2fmethod import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        err.write(f"{code}\n")
        code = 1
    return record(argv, code, out.getvalue(), err.getvalue())


def golden_path(argv: List[str]) -> Path:
    return GOLDEN_DIR / f"{case_name(argv)}.json"


def dumps(rec: dict) -> str:
    return json.dumps(rec, indent=1, sort_keys=True) + "\n"
