"""Rewrite the golden records under tests/golden/ from the console entry point.

Run from the repository root:

    python tests/regen_golden.py

Each case in ``golden_cases.CASES`` runs as ``python -m g2fmethod ...`` in a
subprocess with ``src`` first on the import path, so the records hold what
the program itself prints; the tier-1 test then checks that an in-process run
prints the same.  Records of cases no longer listed are deleted.  The golden
files are a byte-identity gate: rewrite them only when an output change is
intended, and say so where the change is described.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from golden_cases import CASES, GOLDEN_DIR, dumps, golden_path, record

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    GOLDEN_DIR.mkdir(exist_ok=True)
    wanted = set()
    for argv in CASES:
        proc = subprocess.run([sys.executable, "-m", "g2fmethod", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        path = golden_path(argv)
        path.write_text(dumps(record(argv, proc.returncode, proc.stdout, proc.stderr)))
        wanted.add(path.name)
    for stale in GOLDEN_DIR.glob("*.json"):
        if stale.name not in wanted:
            stale.unlink()
    print(f"wrote {len(wanted)} records to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
