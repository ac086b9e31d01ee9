"""Benchmark runner: one workload, one seed, a fixed measuring window.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  It starts fresh worker processes
one at a time (a closed loop with one client), each with a fixed
``PYTHONHASHSEED``, and starts another only while the previous worker's
duration still fits in the window; the budgeted ``frontier`` workload runs
one worker cut at the window's end.  The last line of standard output is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics``, the medians
over the run's workers of every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  Lines before it describe the run.  A
traced run also writes each worker's spans to
``bench/traces/<workload>-seed<seed>-w<i>.jsonl``.  Workload names and
metric units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPAN_DIR = BENCH_DIR / "traces"
HASH_SEED = "0"
RUN_LIMIT_S = 170.0          # every run ends well inside the 180 s it is allowed


def load_spec() -> dict:
    """Workload names and metric units, from ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "hash_seed": HASH_SEED,
    }


def run_one_worker(args, budget: float, timeout: float, index: int) -> Tuple[Optional[dict], str]:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", f"{budget:.3f}", "--trace", str(args.trace),
           "--size", "smoke" if args.smoke else "full"]
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPAN_DIR / f"{args.workload}-seed{args.seed}-w{index}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker {index} killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker {index} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    record = json.loads(lines[-1])
    if record["setup_s"] is None or record["wall_s"] is None:
        return None, f"worker {index}: " + "; ".join(record["failures"])
    return record, ""


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small operation sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "g2fmethod" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src' / 'g2fmethod'}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "g2fmethod"), quiet=1)

    env_before = environment()
    start = time.perf_counter()
    window_end = start + args.seconds
    records: List[dict] = []
    errors: List[str] = []
    last = 0.0
    while True:
        now = time.perf_counter()
        if records or errors:
            if (records and records[-1]["budgeted"]) or now + last > window_end:
                break
        timeout = max(1.0, min(args.seconds + 60.0, RUN_LIMIT_S - (now - start)))
        record, error = run_one_worker(args, max(window_end - now, 0.1), timeout, len(records) + len(errors))
        last = time.perf_counter() - now
        if record is None:
            errors.append(error)
            break
        records.append(record)
    env_after = environment()

    attempted = sum(r["attempted"] for r in records) + len(errors)
    failed = sum(r["failed"] for r in records) + len(errors)
    failures = [f for r in records for f in r["failures"]] + errors
    if not records:
        print("no worker finished: " + "; ".join(errors), file=sys.stderr)
        return 1

    if args.trace:
        metrics = {m["name"]: {"value": statistics.median(r["layers"][m["name"]] for r in records),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": statistics.median(r[m["name"]] for r in records),
                               "unit": m["unit"]} for m in spec["end_to_end"]}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "workers": len(records),
                      "fail_ratio": failed / attempted, "ops": attempted,
                      "env_before": env_before, "env_after": env_after,
                      "samples": {n: [r[n] for r in records]
                                  for n in (*(m["name"] for m in spec["end_to_end"]),
                                            "raw_setup_s", "raw_wall_s")},
                      "probes_s": [r["probes_s"] for r in records],
                      "failures": failures[:20]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
