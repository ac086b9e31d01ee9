"""Run every workload over several seeds and summarize, in one command.

    python3 bench/report.py                       # 3 seeds per workload + 1 traced run
    python3 bench/report.py --runs 10 --out bench/baseline.json

For each workload it runs ``run.py`` once per seed with tracing off and once
with tracing on (first seed), then prints every end-to-end metric with its
unit, median, quartiles, sample count and spread (interquartile distance as
a share of the median), the operations attempted and the fail ratio, the
largest per-layer self times of the traced run, and the tracing overhead
(traced op-list wall time minus the untraced median).  The Python version,
core count and load average before and after each workload's runs are
recorded with the seeds in the ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"info": info, "result": result}


def summarize(values: List[float]) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="untraced runs (seeds) per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report: Dict[str, object] = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, args.seconds, 0) for s in seeds]
        entry: Dict[str, object] = {
            "env_before": runs[0]["info"]["env_before"],
            "env_after": runs[-1]["info"]["env_after"],
            "ops": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "workers": [r["info"]["workers"] for r in runs],
            "end_to_end": {},
        }
        entry["fail_ratio"] = entry["failed"] / entry["ops"]
        print(f"== {workload}: {len(runs)} runs x {args.seconds} s, workers per run {entry['workers']}, "
              f"fail_ratio {entry['fail_ratio']:.4f} of {entry['ops']} ops")
        for name, metric in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            s["unit"] = metric["unit"]
            entry["end_to_end"][name] = s
            print(f"  {name:16s} {s['median']:12.4f} {s['unit']:6s} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"n {s['n']}  spread {s['spread']:.3f} (bound {metric['bound']}, {metric['better']} is better)")
        for r in runs:
            for f in r["info"]["failures"]:
                print(f"  FAILED seed {r['info']['seed']}: {f}")
        traced = run(workload, seeds[0], args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["per_layer"] = layers
        overhead = layers["worker.wall_s"] - entry["end_to_end"]["wall_s"]["median"]
        entry["tracing_overhead_s"] = overhead
        top = sorted(((v, k) for k, v in layers.items()
                      if k.endswith("_s") and not k.startswith("worker.")), reverse=True)[:6]
        print("  traced self time: " + ", ".join(f"{k} {v:.3f}" for v, k in top))
        print(f"  tracing overhead: {overhead:+.3f} s on wall_s "
              f"({layers['worker.wall_s']:.3f} traced vs {entry['end_to_end']['wall_s']['median']:.3f})")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
