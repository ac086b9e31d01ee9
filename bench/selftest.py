"""The benchmark's own tests.  Run from the repository root:

    python3 bench/selftest.py

They use the small ``--smoke`` sizes, so the whole file takes about a minute.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class ContractTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                # a budgeted worker must fit start-up, set-up (about 2 s on a
                # busy 2-vCPU host) and its smoke prefix inside the window
                seconds = "10" if workloads.REGISTRY[w["name"]].budgeted else "3"
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", seconds,
                                     "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                    else:
                        spans = BENCH_DIR / "traces" / f"{w['name']}-seed3-w0.jsonl"
                        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
                        self.assertTrue(names & set(tracing.SPAN_METRICS), spans)

    def test_workloads_are_the_ones_benchmark_json_names(self):
        self.assertEqual(set(workloads.REGISTRY), {w["name"] for w in SPEC["workloads"]})

    def test_directory_without_the_engine_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("tmp*", "__pycache__", "traces"))
            proc = run_bench(bare, "--workload", "build", "--seed", "1", "--seconds", "2", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


class FailureCountTest(unittest.TestCase):
    def test_wrong_expected_answer_counts_in_fail_ratio(self):
        saved = dict(workloads.EXPECTED_CHECKSUMS)
        workloads.EXPECTED_CHECKSUMS["so5"] = "0" * 16
        try:
            record = worker.run_worker("build", 1, 60, False, "smoke")
        finally:
            workloads.EXPECTED_CHECKSUMS.update(saved)
        self.assertEqual(record["failed"], 1)
        self.assertEqual(record["attempted"], 5)
        self.assertEqual(record["failures"], ["so5: checksum"])
        self.assertAlmostEqual(record["failed"] / record["attempted"], 0.2)

    def test_operation_cut_by_the_deadline_counts_neither_way(self):
        record = worker.run_worker("frontier", 1, 6.0, False, "smoke")
        self.assertEqual(record["failed"], 0)
        self.assertGreaterEqual(record["max_homogeneity"], 4)
        self.assertEqual(record["attempted"], record["max_homogeneity"] // 2)


class InputTest(unittest.TestCase):
    def test_off_parameter_values_are_never_special(self):
        for seed in range(50):
            for lam in workloads.off_parameter_values(random.Random(seed), 2):
                self.assertIn(lam.denominator, (3, 4))
                self.assertNotEqual((2 * lam).denominator, 1)

    def test_same_seed_same_inputs(self):
        a = workloads.off_parameter_values(random.Random(7), 20)
        b = workloads.off_parameter_values(random.Random(7), 20)
        self.assertEqual(a, b)


class TracingTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()                  # outer 0..3, inner 1..2
        self.assertEqual(tracer.self_times(), {"outer": 2.0, "inner": 1.0})

    def test_probe_inside_a_hook_nests_under_its_bookkeeping(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

        def hook(tr, args, result):
            tr.bookkeeping(tr.clock(), tr.clock())

        inner = tracer.wrap("inner", lambda: None, hook)
        outer = tracer.wrap("outer", lambda: inner())
        outer()      # outer 0..7, inner 1..2, hook 3..6 with a probe 4..5 inside
        selfs = tracer.self_times()
        self.assertEqual(selfs["outer"], 3.0)
        self.assertEqual(selfs["inner"], 1.0)
        self.assertEqual(selfs[tracing.BOOKKEEPING], 3.0)

    def test_speed_probe_runs_no_garbage_collection(self):
        # a collection would walk the engine's heap and tie the time unit to it
        collections = []
        callback = lambda phase, info: collections.append(phase)   # noqa: E731
        threshold = gc.get_threshold()
        gc.callbacks.append(callback)
        gc.set_threshold(1)
        try:
            worker.speed_probe()
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(callback)
        self.assertEqual(collections, [])
        self.assertTrue(gc.isenabled())

    def test_divisor_count(self):
        for n in list(range(1, 300)) + [707788800, 2477260800]:
            brute = sum(1 for d in range(1, int(n ** 0.5) + 1) if n % d == 0 for _ in {d, n // d})
            self.assertEqual(tracing.divisor_count(n), brute, n)
        self.assertEqual(tracing.divisor_count(0), 1)
        self.assertEqual(tracing.divisor_count((2 ** 61 - 1) * (2 ** 31 - 1) * 12), 2 * 2 * 6)

    def test_root_candidates_match_the_search(self):
        from g2fmethod.scalars import LambdaPoly

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            roots = LambdaPoly([Fraction(-2477260800), Fraction(707788800)]).rational_roots()
        finally:
            tracer.uninstall()
        self.assertEqual(roots, [Fraction(7, 2)])
        pairs = 2 * tracing.divisor_count(2477260800) * tracing.divisor_count(707788800)
        self.assertEqual(tracer.counts["scalars.root_candidates"], pairs)
        self.assertEqual(tracer.metrics()["scalars.root_hit_ratio"], 1 / pairs)


if __name__ == "__main__":
    unittest.main()
