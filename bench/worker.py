"""One benchmark worker: set up, run a workload's checked operations, report.

Run by ``run.py`` in a fresh process per sample::

    python3 bench/worker.py --workload certify --seed 1 --budget 30 --trace 0

The last line of standard output is a JSON object with the worker's
timings, its operation counts and, with ``--trace 1``, its per-layer
metrics.  A budgeted workload (``frontier``) is cut at ``--budget`` seconds
after the worker starts by a timer signal raised from here, outside the
engine; the operation in progress at the cut is dropped.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


# Time of ``speed_probe`` at the reference speed, a round value near its time
# on a 2.1 GHz Xeon vCPU: it fixes the unit of the scaled times.  Shared hosts run the same code up to 1.5x slower for minutes at a time;
# each timed interval is scaled by REFERENCE_PROBE_S / (mean time of the
# probes taken during it), so it reads as seconds at the reference speed.
# Probes come at even steps of CPU time, so their mean follows the speed the
# interval saw on average, through a switch of state too.  Raw times are kept
# beside the scaled ones.
REFERENCE_PROBE_S = 0.005
PROBE_EVERY_S = 0.1          # of the worker's CPU time


def speed_probe() -> float:
    """Seconds a fixed piece of exact rational arithmetic takes right now.

    The probe runs inside the worker, beside the engine's heap, so it must not
    depend on that heap: it keeps no object past one step and holds the
    garbage collector off, so no collection (which would walk the engine's
    live objects) falls inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 750):
            acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(i % 3 - 1, i % 11 + 1)
            acc = Fraction(acc.numerator % 100003, acc.denominator % 99991 + 1)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Wall clock that probes the machine's speed on a CPU-time timer.

    The probe runs in a SIGPROF handler, so it also samples the middle of a
    long engine call.  Timed intervals exclude the time spent probing; a traced
    worker records each probe as bookkeeping, outside every layer's self time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probes = [speed_probe()]
        self.probing_s = 0.0
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self, signum, frame) -> None:
        if self.tracer is not None and self.tracer.busy:
            return
        start = time.perf_counter()
        self.probes.append(speed_probe())
        end = time.perf_counter()
        self.probing_s += end - start
        if self.tracer is not None:
            self.tracer.bookkeeping(start, end)

    def mark(self) -> Tuple[float, int]:
        """Start of an interval: probe-free time and the probe count."""
        return time.perf_counter() - self.probing_s, len(self.probes)

    def since(self, mark: Tuple[float, int]) -> Tuple[float, float]:
        """Raw and scaled seconds since ``mark``, probes excluded."""
        start, first = mark
        raw = time.perf_counter() - self.probing_s - start
        probes = self.probes[max(first - 1, 0):]     # from the last probe before it
        return raw, raw * REFERENCE_PROBE_S / statistics.fmean(probes)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


class Deadline(BaseException):
    """The budget ran out; a BaseException so no engine handler swallows it."""


def _raise_deadline(signum, frame):
    raise Deadline()


def run_worker(workload: str, seed: int, budget: float, trace: bool, size: str = "full",
               spans_path: Optional[str] = None, started: Optional[float] = None) -> dict:
    """Set up, run every operation of ``workload`` and return the record."""
    started = time.perf_counter() if started is None else started
    cpu_started = time.process_time()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    clock = SpeedClock(tracer)
    setup_mark = clock.mark()
    import workloads                                  # imports the engine: part of set-up

    wl = workloads.REGISTRY[workload]
    sizes = workloads.SIZES[size]
    if tracer is not None:
        tracing.install(tracer)
    if wl.budgeted:
        signal.signal(signal.SIGALRM, _raise_deadline)
        signal.setitimer(signal.ITIMER_REAL, max(budget - (time.perf_counter() - started), 1e-3))

    attempted = failed = 0
    failures = []
    max_homogeneity = 0
    prefix = 2 * int(sizes["frontier_prefix"])
    setup = wall = None          # (raw, scaled) seconds
    current = None
    state = None
    try:
        state = wl.setup()
        setup = clock.since(setup_mark)
        ops_mark = clock.mark()
        for op in wl.ops(state, sizes, random.Random(seed)):
            current = op
            if tracer is not None:
                tracer.op = op.name
            try:
                op.run()
                ok = True
            except workloads.WrongAnswer as exc:
                ok, why = False, str(exc)
            except Exception as exc:                  # an engine error is a failed operation
                ok, why = False, f"{op.name}: {type(exc).__name__}: {exc}"
            current = None
            attempted += 1
            if ok:
                max_homogeneity = max(max_homogeneity, op.homogeneity)
            else:
                failed += 1
                failures.append(why)
            if wl.budgeted and op.homogeneity == prefix:
                wall = clock.since(ops_mark)
        if wall is None:
            wall = clock.since(ops_mark)
    except Deadline:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if setup is None:
            attempted, failed = attempted + 1, failed + 1
            failures.append("set-up unfinished at the deadline")
        elif wall is None:
            # the prefix every version must certify did not finish: a failure,
            # and a censored time
            wall = clock.since(ops_mark)
            attempted, failed = attempted + 1, failed + 1
            failures.append(f"{current.name if current else 'sweep'}: unfinished at the deadline")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        clock.stop()
    ended = time.perf_counter()

    record = {
        "workload": workload,
        "seed": seed,
        "budgeted": wl.budgeted,
        "setup_s": setup and setup[1],
        "wall_s": wall and wall[1],
        "max_homogeneity": max_homogeneity,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_setup_s": setup and setup[0],
        "raw_wall_s": wall and wall[0],
        "probes_s": clock.probes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if tracer is not None:
        tracer.close_open_spans()
        tracer.uninstall()
        layers = tracer.metrics()
        module = wl.module_of(state) if state is not None else None
        layers["verma.memo_entries"] = len(module._memo) if module is not None else 0
        cpu_s = time.process_time() - cpu_started
        layers["worker.wall_s"] = wall[1] if wall else 0.0
        layers["worker.cpu_s"] = cpu_s
        layers["worker.wait_s"] = max(0.0, (ended - started) - cpu_s)
        record["layers"] = layers
        if spans_path:
            tracer.write_spans(spans_path)
    return record


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = parser.parse_args(argv)
    record = run_worker(args.workload, args.seed, args.budget, bool(args.trace), args.size,
                        args.spans, started)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
