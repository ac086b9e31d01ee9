"""Span recorder for the traced benchmark run, installed from outside the engine.

The engine binds most names with ``from .x import y``, so each wrapper is
installed on the module that *uses* the name (for example
``g2fmethod.solver.param_solve``), and methods are wrapped on their class.
Recursive hot paths (``VermaModule.act_basis``, ``LambdaPoly`` arithmetic)
are deliberately left alone: a wrapper there would distort what it measures.

Spans (name, start, end, parent, operation) stay in memory and are written
out once, at the end of the worker.  Counts are taken at the same boundaries
by per-span hooks; a hook's own running time, and a speed probe taken by
the worker's timer, are recorded as ``bench.bookkeeping`` spans, so they
are subtracted from the enclosing layer's self time instead of being billed
to it.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

BOOKKEEPING = "bench.bookkeeping"

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "scalars.rational_roots": ("scalars.rational_roots_s", "scalars.rational_roots_calls"),
    "scalars.deflate": ("scalars.deflate_s", None),
    "linsolve.bareiss": ("linsolve.bareiss_s", "linsolve.bareiss_calls"),
    "linsolve.param_solve": ("linsolve.param_solve_s", "linsolve.param_solve_calls"),
    "linsolve.kernel_basis": ("linsolve.kernel_basis_s", "linsolve.kernel_basis_calls"),
    "verma.singular_search": ("verma.singular_search_s", "verma.singular_search_calls"),
    "verma.act": ("verma.act_s", "verma.act_calls"),
    "solver.collect_system": ("solver.collect_system_s", None),
    "operators.op_apply": ("operators.op_apply_s", "operators.op_apply_calls"),
    "polynomials.invariant_basis": ("polynomials.invariant_basis_s", None),
    "solver.certificate_checks": ("solver.certificate_checks_s", None),
    "solver.oracle_match": ("solver.oracle_match_s", None),
    "solver.nonstandard_verdict": ("solver.nonstandard_verdict_s", None),
    "liealg.build_so_odd": ("liealg.build_so_odd_s", "liealg.build_so_odd_calls"),
    "liealg.structure_checks": ("liealg.structure_checks_s", None),
    "embedding.embed_g2": ("embedding.embed_g2_s", None),
    "embedding.inclusion_lattice": ("embedding.inclusion_lattice_s", None),
    "fourier.extract_diffop": ("fourier.extract_diffop_s", "fourier.extract_diffop_calls"),
}

# counters and maxima filled by the hooks, reported as they are
COUNT_METRICS = (
    "scalars.root_candidates",
    "linsolve.pivot_det_degree",
    "linsolve.pivot_det_bits",
    "linsolve.kernel_cells",
    "solver.system_rows",
    "solver.system_cols",
)


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


class Tracer:
    """In-memory span stack plus counters; one per worker process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []      # [name, start, end, parent index, op]
        self.stack: List[int] = []
        self.op: Optional[str] = None
        self.busy = False                # a span is being opened or closed
        self.counts: Dict[str, float] = defaultdict(float)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start: Optional[float] = None
        self._undo: List[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self.busy = True
        stack = self.stack
        rec = [name, self.clock(), None, stack[-1] if stack else -1, self.op]
        idx = len(self.spans)
        self.spans.append(rec)
        stack.append(idx)
        self.busy = False
        return rec

    def _leave(self, rec: list) -> None:
        self.busy = True
        rec[2] = self.clock()
        self.stack.pop()
        self.busy = False

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``hook(tracer, args, result)`` runs after it,
        inside a bookkeeping span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(rec)
            if hook is not None:
                book = self._enter(BOOKKEEPING)     # a probe inside the hook nests here
                try:
                    hook(self, args, result)
                finally:
                    self._leave(book)
            return result

        return traced

    def bookkeeping(self, start: float, end: float) -> None:
        """Record harness work (a timer probe) done inside the current span.

        The caller skips its work while ``busy`` is set: the span stack is
        then between steps and would name the wrong parent.
        """
        self.spans.append([BOOKKEEPING, start, end, self.stack[-1] if self.stack else -1, self.op])

    def patch(self, owner, attr: str, name: str, hook: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, hook))
        self._undo.append(lambda: setattr(owner, attr, original))

    def close_open_spans(self) -> None:
        """End spans cut short by the deadline at the moment of the cut."""
        now = self.clock()
        for rec in self.spans:
            if rec[2] is None:
                rec[2] = now
        self.stack.clear()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- interpreter garbage collection --------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_s += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_total = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_total[rec[3]] += rec[2] - rec[1]
        out: Dict[str, float] = defaultdict(float)
        for rec, covered in zip(self.spans, child_total):
            out[rec[0]] += (rec[2] - rec[1]) - covered
        return out

    def metrics(self) -> Dict[str, float]:
        selfs = self.self_times()
        calls: Dict[str, int] = defaultdict(int)
        for rec in self.spans:
            calls[rec[0]] += 1
        out: Dict[str, float] = {}
        for span, (time_metric, call_metric) in SPAN_METRICS.items():
            out[time_metric] = selfs.get(span, 0.0)
            if call_metric:
                out[call_metric] = calls.get(span, 0)
        c = self.counts
        for key in COUNT_METRICS:
            out[key] = c[key]
        out["scalars.root_hit_ratio"] = _ratio(c["scalars.root_hits"], c["scalars.root_candidates"])
        out["linsolve.root_confirm_ratio"] = _ratio(c["linsolve.roots_confirmed"],
                                                    c["linsolve.roots_tried"])
        out["python.gc_s"] = self.gc_s
        out["python.gc_collections"] = self.gc_collections
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# hooks: counts measured where the work happens
# ---------------------------------------------------------------------------


def _small_primes(limit: int) -> List[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


_PRIMES = _small_primes(1 << 12)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> Optional[int]:
    """A nontrivial factor of a composite ``n``, or None after a bounded search."""
    for c in range(1, 20):
        x = y = 2
        d = 1
        steps = 0
        while d == 1 and steps < 200_000:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            steps += 1
        if 1 < d < n:
            return d
    return None


def divisor_count(n: int) -> int:
    """Number of positive divisors of |n| (0 counts as having the divisor 1)."""
    n = abs(n)
    if n == 0:
        return 1
    exponents: Dict[int, int] = defaultdict(int)
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exponents[p] += 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_probable_prime(m):
            exponents[m] += 1
            continue
        f = _pollard_rho(m)
        if f is None:                 # give up: count the cofactor as one prime
            exponents[m] += 1
        else:
            pending += [f, m // f]
    total = 1
    for e in exponents.values():
        total *= e + 1
    return total


def _rational_roots_hook(tracer: Tracer, args, roots) -> None:
    """Signed divisor pairs the rational-root theorem tries on this input."""
    coeffs = list(args[0].coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) > 1:
        lcm = math.lcm(*(c.denominator for c in coeffs))
        a0, an = int(coeffs[0] * lcm), int(coeffs[-1] * lcm)
        tracer.counts["scalars.root_candidates"] += 2 * divisor_count(a0) * divisor_count(an)
    tracer.counts["scalars.root_hits"] += len(roots)
    parent = tracer.stack[-1] if tracer.stack else -1
    if parent >= 0 and tracer.spans[parent][0] == "linsolve.param_solve":
        tracer.counts["linsolve.roots_tried"] += len(roots)


def _bareiss_hook(tracer: Tracer, args, result) -> None:
    _, det, _ = result
    c = tracer.counts
    c["linsolve.pivot_det_degree"] = max(c["linsolve.pivot_det_degree"], det.degree)
    bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for x in det.coeffs), default=0)
    c["linsolve.pivot_det_bits"] = max(c["linsolve.pivot_det_bits"], bits)


def _param_solve_hook(tracer: Tracer, args, result) -> None:
    tracer.counts["linsolve.roots_confirmed"] += len(result.solutions)


def _kernel_hook(tracer: Tracer, args, result) -> None:
    matrix = args[0]
    if matrix:
        tracer.counts["linsolve.kernel_cells"] += len(matrix) * len(matrix[0])


def _collect_hook(tracer: Tracer, args, result) -> None:
    matrix, _ = result
    c = tracer.counts
    c["solver.system_rows"] = max(c["solver.system_rows"], len(matrix))
    c["solver.system_cols"] = max(c["solver.system_cols"], len(matrix[0]) if matrix else 0)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from g2fmethod import embedding, fourier, liealg, linsolve, scalars, solver, verma

    tracer.patch(scalars.LambdaPoly, "rational_roots", "scalars.rational_roots", _rational_roots_hook)
    tracer.patch(scalars.LambdaPoly, "deflate_rational_roots", "scalars.deflate")
    tracer.patch(linsolve, "_bareiss_rank", "linsolve.bareiss", _bareiss_hook)
    tracer.patch(solver, "param_solve", "linsolve.param_solve", _param_solve_hook)
    for owner in (linsolve, verma, solver):
        tracer.patch(owner, "kernel_basis", "linsolve.kernel_basis", _kernel_hook)
    tracer.patch(verma.VermaModule, "singular_search", "verma.singular_search")
    tracer.patch(verma.VermaModule, "act", "verma.act")
    tracer.patch(solver, "_collect_system", "solver.collect_system", _collect_hook)
    for owner in (solver, fourier):
        tracer.patch(owner, "op_apply", "operators.op_apply")
    tracer.patch(solver, "invariant_monomial_basis", "polynomials.invariant_basis")
    tracer.patch(solver, "run_certificate_checks", "solver.certificate_checks")
    tracer.patch(solver, "oracle_matches_certificate", "solver.oracle_match")
    tracer.patch(solver, "nonstandard_verdict", "solver.nonstandard_verdict")
    for owner in (liealg, embedding):
        tracer.patch(owner, "build_so_odd", "liealg.build_so_odd")
    for check in ("jacobi_check", "antisymmetry_check", "eigenvector_check"):
        tracer.patch(liealg.StructureTable, check, "liealg.structure_checks")
    tracer.patch(embedding, "embed_g2", "embedding.embed_g2")
    tracer.patch(embedding, "inclusion_lattice", "embedding.inclusion_lattice")
    for owner in (solver, fourier):
        tracer.patch(owner, "extract_diffop", "fourier.extract_diffop")
    gc.callbacks.append(tracer._gc_callback)

