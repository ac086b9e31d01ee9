"""Exact linear algebra: rational matrices and parametric kernels.

Two layers:

* sparse Gauss-Jordan elimination over ``Fraction`` (rref, rank, kernel
  bases) used everywhere a subspace question comes up;
* fraction-free (Bareiss) elimination over the polynomial ring in the formal
  parameter, used to locate every rational parameter value at which a
  matrix drops rank.  It runs on integer layers: each row is scaled once to
  integer coefficients (its row scale), the sparse rows are scaled lazily,
  and every update and exact division is on Python ``int``s; the pivot
  determinant is recovered exactly by dividing out the pivot rows' scales.
  Candidates come from the rational roots of the pivot determinant; each
  candidate is then confirmed with an exact kernel computation at that
  value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import IntPoly, LambdaPoly, integer_layers, layers_exact_div, layers_mul_sub, poly_gcd

Row = List[Fraction]
Matrix = List[Row]


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------


def _sparse_rref(matrix: Sequence[Sequence[Fraction]]) -> Tuple[List[Dict[int, Fraction]], List[int]]:
    """Reduced row echelon form as sparse rows, by Gauss-Jordan over dicts.

    Rows are taken one at a time, reduced against the pivot rows kept so far
    and, when something survives, normalized at their first nonzero column;
    that column is then cleared from the earlier pivot rows.  The kept rows
    stay fully reduced, and the reduced row echelon form is unique, so
    sorting them by pivot gives it exactly.
    """
    kept: Dict[int, Dict[int, Fraction]] = {}      # pivot column -> its row
    for row in matrix:
        v = {j: x for j, x in enumerate(row) if x}
        for pc in [j for j in v if j in kept]:
            axpy(v, -v[pc], kept[pc])
        if not v:
            continue
        pc = min(v)
        pv = v[pc]
        v = {j: x / pv for j, x in v.items()}
        for other in kept.values():
            f = other.get(pc)
            if f:
                axpy(other, -f, v)
        kept[pc] = v
    pivots = sorted(kept)
    return [kept[pc] for pc in pivots], pivots


def axpy(y: Dict[int, Fraction], a: Fraction, x: Dict[int, Fraction]) -> None:
    """y += a*x in place, dropping entries that cancel."""
    for k, v in x.items():
        s = y.get(k, 0) + a * v
        if s:
            y[k] = s
        else:
            y.pop(k, None)


def rref(matrix: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form, with the zero rows last.

    Returns (rref matrix, pivot column list).
    """
    if not matrix:
        return [], []
    cols = len(matrix[0])
    rows, pivots = _sparse_rref(matrix)
    dense = [[row.get(j, Fraction(0)) for j in range(cols)] for row in rows]
    dense += [[Fraction(0)] * cols for _ in range(len(matrix) - len(rows))]
    return dense, pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_sparse_rref(matrix)[1])


def kernel_basis(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel, one vector per free column.

    Each vector has entry 1 at its free column, making the basis canonical.
    """
    if not matrix:
        return []
    cols = len(matrix[0])
    rows, pivots = _sparse_rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            x = row.get(fc)
            if x:
                v[pc] = -x
        basis.append(v)
    return basis


class SpanBuilder:
    """Incremental row-echelon basis; used for the parabolic subspace inclusions."""

    def __init__(self, width: int):
        self.width = width
        self.rows: Matrix = []
        self.pivots: List[int] = []

    def reduce(self, vector: Sequence[Fraction]) -> Row:
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vector: Sequence[Fraction]) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        v = self.reduce(vector)
        for p, x in enumerate(v):
            if x != 0:
                v = [a / x for a in v]
                self.rows.append(v)
                self.pivots.append(p)
                order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
                self.rows = [self.rows[i] for i in order]
                self.pivots = [self.pivots[i] for i in order]
                return True
        return False

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.reduce(vector))

    def coordinates(self, vector: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """Coefficients of ``vector`` in the stored row basis, or None."""
        coeffs: List[Fraction] = []
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        if any(x != 0 for x in v):
            return None
        return coeffs


# ---------------------------------------------------------------------------
# parametric matrices
# ---------------------------------------------------------------------------

PMatrix = List[List[LambdaPoly]]


@dataclass
class ParamSolveResult:
    """Outcome of a parametric kernel search.

    ``solutions`` holds (parameter value, kernel basis) pairs, sorted by the
    value.  ``identically_singular`` flags a matrix whose kernel is
    nontrivial for every parameter value.  ``unresolved_factors`` lists
    pivot-determinant factors that have no rational roots but could not be
    certified nonvanishing; empty means the rational answer is complete.
    """

    solutions: List[Tuple[Fraction, List[List[Fraction]]]] = field(default_factory=list)
    identically_singular: bool = False
    unresolved_factors: List[LambdaPoly] = field(default_factory=list)

    @property
    def lambdas(self) -> List[Fraction]:
        return [lam for lam, _ in self.solutions]


_QZERO = Fraction(0)


def evaluate_matrix(M: PMatrix, x: Fraction) -> Matrix:
    """Entries at a rational parameter value; every zero is one shared object."""
    return [[entry(x) if entry else _QZERO for entry in row] for row in M]


def _bareiss_rank(M: PMatrix) -> Tuple[int, LambdaPoly, List[int]]:
    """Generic rank over the parameter field, by fraction-free elimination.

    Returns (rank, pivot determinant, pivot row indices).  The determinant is
    that of the square submatrix on the pivot rows/columns; the rank can drop
    at a parameter value only where this polynomial vanishes.

    The elimination runs on integer layers: each input row is scaled once by
    the lcm of its entries' denominators, and every entry becomes a list of
    ``int`` coefficients of the powers of the parameter.  Every intermediate
    entry is then a minor of the scaled matrix, a polynomial over the
    integers, so the updates and the exact divisions by the previous pivot
    run on Python ``int``s with no rational arithmetic
    (``layers_exact_div`` raises ``ArithmeticError`` on a remainder).  A
    minor of the scaled matrix is the minor of the input times the scales of
    its rows, so the pivot determinant is recovered exactly by dividing by
    the product of the pivot rows' scales.

    Rows are dicts of their nonzero entries, and a row is updated only when
    its pivot-column entry is nonzero.  Bareiss would multiply any other row
    by p_k / p_(k-1) at step k; those factors telescope, so the row instead
    keeps the pivot value ``stamp`` of its last update, and its true entries
    are  stored * prev / stamp  (an exact division, done when the row is next
    touched).  Degrees need no division,  deg(e) + deg(prev) - deg(stamp),
    and no scale changes a degree, so the pivot choice (least degree, first
    row on a tie) and with it the rank, the determinant and the pivot rows
    are those of the dense elimination, value for value.
    """
    if not M:
        return 0, LambdaPoly.const(1), []
    cols = len(M[0])
    prev: IntPoly = [1]
    A = []                                  # (entries, row scale, stamp)
    for row in M:
        layers, scale = integer_layers(row)
        A.append(({j: e for j, e in enumerate(layers) if e}, scale, prev))
    rows = len(A)
    pivot_rows: List[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        best = None
        shift = len(prev)
        for i in range(r, rows):
            entries, _, stamp = A[i]
            e = entries.get(c)
            if e is not None:
                d = len(e) + shift - len(stamp)
                if best is None or d < best:
                    pivot, best = i, d
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        top = _true_entries(A[r], prev)
        p = top.pop(c)
        for i in range(r + 1, rows):
            if c not in A[i][0]:
                continue
            row = _true_entries(A[i], prev)
            f = row.pop(c)
            new: Dict[int, IntPoly] = {}
            for j in row.keys() | top.keys():
                num = layers_mul_sub(p, row.get(j), f, top.get(j))
                if num:
                    new[j] = layers_exact_div(num, prev)
            A[i] = (new, A[i][1], p)
        prev = p
        pivot_rows.append(r)
        r += 1
    den = math.prod(scale for _, scale, _ in A[:r])
    return r, LambdaPoly._of_layers(prev, den), pivot_rows


def _true_entries(row: Tuple[Dict[int, IntPoly], int, IntPoly], prev: IntPoly) -> Dict[int, IntPoly]:
    """A lazily scaled row's entries at the current step, as a fresh dict."""
    entries, _, stamp = row
    if stamp is prev or stamp == prev:
        return dict(entries)
    return {j: layers_exact_div(layers_mul_sub(e, prev), stamp) for j, e in entries.items()}


def param_solve(M: PMatrix, extra_minor_budget: int = 64) -> ParamSolveResult:
    """Every rational parameter value with a nontrivial kernel, with bases.

    Method: fraction-free elimination gives the generic rank and a pivot
    determinant; rational-root extraction on that determinant gives the
    candidate values; an exact kernel at each candidate confirms or rejects
    it.  When the determinant keeps factors without rational roots, further
    maximal minors are combined by gcd to certify (when possible) that no
    parameter value at all makes those factors relevant.
    """
    result = ParamSolveResult()
    if not M or not M[0]:
        result.identically_singular = bool(M and not M[0]) or not M
        return result
    ncols = len(M[0])
    generic_rank, pivot_det, _ = _bareiss_rank(M)
    if generic_rank < ncols:
        result.identically_singular = True
        return result
    candidates = pivot_det.rational_roots()
    for lam in candidates:
        K = kernel_basis(evaluate_matrix(M, lam))
        if K:
            result.solutions.append((lam, K))
    result.solutions.sort(key=lambda t: t[0])
    residual = pivot_det.deflate_rational_roots(candidates)
    if residual.degree > 0:
        residual = _certify_minors(M, residual, extra_minor_budget)
        if residual.degree > 0:
            result.unresolved_factors.append(residual)
    return result


def _certify_minors(M: PMatrix, residual: LambdaPoly, budget: int) -> LambdaPoly:
    """Shrink a residual factor by gcd with other maximal minors.

    The kernel is nontrivial at a parameter value only if every maximal
    minor vanishes there, so a gcd reaching a constant certifies that the
    residual factor contributes no solutions.  At most ``budget`` minors are
    tried, singular ones included, so the work stays bounded however few of
    the row subsets are nonsingular.
    """
    ncols = len(M[0])
    combos = itertools.combinations(range(len(M)), ncols)
    for combo in itertools.islice(combos, budget):
        r, det, _ = _bareiss_rank([M[i] for i in combo])
        if r < ncols:
            continue
        residual = poly_gcd(residual, det)
        if residual.degree <= 0:
            return LambdaPoly.const(1)
    return residual

