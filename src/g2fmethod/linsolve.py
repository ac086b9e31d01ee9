"""Exact linear algebra: one fraction-free eliminator, and Bareiss as the ring case.

* ``SparseSpan`` is the one eliminator over the rationals: sparse
  Gauss-Jordan elimination that takes vectors one at a time and keeps its
  rows fully reduced.  It is fraction-free: each vector is scaled once to
  integer entries, and every reduction is  row = p*row - f*v  on Python
  ``int``s, with each row kept primitive.  ``Fraction``s appear only where a
  result is read: ``rref``, ``rank`` and ``kernel_basis`` divide each row by
  its pivot entry, and ``express`` gives rational coordinates.  The bracket
  tables express commutators in it, the embedding closure grows in it, the
  parabolic inclusions test containment in it, and the PBW oracle's integer
  rows go straight into it.
* Over the polynomial ring in the formal parameter, fraction-free (Bareiss)
  elimination locates every rational parameter value at which a matrix
  drops rank.  It runs on integer layers: each row is scaled once to
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
from itertools import compress, repeat
from operator import mul
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .scalars import IntPoly, LambdaPoly, integer_layers, layers_exact_div, layers_mul_sub, poly_gcd

Row = List[Fraction]
Matrix = List[Row]


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------


def _sparse_rref(matrix: Sequence[Sequence]) -> Tuple[List[Dict[int, int]], List[int]]:
    """Reduced row echelon form as primitive integer rows, sorted by pivot:
    the rows of a ``SparseSpan`` of the matrix rows.  Entries may be ``int``
    or ``Fraction``."""
    span = SparseSpan()
    cols = len(matrix[0]) if matrix else 0
    for row in matrix:
        if span.dimension == cols:
            break                       # every further row is inside
        span.add(dict(enumerate(row)))
    pivots = sorted(span._rows)
    return [span._rows[pc] for pc in pivots], pivots


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
    dense = [[Fraction(row.get(j, 0), row[pc]) for j in range(cols)] for row, pc in zip(rows, pivots)]
    dense += [[Fraction(0)] * cols for _ in range(len(matrix) - len(rows))]
    return dense, pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_sparse_rref(matrix)[1])


def kernel_basis(matrix: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel, one vector per free column.

    Each vector has entry 1 at its free column, making the basis canonical.
    Entries of ``matrix`` may be ``int`` or ``Fraction``; the basis is
    ``Fraction``.
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
                v[pc] = Fraction(-x, row[pc])
        basis.append(v)
    return basis


def _integral(vec: Dict) -> Tuple[Dict, int]:
    """The nonzero entries of ``vec`` times the lcm of their denominators,
    as ``int``s, and that lcm."""
    v = dict(compress(vec.items(), vec.values()))
    if all(map(isinstance, v.values(), repeat(int))):
        return v, 1
    scale = math.lcm(*(x.denominator for x in v.values()))
    return {k: x.numerator * (scale // x.denominator) for k, x in v.items()}, scale


def _combine(a: int, y: Dict, b: int, x: Dict) -> Dict:
    """a*y - b*x as a new sparse row, entries that cancel dropped."""
    out = dict(zip(y, map(mul, y.values(), repeat(a)))) if a != 1 else dict(y)
    get = out.get
    for k, v in x.items():
        s = get(k, 0) - b * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class SparseSpan:
    """A subspace built one vector at a time by fraction-free sparse
    Gauss-Jordan elimination.

    Vectors are dicts from comparable keys (column indices, matrix positions,
    basis positions) to ``int`` or ``Fraction`` values.  An added vector
    drops its zero entries and is scaled once by the lcm of its
    denominators; the span keeps only integer rows.  The vector is reduced
    against the rows kept so far, at each of their pivots it meets, by
    v = p*v - f*row  (p the row's pivot entry and f the vector's entry
    there, both divided by their gcd).  When something survives, it is made
    primitive (its content divided out) with a positive entry at its least
    key, its pivot, and that key is cleared from the earlier rows the same
    way, each made primitive again.  The rows stay fully reduced (each is 0
    at every other row's pivot), so a vector's coordinate along a row is its
    entry at that row's pivot over the row's, and the rows sorted by pivot,
    each divided by its pivot entry (``rows``), are the unique reduced row
    echelon form.

    A vector added with a label also records the combination of labelled
    vectors each row stands for, as ``Fraction``s that follow the same row
    operations, so ``express`` can give coordinates in that basis; an
    unlabelled vector does no such work.  A span's vectors are either all
    labelled or all not.
    """

    def __init__(self, basis: Optional[Dict[Hashable, Dict]] = None):
        self._rows: Dict = {}       # pivot -> primitive integer row, positive at its pivot
        self.combos: Dict = {}      # pivot -> the row as a combination of labels
        self.labels: List = []
        for label, vec in (basis or {}).items():
            if not self.add(vec, label):
                raise ValueError(f"basis element {label} is dependent")

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Dict:
        """pivot -> the row divided by its pivot entry: 1 there, 0 at every
        other pivot."""
        return {pc: {k: Fraction(x, row[pc]) for k, x in row.items()} for pc, row in self._rows.items()}

    def add(self, vec: Dict, label: Optional[Hashable] = None) -> bool:
        """Extend the span by ``vec``; False, and no change, when it is inside."""
        v, scale = _integral(vec)
        combo = None if label is None else {label: Fraction(scale)}
        v, combo = self._reduce(v, combo)
        if not v:
            return False
        pc = min(v)
        g = math.gcd(*v.values())
        if v[pc] < 0:
            g = -g
        if g != 1:
            v = {k: x // g for k, x in v.items()}
            if combo is not None:
                combo = {k: x / g for k, x in combo.items()}
        p = v[pc]
        rows = self._rows
        for q, row in rows.items():
            f = row.get(pc)
            if f:
                h = math.gcd(p, f)
                a, b = p // h, f // h
                row = _combine(a, row, b, v)
                h = math.gcd(*row.values())
                rows[q] = {k: x // h for k, x in row.items()} if h != 1 else row
                if combo is not None:
                    c = _combine(a, self.combos[q], b, combo)
                    self.combos[q] = {k: x / h for k, x in c.items()} if h != 1 else c
        rows[pc] = v
        if combo is not None:
            self.combos[pc] = combo
            self.labels.append(label)
        return True

    def _reduce(self, v: Dict, combo: Optional[Dict] = None) -> Tuple[Dict, Optional[Dict]]:
        """An integer vector reduced against the rows: at each row pivot it
        meets, v = p*v - f*row; with ``combo``, the same operations on it."""
        rows = self._rows
        for q in v.keys() & rows.keys():
            row = rows[q]
            p, f = row[q], v[q]
            h = math.gcd(p, f)
            v = _combine(p // h, v, f // h, row)
            if combo is not None:
                combo = _combine(p // h, combo, f // h, self.combos[q])
        return v, combo

    def contains(self, vec: Dict) -> bool:
        return not self._reduce(_integral(vec)[0])[0]

    def express(self, vec: Dict) -> Optional[Dict]:
        """Coordinates of ``vec`` in the labelled basis, in label order, or
        None outside the span."""
        if not self.contains(vec):
            return None
        coords: Dict = {}
        for q, x in vec.items():
            if x and q in self.combos:
                axpy(coords, Fraction(x, self._rows[q][q]), self.combos[q])
        return {l: coords[l] for l in self.labels if l in coords}


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


# the most further maximal minors a residual factor is tested against
MINOR_BUDGET = 64


def param_solve(M: PMatrix) -> ParamSolveResult:
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
        residual = _certify_minors(M, residual, MINOR_BUDGET)
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

