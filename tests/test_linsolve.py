import math
import random
from fractions import Fraction

import pytest

from g2fmethod import linsolve
from g2fmethod.linsolve import (
    _bareiss_rank,
    evaluate_matrix,
    kernel_basis,
    param_solve,
    rank,
    rref,
)
from g2fmethod.scalars import LAMBDA, LambdaPoly
from g2fmethod.solver import _collect_system, solve_even

F = Fraction


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_kernel_of_rank_deficient():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum(a * b for a, b in zip(row, v)) == 0 for row in m
        )


def test_param_solve_one_by_one():
    m = [[LAMBDA + F(3, 2)]]
    res = param_solve(m)
    assert not res.identically_singular
    assert res.lambdas == [F(-3, 2)]
    lam, kernel = res.solutions[0]
    assert kernel == [[F(1)]]


def test_param_solve_identity_has_no_solutions():
    one = LambdaPoly.const(1)
    zero = LambdaPoly()
    m = [[one, zero], [zero, one]]
    res = param_solve(m)
    assert res.solutions == []
    assert not res.identically_singular
    assert not res.unresolved_factors


def test_param_solve_small_recursion_system():
    # coefficient system of the two-term invariant combination in degree 2:
    # rows (coefficients of the two independent expressions) are
    # [2, L+1] and [4, -1]; singular exactly at -3/2 with kernel (1, 4)
    m = [
        [LambdaPoly.const(2), LAMBDA + 1],
        [LambdaPoly.const(4), LambdaPoly.const(-1)],
    ]
    res = param_solve(m)
    assert res.lambdas == [F(-3, 2)]
    lam, kernel = res.solutions[0]
    assert len(kernel) == 1
    v = kernel[0]
    assert v[1] / v[0] == 4


def test_param_solve_identically_singular():
    m = [[LAMBDA, LAMBDA]]
    res = param_solve(m)
    assert res.identically_singular


def test_param_solve_agrees_with_dense_substitution():
    m = [
        [LAMBDA - 1, LambdaPoly.const(2), LambdaPoly.const(0)],
        [LambdaPoly.const(0), LAMBDA + 2, LambdaPoly.const(1)],
        [LambdaPoly.const(1), LambdaPoly.const(0), LAMBDA],
    ]
    res = param_solve(m)
    for lam, kernel in res.solutions:
        dense = kernel_basis(evaluate_matrix(m, lam))
        assert len(dense) == len(kernel)
        for v in kernel:
            for row in evaluate_matrix(m, lam):
                assert sum(a * b for a, b in zip(row, v)) == 0
    # every rational point off the solution list is nonsingular
    for probe in (F(0), F(1), F(-1), F(5, 3)):
        if probe in res.lambdas:
            continue
        assert not kernel_basis(evaluate_matrix(m, probe)) or rank(
            evaluate_matrix(m, probe)
        ) == 3


def test_param_solve_irrational_roots_certified():
    # determinant lam^2 - 2 has no rational roots; a second minor with a
    # constant determinant certifies emptiness
    m = [
        [LAMBDA, LambdaPoly.const(2)],
        [LambdaPoly.const(1), LAMBDA],
        [LambdaPoly.const(1), LambdaPoly.const(0)],
        [LambdaPoly.const(0), LambdaPoly.const(1)],
    ]
    res = param_solve(m)
    assert res.solutions == []
    assert not res.unresolved_factors



def dense_bareiss(M):
    """Textbook fraction-free elimination updating every cell: the reference."""
    A = [list(row) for row in M]
    if not A:
        return 0, LambdaPoly.const(1), []
    rows, cols = len(A), len(A[0])
    prev = LambdaPoly.const(1)
    pivot_rows = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        best = None
        for i in range(r, rows):
            e = A[i][c]
            if not e.is_zero():
                if best is None or e.degree < best:
                    pivot, best = i, e.degree
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = A[r][c] * A[i][j] - A[i][c] * A[r][j]
                A[i][j], rem = num.divmod(prev)
                assert rem.is_zero()
            A[i][c] = LambdaPoly()
        prev = A[r][c]
        pivot_rows.append(r)
        r += 1
    return r, prev, pivot_rows


def random_parametric(rng: random.Random, rows: int, cols: int, density: float):
    """Sparse matrix of parameter polynomials of degree <= 2, small rational coefficients."""
    def entry():
        if rng.random() >= density:
            return LambdaPoly()
        return LambdaPoly([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])

    return [[entry() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(60))
def test_bareiss_matches_dense_reference_on_random_matrices(seed):
    rng = random.Random(seed)
    m = random_parametric(rng, rng.randint(1, 9), rng.randint(1, 7), rng.choice((0.2, 0.4, 0.7)))
    if seed % 4 == 0 and len(m) > 2:
        # a dependent row: rank drops and later pivots meet lazily scaled rows
        m[-1] = [a * (LAMBDA + 1) - b for a, b in zip(m[0], m[1])]
    assert _bareiss_rank(m) == dense_bareiss(m)


def test_bareiss_matches_dense_reference_on_solver_systems(ctx):
    for d in range(1, 22):
        matrix, _ = _collect_system(ctx, d)
        assert _bareiss_rank(matrix) == dense_bareiss(matrix)


def test_certify_minors_counts_every_minor_tried(ctx, monkeypatch):
    # with no roots found, the whole pivot determinant is a residual factor
    # and most maximal minors of the even system are singular
    budget = 64
    calls = []
    real = linsolve._bareiss_rank

    def counted(M):
        calls.append(len(M))
        if len(calls) > budget + 1:
            raise AssertionError("more eliminations than the minor budget allows")
        return real(M)

    monkeypatch.setattr(LambdaPoly, "rational_roots", lambda self: [])
    monkeypatch.setattr(linsolve, "_bareiss_rank", counted)
    assert solve_even(ctx, 8, verify=False) is None
    assert len(calls) <= budget + 1


# -- integer layers ----------------------------------------------------------


def scaled_parametric(rng: random.Random, rows: int, cols: int, density: float):
    """Sparse rows of parameter polynomials of degree <= 2 whose coefficients
    share one denominator per row, up to 2^64, so every row scale differs."""
    def row():
        q = rng.choice((1, 3, 7, 2 ** 64, 2 ** 61 - 1, rng.randint(2, 2 ** 64)))
        return [LambdaPoly([F(rng.randint(-9, 9), q) for _ in range(rng.randint(1, 3))])
                if rng.random() < density else LambdaPoly() for _ in range(cols)]

    return [row() for _ in range(rows)]


@pytest.mark.parametrize("seed", range(60))
def test_bareiss_on_integer_layers_matches_dense_reference_with_row_scales(seed):
    rng = random.Random(1000 + seed)
    m = scaled_parametric(rng, rng.randint(1, 9), rng.randint(1, 7), rng.choice((0.3, 0.6, 0.9)))
    kind = seed % 3
    if kind == 1 and len(m) > 2:
        # rank-deficient: the last row is a combination of the first two over Q[L]
        m[-1] = [a * (LAMBDA * F(1, 2 ** 64) + 1) - b * F(3, 5) for a, b in zip(m[0], m[1])]
    elif kind == 2:
        # swap-heavy: leading rows hold no entry, or one of high degree, in the
        # early columns, so most pivots come from rows further down
        for i, row in enumerate(m[: len(m) // 2]):
            for j in range(min(i + 1, len(row))):
                row[j] = LambdaPoly() if (i + j) % 2 else row[j] * LAMBDA ** 3
    assert _bareiss_rank(m) == dense_bareiss(m)


def test_bareiss_keeps_a_rank_deficient_system_with_distinct_scales():
    rows = [
        [LAMBDA * F(1, 3) + 1, LambdaPoly.const(F(2, 7)), LambdaPoly()],
        [LambdaPoly.const(F(5, 2 ** 64)), LAMBDA * F(1, 2 ** 64), LambdaPoly.const(1)],
    ]
    rows.append([a * F(7, 11) - b * (LAMBDA * 3) for a, b in zip(rows[0], rows[1])])
    rows.append([LambdaPoly()] * 3)
    r, det, pivots = _bareiss_rank(rows)
    assert (r, det, pivots) == dense_bareiss(rows)
    assert r == 2


def test_integer_layer_division_is_exact_or_raises():
    from g2fmethod.scalars import layers_exact_div, layers_mul_sub

    a, b = [3, -1, 4], [-5, 0, 2, 7]
    assert layers_exact_div(layers_mul_sub(a, b), b) == a
    assert layers_exact_div(layers_mul_sub(a, b), a) == b
    assert layers_exact_div([6, -4, 2], [2]) == [3, -2, 1]
    assert layers_exact_div([], [1, 1]) == []
    for num, den in (
        ([1, 2], [2]),            # a rational quotient 1/2 + L is not integral
        ([2, 2], [4, 4]),         # (2L + 2) / (4L + 4) = 1/2
        ([1, 0, 1], [1, 1]),      # L^2 + 1 = (L - 1)(L + 1) + 2
        ([1, 3], [1, 0, 1]),      # divisor of higher degree, nonzero dividend
        ([1, 1, 1], [0, 2]),      # the leading layer divides, a lower one does not
    ):
        with pytest.raises(ArithmeticError):
            layers_exact_div(num, den)


# ---------------------------------------------------------------------------
# the sparse field eliminator against a dense textbook Gauss-Jordan
# ---------------------------------------------------------------------------


def textbook_rref(matrix):
    """Dense Gauss-Jordan: first nonzero row at or below as pivot, swap,
    normalize, clear the column in every other row; zero rows end last."""
    a = [list(row) for row in matrix]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def textbook_kernel(matrix):
    red, pivots = textbook_rref(matrix)
    cols = len(matrix[0])
    basis = []
    for fc in (j for j in range(cols) if j not in pivots):
        v = [F(0)] * cols
        v[fc] = F(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def sparse_rational_matrix(rng):
    """Sparse rows with small fractions, plus zero, repeated and proportional rows."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.15, 0.3, 0.6))
    m = [[F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else F(0)
          for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "repeat", "proportional"))
        src = rng.choice(m)
        if kind == "zero":
            new = [F(0)] * cols
        elif kind == "repeat":
            new = list(src)
        else:
            c = F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            new = [c * x for x in src]
        m.insert(rng.randint(0, len(m)), new)
    return m


@pytest.mark.parametrize("seed", range(40))
def test_sparse_eliminator_matches_textbook_gauss_jordan(seed):
    rng = random.Random(7000 + seed)
    for _ in range(5):
        m = sparse_rational_matrix(rng)
        ref, ref_pivots = textbook_rref(m)
        red, pivots = rref(m)
        assert (red, pivots) == (ref, ref_pivots)
        assert rank(m) == len(ref_pivots)
        assert kernel_basis(m) == textbook_kernel(m)


def independent_tuple_keyed_basis(rng, labels):
    """Sparse vectors keyed by (row, column) pairs, independent by the
    textbook rank of their flattened forms."""
    keys = [(i, j) for i in range(4) for j in range(4)]
    while True:
        basis = {}
        for label in labels:
            support = rng.sample(keys, rng.randint(1, 4))
            basis[label] = {k: F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 3)) for k in support}
        flat = [[vec.get(k, F(0)) for k in keys] for vec in basis.values()]
        if len(textbook_rref(flat)[1]) == len(labels):
            return basis, keys


@pytest.mark.parametrize("seed", range(20))
def test_span_expresses_exact_coordinates_in_label_order(seed):
    rng = random.Random(8000 + seed)
    labels = rng.sample([-3, -2, -1, 1, 2, 3, "h1", "h2"], rng.randint(1, 7))
    basis, keys = independent_tuple_keyed_basis(rng, labels)
    span = linsolve.SparseSpan(basis)
    assert span.labels == labels and span.dimension == len(labels)
    for _ in range(10):
        coeffs = {l: F(rng.randint(-4, 4), rng.randint(1, 5)) for l in labels}
        vec = {}
        for l, c in coeffs.items():
            linsolve.axpy(vec, c, basis[l])
        assert span.contains(vec)
        expressed = span.express(vec)
        assert expressed == {l: c for l, c in coeffs.items() if c}
        assert list(expressed) == [l for l in labels if coeffs[l]]
    flat = [[vec.get(k, F(0)) for k in keys] for vec in basis.values()]
    for k in keys:
        outside = {k: F(1)}
        inside = len(textbook_rref(flat + [[outside.get(q, F(0)) for q in keys]])[1]) == len(labels)
        assert span.contains(outside) == inside
        assert (span.express(outside) is None) == (not inside)


def test_span_rejects_a_dependent_basis():
    basis = {"a": {(0, 1): F(1)}, "b": {(1, 0): F(2)}, "c": {(0, 1): F(3), (1, 0): F(-1)}}
    with pytest.raises(ValueError, match="^basis element c is dependent$"):
        linsolve.SparseSpan(basis)


def test_span_add_reports_growth_and_leaves_its_input_alone():
    span = linsolve.SparseSpan()
    v = {2: F(3), 5: F(1)}
    w = {2: F(1), 5: F(1, 3)}
    assert span.add(v) and not span.add(w) and not span.add({})
    assert v == {2: F(3), 5: F(1)} and w == {2: F(1), 5: F(1, 3)}
    assert span.add({5: F(2), 7: F(1)})
    assert span.rows == {2: {2: F(1), 7: F(-1, 6)}, 5: {5: F(1), 7: F(1, 2)}}


def test_span_drops_explicit_zero_entries():
    span = linsolve.SparseSpan()
    assert span.add({0: F(0), 1: F(1)})
    assert span.rows == {1: {1: F(1)}}
    span = linsolve.SparseSpan({"a": {1: 1}})
    assert span.contains({0: F(0), 1: F(2)})
    assert span.express({0: F(0), 1: F(2)}) == {"a": F(2)}


# ---------------------------------------------------------------------------
# the integer route: int and mixed int/Fraction rows
# ---------------------------------------------------------------------------


def integer_route_matrix(rng):
    """Rows of ints, of fractions with numerators and denominators up to
    2^64, and of both, plus integer multiples of earlier rows."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    m = []
    for _ in range(rows):
        kind = rng.choice(("int", "big", "mixed"))
        row = []
        for _ in range(cols):
            if rng.random() < 0.4:
                row.append(0)
            elif kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                row.append(rng.randint(-9, 9))
            else:
                row.append(F(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 2 ** 64)))
        m.append(row)
    for _ in range(rng.randint(0, 3)):
        k = rng.choice((-3, 2, 7, 2 ** 64))
        m.insert(rng.randint(0, len(m)), [k * x for x in rng.choice(m)])
    return m


@pytest.mark.parametrize("seed", range(30))
def test_integer_and_mixed_rows_match_textbook_gauss_jordan(seed):
    rng = random.Random(9000 + seed)
    for _ in range(5):
        m = integer_route_matrix(rng)
        exact = [[F(x) for x in row] for row in m]
        ref, ref_pivots = textbook_rref(exact)
        red, pivots = rref(m)
        assert (red, pivots) == (ref, ref_pivots)
        assert rank(m) == len(ref_pivots)
        kernel = kernel_basis(m)
        assert kernel == textbook_kernel(exact)
        assert all(type(x) is F for row in red + kernel for x in row)


@pytest.mark.parametrize("seed", range(10))
def test_span_keeps_primitive_integer_rows_positive_at_their_pivots(seed):
    rng = random.Random(9500 + seed)
    span = linsolve.SparseSpan()
    for row in integer_route_matrix(rng):
        span.add(dict(enumerate(row)))
    for pc, row in span._rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == pc and row[pc] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(q in row for q in span._rows if q != pc)
