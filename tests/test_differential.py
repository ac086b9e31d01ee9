"""Differential checks of the exact kernels against sympy (a test-only dependency).

Rational-root extraction and deflation are compared with sympy's roots over
the rationals and its polynomial division; ``rref`` and ``kernel_basis``
with ``sympy.Matrix.rref`` on random sparse rational matrices; the Bareiss
pivot determinant with ``Matrix.det`` and each ``param_solve`` solution with
``Matrix.nullspace`` on random parametric matrices.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2fmethod.linsolve import _bareiss_rank, evaluate_matrix, kernel_basis, param_solve, rank, rref
from g2fmethod.scalars import LAMBDA, LambdaPoly

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def to_sympy(p: LambdaPoly):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X, domain="QQ"
    )


def from_sympy(poly) -> LambdaPoly:
    return LambdaPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


linear_factors = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(1, 12)),   # (p, q): the factor qL - p
    min_size=1,
    max_size=4,
)
quadratics = st.one_of(
    st.none(),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda ab: not is_square(ab[0] ** 2 - 4 * ab[1])),
)


@given(
    factors=linear_factors,
    content=st.integers(1, 2 ** 64),
    denominator=st.integers(1, 50),
    quadratic=quadratics,
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rational_roots_and_deflation_match_sympy(factors, content, denominator, quadratic):
    p = LambdaPoly.const(Fraction(content, denominator))
    for num, q in factors:
        p = p * (q * LAMBDA - num)
    if quadratic is not None:
        a, b = quadratic
        p = p * (LAMBDA ** 2 + a * LAMBDA + b)
    ref = to_sympy(p)
    expected = sorted(Fraction(int(r.p), int(r.q)) for r in ref.ground_roots())
    roots = p.rational_roots()
    assert roots == expected
    assert roots == sorted({Fraction(num, q) for num, q in factors})

    linear_part = sympy.Poly(1, X, domain="QQ")
    for r, mult in ref.ground_roots().items():
        linear_part *= sympy.Poly(X - r, X, domain="QQ") ** mult
    quotient, remainder = sympy.div(ref, linear_part)
    assert remainder.is_zero
    assert p.deflate_rational_roots() == from_sympy(quotient)
    assert p.deflate_rational_roots(roots) == from_sympy(quotient)


def sparse_matrix(rng: random.Random, rows: int, cols: int, density: float):
    return [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def to_fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@pytest.mark.parametrize("seed", range(40))
def test_rref_and_kernel_match_sympy(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    m = sparse_matrix(rng, rows, cols, rng.choice((0.15, 0.3, 0.6)))
    if seed % 5 == 0 and rows > 1:
        # a dependent row: a combination of two others
        m[-1] = [a * 2 - b for a, b in zip(m[0], m[rows // 2])]
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
    ref_rref, ref_pivots = ref.rref()
    red, pivots = rref(m)
    assert pivots == list(ref_pivots)
    assert red == to_fractions(ref_rref)
    assert rank(m) == ref.rank()
    kernel = kernel_basis(m)
    assert kernel == [[Fraction(int(x.p), int(x.q)) for x in v] for v in ref.nullspace()]


def random_parametric(rng: random.Random, rows: int, cols: int, density: float):
    def entry():
        if rng.random() >= density:
            return LambdaPoly()
        return LambdaPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))])

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def sympy_matrix(m):
    return sympy.Matrix([[to_sympy(e).as_expr() if e else 0 for e in row] for row in m])


@pytest.mark.parametrize("seed", range(30))
def test_pivot_determinant_matches_sympy_det(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 6)
    m = random_parametric(rng, n, n, rng.choice((0.3, 0.6, 0.9)))
    det = sympy.Poly(sympy_matrix(m).det(method="berkowitz"), X, domain="QQ")
    r, pivot_det, _ = _bareiss_rank(m)
    if det.is_zero:
        assert r < n
        return
    assert r == n
    assert to_sympy(pivot_det) in (det, -det)


@pytest.mark.parametrize("seed", range(30))
def test_param_solve_solutions_have_sympy_nullspace(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 5)
    rows = n + rng.randint(0, 2)
    # M(L) = A + (L - r) B with A of rank < n, so L = r is a solution
    r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    left = sparse_matrix(rng, rows, n - 1, 0.7)
    right = sparse_matrix(rng, n - 1, n, 0.7)
    a = [[sum((x * right[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(n)] for row in left]
    b = sparse_matrix(rng, rows, n, rng.choice((0.3, 0.7)))
    m = [[LambdaPoly([x - r * y, y]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    res = param_solve(m)
    if res.identically_singular:
        assert sympy_matrix(m).rank() < n
        return
    assert r in res.lambdas
    for lam, basis in res.solutions:
        at = evaluate_matrix(m, lam)
        null = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in at]).nullspace()
        assert null
        assert len(null) == len(basis)
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in at)
    if rows == n:
        # every rational root of the determinant is a solution
        det = sympy.Poly(sympy_matrix(m).det(method="berkowitz"), X, domain="QQ")
        expected = sorted(Fraction(int(q.p), int(q.q)) for q in det.ground_roots())
        assert res.lambdas == expected
