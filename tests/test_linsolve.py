from fractions import Fraction

from g2fmethod.linsolve import (
    evaluate_matrix,
    kernel_basis,
    param_solve,
    rank,
    rref,
)
from g2fmethod.scalars import LAMBDA, LambdaPoly

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

