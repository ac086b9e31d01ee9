from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2fmethod.operators import (
    DiffOperator,
    op_apply,
    op_commutator,
    op_compose,
    parse_operator,
)
from g2fmethod.polynomials import XiPolynomial
from g2fmethod.scalars import LAMBDA, LambdaPoly

d1 = DiffOperator.derivative(1)
x1 = DiffOperator.multiplication(1)


def test_derivative_rule():
    p = XiPolynomial.monomial((2, 0, 0, 0, 0))
    assert op_apply(d1, p) == XiPolynomial.monomial((1, 0, 0, 0, 0), 2)


def test_heisenberg_relation():
    prod = op_compose(d1, x1)
    expected = DiffOperator.term((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)) + DiffOperator.constant(1)
    assert prod == expected


def test_disjoint_indices_commute():
    x4 = DiffOperator.multiplication(4)
    d2 = DiffOperator.derivative(2)
    assert op_compose(x4, d2) == DiffOperator.term((0, 0, 0, 1, 0), (0, 1, 0, 0, 0))
    assert op_commutator(x4, d2).is_zero()


def test_zero_operator_annihilates():
    p = XiPolynomial.monomial((1, 2, 3, 0, 1), Fraction(7, 3))
    assert op_apply(DiffOperator.zero(), p).is_zero()


def test_normal_order_is_normal_form():
    # same operator assembled two ways has one representation
    a = op_compose(d1, op_compose(x1, d1))
    b = op_compose(op_compose(d1, x1), d1)
    assert a == b
    assert a.terms == b.terms


def test_compose_higher_order_contractions():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    d2 = op_compose(d1, d1)
    xsq = op_compose(x1, x1)
    prod = op_compose(d2, xsq)
    expected = (
        DiffOperator.term((2, 0, 0, 0, 0), (2, 0, 0, 0, 0))
        + DiffOperator.term((1, 0, 0, 0, 0), (1, 0, 0, 0, 0), 4)
        + DiffOperator.constant(2)
    )
    assert prod == expected


def test_parameter_coefficients_compose():
    lam_d1 = d1 * LAMBDA
    assert op_apply(lam_d1, XiPolynomial.variable(1)) == XiPolynomial.constant(LAMBDA)


def test_operator_grammar_roundtrip():
    s = "-x1*d1^2 - x3*d2 + (L)*d1 + x4*d3^2 + 2*x5*d3"
    op = parse_operator(s)
    assert parse_operator(str(op)) == op
    assert op.coefficient((0, 0, 0, 0, 1), (0, 0, 1, 0, 0)) == 2


def test_operator_grammar_rejects_dangling_power():
    for text in ("d1^", "x4*d3^ + d1", "(L*d1"):
        with pytest.raises(ValueError):
            parse_operator(text)


@st.composite
def operators(draw, max_exp=2, max_terms=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        xm = tuple(draw(st.integers(0, max_exp)) for _ in range(5))
        dm = tuple(draw(st.integers(0, max_exp)) for _ in range(5))
        c = draw(st.integers(-4, 4))
        if c:
            terms[(xm, dm)] = LambdaPoly.const(c)
    return DiffOperator(terms)


@st.composite
def monomials_up_to_degree_8(draw):
    total = draw(st.integers(0, 8))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=4, max_size=4)))
    parts = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], cuts[3] - cuts[2], total - cuts[3]]
    return tuple(parts)


@given(operators(), operators(), monomials_up_to_degree_8())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_compose_matches_sequential_application(a, b, mono):
    p = XiPolynomial.monomial(mono)
    assert op_apply(op_compose(a, b), p) == op_apply(a, op_apply(b, p))


@given(operators(max_exp=1), operators(max_exp=1), operators(max_exp=1))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_compose_associative(a, b, c):
    assert op_compose(op_compose(a, b), c) == op_compose(a, op_compose(b, c))
