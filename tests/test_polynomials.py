import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2fmethod.polynomials import (
    XiPolynomial,
    pack_monomial,
    parse_xi_polynomial,
    term_sort_key,
    unpack_monomial,
)
from g2fmethod.scalars import LAMBDA, LambdaPoly

x1 = XiPolynomial.variable(1)
x2 = XiPolynomial.variable(2)
x3 = XiPolynomial.variable(3)
x4 = XiPolynomial.variable(4)
x5 = XiPolynomial.variable(5)


def test_additive_identity():
    p = x1 * x4 + x2 * x5
    assert p + XiPolynomial.zero() == p
    assert p - XiPolynomial.zero() == p


def test_monomial_product():
    assert x3 * x3 == XiPolynomial.monomial((0, 0, 2, 0, 0))


def test_quadratic_square_expansion():
    # (4(x1 x4 + x3... ) ...)^2 expanded by hand: six terms
    q = (x1 * x4 + x2 * x5) * 4 + x3 * x3
    sq = q * q
    expected = {
        (2, 0, 0, 2, 0): 16,
        (1, 1, 0, 1, 1): 32,
        (0, 2, 0, 0, 2): 16,
        (1, 0, 2, 1, 0): 8,
        (0, 1, 2, 0, 1): 8,
        (0, 0, 4, 0, 0): 1,
    }
    assert len(sq) == 6
    for mono, coeff in expected.items():
        assert sq.coefficient(mono) == Fraction(coeff)


def test_subtraction_cancels():
    p = x1 * x2 - x1 * x2
    assert p.is_zero()
    assert len(p) == 0


def test_no_zero_coefficients_stored():
    p = XiPolynomial({(1, 0, 0, 0, 0): LambdaPoly(), (0, 1, 0, 0, 0): LambdaPoly.const(2)})
    assert list(p.terms) == [(0, 1, 0, 0, 0)]


def test_parameter_coefficients():
    p = x1 * (2 * LAMBDA + 5)
    assert p.coefficient((1, 0, 0, 0, 0)) == 2 * LAMBDA + 5
    assert p.evaluate_lambda(Fraction(-5, 2)).is_zero()


def test_canonical_printing_graded_lex():
    p = x3 * x3 + x1 * x4 * 4
    assert str(p) == "4*x1*x4 + x3^2"
    q = x4 + x1 - x3 * x3
    assert str(q) == "-x3^2 + x1 + x4"


def test_parse_examples():
    assert parse_xi_polynomial("4*x1*x4 + x3^2") == x1 * x4 * 4 + x3 * x3
    assert parse_xi_polynomial("0").is_zero()
    assert parse_xi_polynomial("(2*L + 5)*x1 - 1/2*x3") == x1 * (2 * LAMBDA + 5) - x3 * Fraction(1, 2)


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        parse_xi_polynomial("x9")


@pytest.mark.parametrize("text", ["(L", "(2*L + 5*x1", "x1^", "L^", "x1^x2", "x3*x1^", "x1**2", "x1*", "()",
                                  "1/0", "1/0*x1", "x1 x2", "2 3", "- -x1", "x1 -", "x1*-x2", "(L)(L)",
                                  "(2*L*L)*x1", "(L L)*x1", "(1 2)*x1", "(*L)*x1", "(1/0*L)*x1"])
def test_parse_rejects_unconsumed_input(text):
    with pytest.raises(ValueError):
        parse_xi_polynomial(text)


@st.composite
def polynomials(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(5))
        coef = LambdaPoly(
            [draw(st.fractions(max_denominator=12)) for _ in range(draw(st.integers(1, 3)))]
        )
        if not coef.is_zero():
            terms[mono] = coef
    return XiPolynomial(terms)


@given(polynomials())
@settings(max_examples=60, derandomize=True)
def test_serialization_roundtrip(p):
    assert parse_xi_polynomial(str(p)) == p


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=30, derandomize=True)
def test_ring_axioms_sample(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


def repeated_product(p, n):
    r = XiPolynomial.constant(1)
    for _ in range(n):
        r = r * p
    return r


def test_power_edge_cases():
    zero = XiPolynomial.zero()
    assert zero ** 0 == XiPolynomial.constant(1)
    assert zero ** 3 == zero
    assert x1 ** 0 == XiPolynomial.constant(1)
    one_term = XiPolynomial.monomial((1, 0, 2, 0, 0), LAMBDA + 2)
    for n in range(6):
        assert one_term ** n == repeated_product(one_term, n)
    with pytest.raises(ValueError):
        x1 ** -1
    p = x1 * Fraction(2, 3) + x2 * LAMBDA
    assert p ** 0 == XiPolynomial.constant(1)
    assert p ** 1 == p
    with pytest.raises(ValueError):
        p ** -7


def test_power_with_parameter_coefficients():
    p = x1 * x4 * (LAMBDA * 2 + 1) + x3 * x3 * Fraction(-1, 3) + XiPolynomial.constant(LAMBDA)
    for n in range(7):
        assert p ** n == repeated_product(p, n), n


def test_power_matches_repeated_product_on_random_polynomials():
    rng = random.Random(2024)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(5))
            terms[mono] = LambdaPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                      for _ in range(rng.randint(1, 2))])
        p = XiPolynomial(terms)
        n = rng.randint(0, 6)
        assert p ** n == repeated_product(p, n), (p, n)


def test_power_of_the_laplace_dual_form():
    q = (x1 * x4 + x2 * x5) * 4 + x3 * x3
    assert q ** 12 == repeated_product(q, 12)


def test_packed_monomials_round_trip_and_sort_like_term_order():
    rng = random.Random(3)
    monos = [tuple(rng.randint(0, 9) for _ in range(5)) for _ in range(300)]
    for w in (4, 7):
        assert all(unpack_monomial(pack_monomial(m, w), w) == m for m in monos)
        assert sorted(monos, key=lambda m: pack_monomial(m, w)) == sorted(monos, key=term_sort_key)
        # an exponent change packs to the offset that moves the code
        m, delta = (3, 0, 2, 5, 1), (-1, 1, 0, -2, 1)
        moved = tuple(a + b for a, b in zip(m, delta))
        assert pack_monomial(m, w) + pack_monomial(delta, w) == pack_monomial(moved, w)


# -- the power on integer layers ---------------------------------------------


def test_power_on_integer_layers_matches_repeated_product():
    # denominators, negative coefficients and powers of the parameter up to L^3,
    # with large numerators, so the packed fields must be as wide as the bound
    rng = random.Random(909)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, 3) for _ in range(5))
            terms[mono] = LambdaPoly([Fraction(rng.choice((rng.randint(-9, 9), rng.randint(-2 ** 40, 2 ** 40))),
                                               rng.choice((1, 2, 3, 7, 2 ** 33)))
                                      for _ in range(rng.randint(1, 4))])
        p = XiPolynomial(terms)
        n = rng.randint(0, 7)
        assert p ** n == repeated_product(p, n), (p, n)


def test_power_with_cancelling_sums():
    # (x1 - x2)^n (x1 + x2)^n: collisions across the expansion's steps, and
    # layers that cancel to zero or to a lower degree in the parameter
    p = (x1 * x1 - x2 * x2) * (LAMBDA - 1) + x1 * x2 * (LAMBDA * LAMBDA * Fraction(1, 3) - LAMBDA)
    for n in range(6):
        assert p ** n == repeated_product(p, n), n
    q = (x1 + x2 * (-1)) * LAMBDA + x1 * (LAMBDA * (-1) + 1) + x2 * LAMBDA
    assert q ** 5 == repeated_product(q, 5) == x1 ** 5


def test_equal_power_coefficients_are_one_object():
    q = (x1 * x4 + x2 * x5) * 4 + x3 * x3
    for n in (1, 7, 20):
        r = q ** n
        by_value = {}
        for c in r.terms.values():
            assert by_value.setdefault(c.coeffs, c) is c
        # the mirror terms (i, k-i, ., i, k-i) and (k-i, i, ., k-i, i)
        for m, c in r.terms.items():
            assert r.terms[(m[1], m[0], m[2], m[4], m[3])] is c


def test_laplace_dual_power_is_the_binomial_sum():
    from math import comb

    from g2fmethod.solver import LAPLACE_DUAL, invariant_monomial_basis

    for N in range(41):
        expected = XiPolynomial.zero()
        for s, b in enumerate(invariant_monomial_basis(2 * N)):     # I1^s x3^(2N-2s)
            expected = expected + b * (4 ** s * comb(N, s))
        assert LAPLACE_DUAL ** N == expected, N


def test_packed_layers_round_trip():
    from g2fmethod.scalars import pack_layers, unpack_layers

    rng = random.Random(17)
    for _ in range(200):
        layers = [rng.randint(-2 ** 30, 2 ** 30) for _ in range(rng.randint(0, 5))]
        while layers and not layers[-1]:
            layers.pop()
        assert unpack_layers(pack_layers(layers, 32), 32) == layers
    v = 12345678901234567890
    assert pack_layers([v], 80) == v and unpack_layers(v, 80)[0] is v   # a constant unpacks to itself
