import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2fmethod.scalars import (
    LAMBDA,
    LambdaPoly,
    parse_lambda_poly,
    poly_gcd,
    rational_from_string,
    rational_to_string,
)


def test_constants_embed_losslessly():
    p = LambdaPoly.const(Fraction(3, 7))
    assert p.is_constant()
    assert p.constant_value() == Fraction(3, 7)
    assert p == Fraction(3, 7)


def test_leading_coefficient_nonzero_normal_form():
    p = LambdaPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.leading() == 2
    assert LambdaPoly([0, 0]).is_zero()


def test_arithmetic():
    p = 2 * LAMBDA + 5
    q = LAMBDA - Fraction(1, 2)
    assert (p * q).coeffs == (Fraction(-5, 2), 4, 2)
    assert (p - p).is_zero()
    assert (LAMBDA ** 3).degree == 3


def test_divmod_exact():
    p = (LAMBDA + 2) * (3 * LAMBDA - 1)
    q, r = p.divmod(LAMBDA + 2)
    assert r.is_zero()
    assert q == 3 * LAMBDA - 1
    _, r = (p + 1).divmod(LAMBDA + 2)
    assert r == 1


def test_evaluation_horner():
    p = LAMBDA ** 2 - Fraction(1, 4)
    assert p(Fraction(1, 2)) == 0
    assert p(2) == Fraction(15, 4)


def test_rational_roots_linear():
    assert (2 * LAMBDA + 5).rational_roots() == [Fraction(-5, 2)]


def test_rational_roots_quadratic():
    p = LAMBDA ** 2 - Fraction(1, 4)
    assert p.rational_roots() == [Fraction(-1, 2), Fraction(1, 2)]


def test_rational_roots_shifted_family():
    # -5 + 2N - 2*lam at N = 1 vanishes at -3/2
    p = -3 - 2 * LAMBDA
    assert p.rational_roots() == [Fraction(-3, 2)]


def test_rational_roots_rejects_zero():
    with pytest.raises(ValueError):
        LambdaPoly().rational_roots()


def test_rational_roots_with_zero_root():
    p = LAMBDA * (LAMBDA - 3)
    assert p.rational_roots() == [0, 3]
    assert p.deflate_rational_roots().is_constant()


def test_gcd_monic():
    a = (LAMBDA - 1) * (LAMBDA + 2) * 4
    b = (LAMBDA - 1) * (LAMBDA - 5) * 6
    assert poly_gcd(a, b) == LAMBDA - 1


def test_string_forms():
    assert str(2 * LAMBDA + 5) == "2*L + 5"
    assert str(LAMBDA ** 2 - Fraction(1, 2)) == "L^2 - 1/2"
    assert str(LambdaPoly()) == "0"
    assert str(-LAMBDA) == "-L"


@given(
    st.lists(st.fractions(max_denominator=20), min_size=0, max_size=5),
)
@settings(max_examples=60, derandomize=True)
def test_parse_roundtrip(coeffs):
    p = LambdaPoly(coeffs)
    assert parse_lambda_poly(str(p)) == p


@pytest.mark.parametrize("text", ["2*L*L", "L L", "1 2", "*L", "1/0", "1/0*L", "", "2L", "2*", "L -",
                                  "- -L", "L^", "L^2^2", "x", "(L)"])
def test_parse_lambda_poly_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse_lambda_poly(text)


def test_rational_strings():
    assert rational_from_string("-3/2") == Fraction(-3, 2)
    assert rational_to_string(Fraction(8, 4)) == "2"
    with pytest.raises(ValueError):
        rational_from_string("1.5")


def test_arithmetic_keeps_the_normal_form():
    # results built without re-converting their coefficients still hold only
    # Fractions, with no trailing zero, and equal the textbook operations
    rng = random.Random(11)

    def rand_poly():
        return LambdaPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))])

    for _ in range(300):
        a, b = rand_poly(), rand_poly()
        k = rng.choice([0, 2, -1, Fraction(-2, 3)])
        n = max(len(a.coeffs), len(b.coeffs))

        def pad(p):
            return list(p.coeffs) + [Fraction(0)] * (n - len(p.coeffs))

        conv = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                conv[i + j] += x * y
        for got, want in ((a + b, [x + y for x, y in zip(pad(a), pad(b))]),
                          (a - b, [x - y for x, y in zip(pad(a), pad(b))]),
                          (-a, [-x for x in a.coeffs]),
                          (a * b, conv),
                          (a * k, [x * k for x in a.coeffs]),
                          (k * a, [x * k for x in a.coeffs])):
            assert got == LambdaPoly(want)
            assert all(type(c) is Fraction for c in got.coeffs)
            assert not got.coeffs or got.coeffs[-1] != 0
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert a(x) == sum((c * x ** i for i, c in enumerate(a.coeffs)), Fraction(0))
        assert type(a(x)) is Fraction
