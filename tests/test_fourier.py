import math
from fractions import Fraction

import pytest

from g2fmethod.fourier import (
    GR_WEIGHTS,
    extract_diffop,
    fourier_act,
    sl2_triple_ops,
    verma_from_xi,
    xi_from_verma,
)
from g2fmethod.operators import DiffOperator, op_apply, op_commutator, parse_operator
from g2fmethod.polynomials import XiPolynomial, parse_xi_polynomial
from g2fmethod.scalars import LAMBDA
from g2fmethod.verma import VermaModule, VermaVector

F = Fraction

NINE_TERM_OPERATOR = (
    "-x1*d1^2 - x3*d2 + (L)*d1 + x4*d3^2 + 2*x5*d3 - x5*d1*d5 "
    "+ x4*d2*d5 - x2*d1*d2 - x3*d1*d3"
)


@pytest.fixture(scope="module")
def module(so7):
    return VermaModule(so7)


def interpolated_diffop(module, x, max_order):
    """Reference extractor that never reads a move as an operator term: the
    coefficients are interpolated from the transported action, monomial by
    monomial, and checked against it on five degrees beyond.

    Applying the operator to the monomial x^beta isolates beta's
    coefficients once those of lower multi-indices are known:
    residual = beta! * sum_alpha c[alpha, beta] x^alpha.
    """
    monos = [m for d in range(max_order + 1) for m in module.monomials_of_degree(d)]
    monos.sort(key=lambda m: (sum(m), m))
    coeffs = {}
    for beta in monos:
        mono = XiPolynomial.monomial(beta)
        residual = fourier_act(module, x, mono) - op_apply(DiffOperator(coeffs), mono)
        scale = F(1, math.prod(math.factorial(e) for e in beta))
        for alpha, c in residual.terms.items():
            coeffs[(alpha, beta)] = c * scale
    D = DiffOperator(coeffs)
    assert D.order() <= max_order
    for d in range(max_order + 1, max_order + 6):
        for m in module.monomials_of_degree(d):
            mono = XiPolynomial.monomial(m)
            assert op_apply(D, mono) == fourier_act(module, x, mono), (x, m)
    return D


def grading_element(emb):
    g = {k: 2 * v for k, v in emb.gen("h1").items()}
    for k, v in emb.gen("h2").items():
        g[k] = g.get(k, F(0)) + v
    return g


def test_read_off_operator_equals_the_interpolated_one(module, so7, emb):
    elements = [{l: F(1)} for l in so7.labels]
    elements += [emb.gen(l) for l in emb.g2.labels]
    elements.append({k: F(v, 3) for k, v in emb.gen("h2").items()})
    elements.append(grading_element(emb))
    for x in elements:
        assert extract_diffop(module, x, 2) == interpolated_diffop(module, x, 2), x


def test_fourier_act_examples(module, emb):
    x3 = XiPolynomial.variable(3)
    assert fourier_act(module, emb.gen(1), x3) == XiPolynomial.variable(5) * 2
    I1 = parse_xi_polynomial("x1*x4 + x2*x5")
    assert fourier_act(module, {"h2": F(1)}, I1).is_zero()
    assert fourier_act(module, emb.gen(1), XiPolynomial.variable(1)) == XiPolynomial.constant(LAMBDA)


def test_extract_nine_term_operator(ctx):
    P = ctx.lowering_op
    assert P == parse_operator(NINE_TERM_OPERATOR)
    assert len(P) == 9


def test_operator_is_grading_homogeneous(ctx):
    for (xm, dm) in ctx.lowering_op.terms:
        gr = sum(e * w for e, w in zip(xm, GR_WEIGHTS)) - sum(
            e * w for e, w in zip(dm, GR_WEIGHTS)
        )
        assert gr == 1


def test_extract_levi_coweight_operator(module, emb):
    h2 = {k: F(v, 3) for k, v in emb.gen("h2").items()}
    op = extract_diffop(module, h2, 1)
    assert op == parse_operator("x1*d1 + x2*d2 - x4*d4 - x5*d5")


def test_extract_grading_element_operator(module, emb):
    op = extract_diffop(module, grading_element(emb), 1)
    assert op == parse_operator(
        "-x1*d1 - 3*x2*d2 - 2*x3*d3 - 3*x4*d4 - x5*d5 + (2*L)"
    )


def test_sl2_triple_relations(module, emb):
    e_op, f_op, h_op = sl2_triple_ops(module, emb)
    assert op_commutator(e_op, f_op) == h_op
    assert op_commutator(h_op, e_op) == e_op * 2
    assert op_commutator(h_op, f_op) == f_op * (-2)
    I1 = parse_xi_polynomial("x1*x4 + x2*x5")
    assert op_apply(e_op, I1).is_zero()
    assert op_apply(f_op, I1).is_zero()
    assert op_apply(h_op, XiPolynomial.variable(3)).is_zero()


def test_fourier_round_trip_identification():
    p = parse_xi_polynomial("4*x1*x4 + x3^2 - 1/2*x2")
    assert xi_from_verma(verma_from_xi(p)) == p
    v = verma_from_xi(p)
    # the identification re-types the terms; it copies nothing
    assert v.terms is p.terms and xi_from_verma(v).terms is p.terms
    assert type(v) is VermaVector and type(xi_from_verma(v)) is XiPolynomial
    assert v == p
    assert str(v) == "4*g_-1*g_-9*v + g_-6^2*v - 1/2*g_-8*v"


def test_fourier_is_algebra_map_on_brackets(module, so7):
    # action of a bracket equals the commutator of actions, sampled elements
    import random

    rng = random.Random(5)
    labels = so7.labels
    for _ in range(40):
        x = {rng.choice(labels): F(rng.randint(-2, 2))}
        y = {rng.choice(labels): F(rng.randint(-2, 2))}
        m = tuple(rng.randint(0, 2) for _ in range(5))
        while sum(m) > 5:
            m = tuple(rng.randint(0, 2) for _ in range(5))
        p = XiPolynomial.monomial(m)
        lhs = fourier_act(module, so7.bracket(x, y), p)
        rhs = fourier_act(module, x, fourier_act(module, y, p)) - fourier_act(
            module, y, fourier_act(module, x, p)
        )
        assert lhs == rhs


def test_operator_agrees_with_action_to_degree_8(ctx):
    module = ctx.module
    emb = ctx.emb
    elements = {
        "raising": (emb.gen(1), 2),
        "levi_e": (emb.gen(2), 1),
        "levi_f": (emb.gen(-2), 1),
        "levi_h": ({"h2": F(1)}, 1),
    }
    g = {k: 2 * v for k, v in emb.gen("h1").items()}
    for k, v in emb.gen("h2").items():
        g[k] = g.get(k, F(0)) + v
    elements["grading"] = (g, 1)
    ops = {name: extract_diffop(module, x, order) for name, (x, order) in elements.items()}
    for d in range(0, 9):
        for m in module.monomials_of_degree(d):
            mono = XiPolynomial.monomial(m)
            for name, (x, _) in elements.items():
                assert op_apply(ops[name], mono) == fourier_act(module, x, mono), (name, m)


def test_extract_rejects_too_low_order(module, emb):
    with pytest.raises(ValueError):
        extract_diffop(module, emb.gen(1), 1)
