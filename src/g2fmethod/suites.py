"""The eight verification suites, each defined once.

``g2fmethod verify`` runs them in order on one ``SolverContext`` and the
acceptance tests run each under its time budget.  A suite returns its
one-line detail, or raises ``AssertionError`` naming the check that failed
(through ``_require``, which ``python -O`` does not strip as it strips a
bare ``assert``).  All comparisons are exact equalities.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Tuple

from .embedding import (EXPECTED_ARROWS, _verify_homomorphism, inclusion_lattice, intersect_parabolic,
                        meets_match_inclusions)
from .fourier import GR_WEIGHTS, fourier_act
from .liealg import build_so_odd, eps_weight
from .operators import DiffOperator, op_apply, op_compose, parse_operator
from .polynomials import XiPolynomial, parse_xi_polynomial
from .scalars import LambdaPoly
from .solver import (I1, LAPLACE_DUAL, X3, SolverContext, hilbert_multiplicity, hilbert_series_check,
                     kernel_matches_certificate, nonstandard_verdict, pprime_annihilators, solve_even,
                     solve_odd, symbolic_so7_difference, verify_so7_singular)
from .verma import VermaVector, parse_verma


def _require(cond, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def structure(ctx: SolverContext) -> str:
    so7, emb = ctx.emb.so7, ctx.emb
    _require(so7.dimension == 21, f"so(7) has dimension {so7.dimension}")
    _require(len(so7.positive_root_labels) == 9, "so(7) does not have 9 positive roots")
    _require(so7.antisymmetry_check(), "so(7) bracket is not antisymmetric")
    _require(so7.eigenvector_check(), "so(7) root vectors are not Cartan eigenvectors")
    _require(so7.jacobi_check(), "so(7) Jacobi identity fails")
    _require(build_so_odd(2).dimension == 10, "so(5) does not have dimension 10")
    _require(emb.g2.dimension == 14, f"image has dimension {emb.g2.dimension}")
    _require(emb.g2.eigenvector_check(), "image root vectors are not Cartan eigenvectors")
    _require(emb.g2.jacobi_check(), "image Jacobi identity fails")
    _verify_homomorphism(emb)
    return "so(7) dim 21, 9 positive roots, Jacobi OK; image dim 14"


def lattice(ctx: SolverContext) -> str:
    emb = ctx.emb
    lat = inclusion_lattice(emb)
    _require(lat.arrows == EXPECTED_ARROWS, "covering arrows differ from the expected diagram")
    _require(meets_match_inclusions(emb, lat), "a meet is not the largest included parabolic")
    # the drawn cross arrows realize the meet exactly
    for qname, name in lat.arrows:
        if qname.startswith("p'") and name.startswith("p("):
            meet = intersect_parabolic(emb, lat.parabolics[name])
            _require(meet.mask == lat.parabolics[qname].mask, f"arrow {qname} -> {name} is not the meet")
    return f"{len(lat.arrows)} covering arrows; meets match inclusions"


def operator(ctx: SolverContext) -> str:
    P = ctx.lowering_op
    expected = parse_operator(
        "-x1*d1^2 - x3*d2 + (L)*d1 + x4*d3^2 + 2*x5*d3 - x5*d1*d5 "
        "+ x4*d2*d5 - x2*d1*d2 - x3*d1*d3"
    )
    _require(P == expected, "lowering operator differs from the nine-term display")
    _require(op_apply(P, X3) == XiPolynomial.variable(5) * 2, "P(x3) is not 2*x5")
    x4 = XiPolynomial.variable(4)
    x3x5 = X3 * XiPolynomial.variable(5)
    for b1 in range(6):
        for b2 in range(6):
            lhs = op_apply(P, (I1 ** b1) * ((X3 * X3) ** b2))
            rhs = XiPolynomial.zero()
            if b2 >= 1:
                rhs = rhs + (
                    x4 * (2 * b2 * (2 * b2 - 1)) + x3x5 * (4 * b2)
                ) * (I1 ** b1) * ((X3 * X3) ** (b2 - 1))
            if b1 >= 1:
                rhs = rhs + (
                    x4 * (LambdaPoly([2 - b1 - 2 * b2, 1]) * b1) - x3x5 * b1
                ) * (I1 ** (b1 - 1)) * ((X3 * X3) ** b2)
            _require(lhs == rhs, f"invariant action law fails on I1^{b1} x3^{2 * b2}")
    for xm, dm in P.terms:
        grading = sum(e * w for e, w in zip(xm, GR_WEIGHTS)) - sum(e * w for e, w in zip(dm, GR_WEIGHTS))
        _require(grading == 1, f"term {xm}, {dm} has grading {grading}")
    return "nine-term operator exact; invariant action law holds; grading +1"


def hilbert(ctx: SolverContext) -> str:
    report = hilbert_series_check(8)
    _require(report.all_match, f"series differs from the closed form at {report.mismatches}")
    for l in range(9):
        _require(hilbert_multiplicity(l, 0) == 1 + l // 2, f"b({l},0) is not {1 + l // 2}")
    return "series, weight counts and closed forms agree to degree 8"


def theorem(ctx: SolverContext) -> str:
    for N in range(1, 7):
        cert = solve_even(ctx, N, verify=False)
        _require(cert is not None, f"no certificate at N={N}")
        _require(cert.lam == Fraction(2 * N - 5, 2), f"lambda at N={N} is {cert.lam}")
        _require(cert.coefficients == [Fraction(4 ** s * math.comb(N, s)) for s in range(N + 1)],
                 f"coefficients at N={N} are not 4^s C(N, s)")
        _require(cert.xi_polynomial == LAPLACE_DUAL ** N, f"xi polynomial at N={N} is not (4 I1 + x3^2)^N")
    for N in range(5):
        _require(solve_odd(ctx, N).empty_for_all_lambda, f"odd search at N={N} is not empty")
    return "even certificates 1..6 exact; odd searches 0..4 empty"


def oracle(ctx: SolverContext) -> str:
    anns = pprime_annihilators(ctx.emb)
    for N in (1, 2, 3):
        cert = solve_even(ctx, N, verify=False)
        kernel = ctx.module.singular_search(2 * N, cert.lam, anns)
        _require(len(kernel) == 1, f"module kernel at N={N} has dimension {len(kernel)}")
        _require(kernel_matches_certificate(kernel, cert), f"module kernel at N={N} is not the certificate")
        _require(verify_so7_singular(ctx, cert), f"certificate at N={N} is not so(7)-singular")
    rng = random.Random(20260809)
    special = {Fraction(2 * k - 5, 2) for k in range(10)}
    tried = set()
    while len(tried) < 10:
        lam = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if lam in special or lam in tried:
            continue
        tried.add(lam)
        for d in range(1, 7):
            _require(not ctx.module.singular_search(d, lam, anns), f"kernel at lambda={lam}, degree {d}")
    return "module kernels match certificates; 10 off-parameter values empty"


def weights(ctx: SolverContext) -> str:
    for N in (1, 2, 3):
        cert = solve_even(ctx, N, verify=False)
        w = ctx.module.weight_of(cert.verma_vector)
        _require(w.coords[0](cert.lam) == -cert.lam - 5, f"first weight coordinate at N={N}")
        _require(w.coords[1].is_zero() and w.coords[2].is_zero(), f"nonzero weight coordinate at N={N}")
    expect = eps_weight((LambdaPoly([5, 2]), LambdaPoly(), LambdaPoly([-1])))
    _require(symbolic_so7_difference() == expect, "symbolic rank-3 difference")
    reproduced = True
    for k in range(5):
        lam = Fraction(2 * k - 3, 2)
        v = nonstandard_verdict(lam)
        _require(v.in_regime, f"lambda={lam} is outside the regime")
        _require(v.so7_difference.coords == (2 * lam + 5, 0, -1), f"rank-3 difference at lambda={lam}")
        _require(v.nonstandard_so7 and v.nonstandard_g2, f"standard map at lambda={lam}")
        _require(v.so7_witness and v.g2_witness, f"missing positive-root witness at lambda={lam}")
        reproduced = reproduced and any(v.printed_g2_matches.values())
    note = "all reflection data reproduced" if reproduced else "printed rank-2 difference not reproduced"
    return f"weights and verdicts exact; {note}"


def _random_operator(rng: random.Random, top: int) -> DiffOperator:
    terms = {}
    for _ in range(2):
        xm = tuple(rng.randint(0, top) for _ in range(5))
        dm = tuple(rng.randint(0, top) for _ in range(5))
        terms[(xm, dm)] = LambdaPoly.const(rng.randint(-3, 3))
    return DiffOperator(terms)


def properties(ctx: SolverContext) -> str:
    so7, module = ctx.emb.so7, ctx.module
    rng = random.Random(8128)
    labels = so7.labels
    # representation property on 200 random triples
    for _ in range(200):
        x = {rng.choice(labels): Fraction(rng.randint(-3, 3))}
        y = {rng.choice(labels): Fraction(rng.randint(-3, 3))}
        m = tuple(rng.randint(0, 2) for _ in range(5))
        while sum(m) > 4:
            m = tuple(rng.randint(0, 2) for _ in range(5))
        v = VermaVector.monomial(m)
        lhs = module.act(so7.bracket(x, y), v)
        rhs = module.act(x, module.act(y, v)) - module.act(y, module.act(x, v))
        _require(lhs == rhs, f"[x, y] does not act as xy - yx for x={x}, y={y} on {v}")
    # transported action is an algebra map on the generating set
    gens = [ctx.emb.gen(l) for l in (1, -1, 2, -2)] + [{3: Fraction(1)}, {-3: Fraction(1)}, {1: Fraction(1)}]
    probe = [
        XiPolynomial.monomial(m)
        for m in [(1, 0, 0, 1, 0), (0, 1, 0, 0, 1), (0, 0, 2, 0, 0), (1, 1, 1, 0, 0)]
    ]
    for x in gens:
        for y in gens:
            br = so7.bracket(x, y)
            for p in probe:
                lhs = fourier_act(module, br, p)
                rhs = fourier_act(module, x, fourier_act(module, y, p)) - fourier_act(
                    module, y, fourier_act(module, x, p)
                )
                _require(lhs == rhs, f"transported [x, y] differs for x={x}, y={y} on {p}")
    # normal ordering is a normal form
    for _ in range(30):
        b = op_compose(_random_operator(rng, 2), ctx.lowering_op)
        _require(DiffOperator(b.terms) == b, "a composition is not in normal form")
        _require(op_compose(b, DiffOperator.constant(1)) == b, "composing with 1 changes an operator")
    # composition agrees with sequential application
    for _ in range(20):
        d1, d2 = _random_operator(rng, 1), _random_operator(rng, 1)
        p = XiPolynomial.monomial(tuple(rng.randint(0, 2) for _ in range(5)))
        _require(op_apply(op_compose(d1, d2), p) == op_apply(d1, op_apply(d2, p)),
                 f"composition differs from sequential application on {p}")
    # serializations round-trip
    for N in (1, 2):
        cert = solve_even(ctx, N, verify=False)
        _require(parse_xi_polynomial(str(cert.xi_polynomial)) == cert.xi_polynomial, f"xi round trip at N={N}")
        _require(parse_verma(str(cert.verma_vector)) == cert.verma_vector, f"module vector round trip at N={N}")
    _require(parse_operator(str(ctx.lowering_op)) == ctx.lowering_op, "operator round trip")
    return "representation and composition properties hold on samples"


# the one list of suites, in the order ``verify`` runs and prints them
SUITES: Tuple[Tuple[str, Callable[[SolverContext], str]], ...] = (
    ("structure", structure),
    ("lattice", lattice),
    ("operator", operator),
    ("hilbert", hilbert),
    ("theorem", theorem),
    ("oracle", oracle),
    ("weights", weights),
    ("properties", properties),
)
