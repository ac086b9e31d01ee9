"""Invariant ring, Hilbert multiplicities, and the singular-vector solver.

The rank-1 Levi part acts on degree-d polynomials in the five coordinates;
its invariants are generated by

    I1 = x1*x4 + x2*x5        (degree 2, grading -4)
    x3                        (degree 1, grading -2)

so a homogeneous invariant of degree d is a combination of I1^k x3^(d-2k).
The degree-lowering operator D of the embedded nilradical generator is of
second order, so by the chain rule its action on such a combination follows
from five polynomials: D(I1), D(x3) and G(f, g) = (D(fg) - f D(g) - g D(f))/2
for f, g in {I1, x3}.  Each lies in x4 Q[L][I1, x3] + x5 Q[L][I1, x3], so
the lowered combination has coordinates of that form, and setting them to
zero is a linear system over the parameter ring with O(d) entries; its
parametric kernel classifies the singular vectors.  Certificates carry both
the polynomial and the enveloping-algebra form plus every verification
outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Dict, List, Optional, Tuple

from .embedding import Embedding
from .fourier import extract_diffop, sl2_triple_ops, verma_from_xi
from .liealg import (
    Element,
    StructureTable,
    WeightVec,
    _positive_roots_so_odd,
    alpha_weight,
    build_g2_root_data,
    eps_weight,
    eta_from_eps,
    g2_psi,
    positive_combination,
    reflect,
)
from .linsolve import kernel_basis, param_solve, rank
from .operators import DiffOperator, op_apply
from .polynomials import Monomial, XiPolynomial
from .scalars import LAMBDA, ZERO, LambdaPoly, rational_to_string
from .verma import VermaModule, VermaVector

I1 = XiPolynomial({(1, 0, 0, 1, 0): LambdaPoly.const(1), (0, 1, 0, 0, 1): LambdaPoly.const(1)})
X3 = XiPolynomial.variable(3)
LAPLACE_DUAL = I1 * 4 + X3 * X3  # 4(x1 x4 + x2 x5) + x3^2


class SolverContext:
    """Shared construction state: algebra, embedding, module, and the
    operators, each built on first use."""

    def __init__(self, emb: Optional[Embedding] = None):
        from .embedding import embed_g2

        self.emb = emb or embed_g2()
        self.module = VermaModule(self.emb.so7)

    @cached_property
    def lowering_op(self) -> DiffOperator:
        """Fourier-dual operator of the embedded nilradical generator."""
        return extract_diffop(self.module, self.emb.gen(1), 2)

    @cached_property
    def chain_rule(self) -> ChainRule:
        """The lowering operator's five chain-rule polynomials."""
        return chain_rule_data(self.lowering_op)

    @cached_property
    def sl2_ops(self) -> Tuple[DiffOperator, DiffOperator, DiffOperator]:
        return sl2_triple_ops(self.module, self.emb)

    @cached_property
    def pprime_generators(self) -> List[Element]:
        """The smaller p' set, once proved to generate the full one
        (``prove_generates``)."""
        gens = pprime_annihilators(self.emb)
        prove_generates(self.emb.so7, gens, pprime_full_annihilators(self.emb))
        return gens


# ---------------------------------------------------------------------------
# invariants and Hilbert multiplicities
# ---------------------------------------------------------------------------

# weight of each coordinate under the Levi coweight operator
_H_WEIGHTS = (1, 1, 0, -1, -1)


def invariant_monomial_basis(d: int) -> List[XiPolynomial]:
    """The expected basis I1^k x3^(d-2k), k = 0..floor(d/2).

    Each element is written down by the binomial expansion
    I1^k = sum_i C(k, i) (x1 x4)^i (x2 x5)^(k-i),  with no multiplication.
    Equal binomial coefficients (C(k, i) = C(k, k-i), among others) are one
    shared ``LambdaPoly``.
    """
    shared: Dict[int, LambdaPoly] = {}
    return [
        XiPolynomial._of_terms({(i, k - i, d - 2 * k, i, k - i): _shared_const(shared, math.comb(k, i))
                                for i in range(k + 1)})
        for k in range(d // 2 + 1)
    ]


def _shared_const(shared: Dict[Fraction, LambdaPoly], value: Fraction) -> LambdaPoly:
    """The constant ``value``, one object per value held in ``shared``."""
    c = shared.get(value)
    if c is None:
        c = shared[value] = LambdaPoly.const(value)
    return c


@dataclass
class InvariantBasis:
    degree: int
    basis: List[XiPolynomial]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def invariants_of_degree(ctx: SolverContext, d: int) -> InvariantBasis:
    """Invariants of one degree, computed two ways that must agree.

    Route (a): exact kernel of the raising and lowering operators on the
    zero-weight part of the degree.  Route (b): the monomial basis in the two
    generators.  A dimension or span mismatch raises.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    e_op, f_op, _ = ctx.sl2_ops
    monos = [m for m in ctx.module.monomials_of_degree(d)
             if sum(e * w for e, w in zip(m, _H_WEIGHTS)) == 0]
    rows: Dict[Tuple[int, Monomial], List[Fraction]] = {}
    for col, m in enumerate(monos):
        for oi, op in enumerate((e_op, f_op)):
            image = op_apply(op, XiPolynomial.monomial(m))
            for tm, c in image.terms.items():
                row = rows.setdefault((oi, tm), [Fraction(0)] * len(monos))
                row[col] += c.constant_value()
    matrix = [rows[k] for k in sorted(rows)]
    kernel = kernel_basis(matrix) if matrix else [
        [Fraction(1) if i == j else Fraction(0) for j in range(len(monos))]
        for i in range(len(monos))
    ]
    expected = invariant_monomial_basis(d)
    if len(kernel) != len(expected):
        raise ValueError(
            f"invariant dimension mismatch in degree {d}: "
            f"{len(kernel)} kernel vs {len(expected)} monomial basis"
        )
    # same span: stack both and compare ranks
    width = len(monos)
    index = {m: i for i, m in enumerate(monos)}
    expected_rows = []
    for p in expected:
        row = [Fraction(0)] * width
        for m, c in p.terms.items():
            row[index[m]] = c.constant_value()
        expected_rows.append(row)
    if rank(kernel) != rank(kernel + expected_rows):
        raise ValueError(f"invariant span mismatch in degree {d}")
    return InvariantBasis(degree=d, basis=expected)


def hilbert_multiplicity(l: int, t: int) -> int:
    """Multiplicity of the highest weight t in the degree-l coordinate ring.

    Counted from the weight spaces:  #(weight t) - #(weight t+2)  over the
    monomials of degree l with coordinate weights (1, 1, 0, -1, -1).
    """
    if l < 0 or t < 0:
        raise ValueError("l and t must be non-negative")

    def count(weight: int) -> int:
        total = 0
        for a in range(l + 1):
            for b in range(l + 1 - a):
                for c in range(l + 1 - a - b):
                    for dd in range(l + 1 - a - b - c):
                        e = l - a - b - c - dd
                        if a + b - dd - e == weight:
                            total += 1
        return total

    return count(t) - count(t + 2)


def hilbert_closed_form(l: int, t: int) -> Fraction:
    """The polynomial formulas for the multiplicity, split by parity."""
    l_, t_ = Fraction(l), Fraction(t)
    if (l + t) % 2 == 0:
        return -t_ * t_ / 2 + 1 + t_ * l_ / 2 + l_ / 2 + t_ / 2
    return -t_ * t_ / 2 + Fraction(1, 2) + t_ * l_ / 2 + l_ / 2


def _series_coefficients(L: int) -> List[Dict[int, Fraction]]:
    """Degree-sliced Laurent coefficients of the multiplicity generating
    function  (1 - x^-2) / ((1-zx)^2 (1-z/x)^2 (1-z)),  up to z^L.

    Entry l maps x-exponent to coefficient.
    """
    # geometric build-up: multiply the five factors 1/(1 - z x^w)
    series: List[Dict[int, Fraction]] = [dict() for _ in range(L + 1)]
    series[0][0] = Fraction(1)
    for w in (1, 1, 0, -1, -1):
        out: List[Dict[int, Fraction]] = [dict() for _ in range(L + 1)]
        for l in range(L + 1):
            for k in range(l + 1):
                # z^k x^{k w} term of the factor
                for xe, c in series[l - k].items():
                    key = xe + k * w
                    out[l][key] = out[l].get(key, Fraction(0)) + c
        series = out
    # multiply by (1 - x^-2)
    final: List[Dict[int, Fraction]] = [dict() for _ in range(L + 1)]
    for l in range(L + 1):
        for xe, c in series[l].items():
            final[l][xe] = final[l].get(xe, Fraction(0)) + c
            final[l][xe - 2] = final[l].get(xe - 2, Fraction(0)) - c
    return [
        {k: v for k, v in sl.items() if v != 0} for sl in final
    ]


@dataclass
class HilbertReport:
    max_degree: int
    entries: List[Tuple[int, int, int]]       # (l, t, multiplicity)
    mismatches: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "entries": [
                {"l": l, "t": t, "b": b} for (l, t, b) in self.entries
            ],
            "series_match": self.all_match,
            "mismatches": [
                {"l": l, "t": t, "reason": r} for (l, t, r) in self.mismatches
            ],
        }


def hilbert_series_check(L: int) -> HilbertReport:
    """Expand the generating function and reconcile all three computations.

    For each l <= L and t <= l the report compares the series coefficient of
    x^t, the weight-space count, and the closed form; vanishing above the
    diagonal (l < t) is also verified against the series.
    """
    if L < 0:
        raise ValueError("expansion order must be non-negative")
    slices = _series_coefficients(L)
    entries: List[Tuple[int, int, int]] = []
    mismatches: List[Tuple[int, int, str]] = []
    for l in range(L + 1):
        for t in range(0, l + 1):
            from_series = slices[l].get(t, Fraction(0))
            from_counts = hilbert_multiplicity(l, t)
            from_form = hilbert_closed_form(l, t)
            if from_series != from_counts:
                mismatches.append((l, t, f"series {from_series} vs counts {from_counts}"))
            if from_counts != from_form:
                mismatches.append((l, t, f"counts {from_counts} vs closed form {from_form}"))
            entries.append((l, t, from_counts))
        # above the diagonal the series must vanish
        for t in range(l + 1, L + 2):
            if slices[l].get(t, Fraction(0)) != 0:
                mismatches.append((l, t, "series nonzero beyond the diagonal"))
    return HilbertReport(max_degree=L, entries=entries, mismatches=mismatches)


# ---------------------------------------------------------------------------
# the singular-vector solver
# ---------------------------------------------------------------------------


@dataclass
class SingularCertificate:
    """Machine-checkable record of one singular vector."""

    homogeneity_half: int                       # N, homogeneity 2N
    lam: Fraction
    coefficients: List[Fraction]                # A_0 .. A_N, A_0 = 1
    xi_polynomial: XiPolynomial
    verma_vector: VermaVector
    checks: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "N": self.homogeneity_half,
            "lambda": rational_to_string(self.lam),
            "coefficients": [rational_to_string(c) for c in self.coefficients],
            "xi_polynomial": str(self.xi_polynomial),
            "verma_vector": str(self.verma_vector),
            "checks": dict(self.checks),
        }

    def to_latex(self) -> str:
        return self.xi_polynomial.to_latex()


# The five chain-rule polynomials D(I1), D(x3), G(I1,I1), G(I1,x3), G(x3,x3),
# each as {(f, s, t): c} for  sum c x_f I1^s x3^t,  f = 4 or 5
ChainRule = Tuple[Dict[Tuple[int, int, int], LambdaPoly], ...]


def chain_rule_data(D: DiffOperator) -> ChainRule:
    """D(I1), D(x3) and  G(f, g) = (D(fg) - f D(g) - g D(f)) / 2  for f, g
    in {I1, x3}, computed with ``op_apply``, in invariant coordinates.

    D(1) must be 0, and each polynomial must lie in  x4 Q[L][I1, x3] +
    x5 Q[L][I1, x3]: the x4 family's monomials have one more x4 than x1, the
    x5 family's as many.  The one term of  x_f I1^s x3^t  free of x2 is
    x_f x1^s x3^t x4^s, so the coordinates are read off those terms, and
    must give the polynomial back.  Otherwise a ``ValueError`` names it.
    """
    one = op_apply(D, XiPolynomial.constant(1))
    if one:
        raise ValueError(f"D(1) = {one} is not zero")
    d_i1, d_x3 = op_apply(D, I1), op_apply(D, X3)
    half = Fraction(1, 2)
    data = []
    for name, p in (("D(I1)", d_i1), ("D(x3)", d_x3),
                    ("G(I1,I1)", (op_apply(D, I1 * I1) - I1 * d_i1 * 2) * half),
                    ("G(I1,x3)", (op_apply(D, I1 * X3) - I1 * d_x3 - X3 * d_i1) * half),
                    ("G(x3,x3)", (op_apply(D, X3 * X3) - X3 * d_x3 * 2) * half)):
        coords = {(4 + e5, e1, e3): c for (e1, e2, e3, e4, e5), c in p.terms.items()
                  if e2 == 0 and (e4 - e1, e5) in ((1, 0), (0, 1))}
        if sum((XiPolynomial.variable(f) * I1 ** s * X3 ** t * c for (f, s, t), c in coords.items()),
               XiPolynomial()) != p:
            raise ValueError(f"{name} = {p} lies outside x4*Q[L][I1,x3] + x5*Q[L][I1,x3]")
        data.append(coords)
    return tuple(data)


def _collect_system(ctx: SolverContext, d: int):
    """The lowered degree-d invariants as a linear system in invariant
    coordinates.  Column k is  I1^a x3^b,  a = k, b = d - 2k, and as the
    lowering operator D is of second order,
        D(I1^a x3^b) = a D(I1) I1^(a-1) x3^b + b D(x3) I1^a x3^(b-1)
                       + a(a-1) G(I1,I1) I1^(a-2) x3^b
                       + 2ab G(I1,x3) I1^(a-1) x3^(b-1)
                       + b(b-1) G(x3,x3) I1^a x3^(b-2),
    a sum of  c x_f I1^i x3^j  by ``ctx.chain_rule``.  These have disjoint
    monomial supports, and the row labelled (f, i, j), the coefficients c,
    is the row of  x_f x1^i x3^j x4^i  of the lowered images; every other
    monomial row is C(i, p) times one of these, so the kernel at every
    parameter value is that of the monomial system.

    Returns (dense rows, labels (f, i, j)), vanishing rows left out and the
    rest in descending term order of  x_f x1^i x3^j x4^i: 2N rows for d = 2N.
    """
    width = d // 2 + 1
    rows: Dict[Tuple[int, int, int], Dict[int, LambdaPoly]] = {}
    for k in range(width):
        a, b = k, d - 2 * k
        for n, poly, s, t in zip((a, b, a * (a - 1), 2 * a * b, b * (b - 1)), ctx.chain_rule,
                                 (a - 1, a, a - 2, a - 1, a), (b, b - 1, b, b - 1, b - 2)):
            if n:
                for (f, i, j), c in poly.items():
                    row = rows.setdefault((f, s + i, t + j), {})
                    row[k] = row.get(k, ZERO) + c * n
    # x_f x1^i x3^j x4^i has degree 2i + j + 1, and in a tie x4 beats x5
    labels = sorted((key for key, row in rows.items() if any(row.values())),
                    key=lambda key: (2 * key[1] + key[2], key[1], key[2], key[0] == 4), reverse=True)
    return [[rows[key].get(k, ZERO) for k in range(width)] for key in labels], labels


def solve_even(ctx: SolverContext, N: int, verify: bool = True) -> Optional[SingularCertificate]:
    """Certificate for homogeneity 2N, or None when no parameter works.

    The linear system is the chain rule on the invariants I1, x3
    (``_collect_system``): 2N rows, one per invariant coordinate of the
    lowered image, in place of the N(N+1) monomial rows, each a rational
    multiple of one of them, which leaves the kernel at every parameter
    value as it was.  The parametric kernel must consist of a single rational parameter value with a
    one-dimensional kernel.  The certificate polynomial  sum_s A_s I1^s
    x3^(2N-2s)  is written term by term into one dict, with no invariant
    basis built: the term of  (x1 x4)^i (x2 x5)^(s-i) x3^(2N-2s)  is
    A_s C(s, i), one product per mirror pair i, s - i.
    """
    if N < 1:
        raise ValueError("N must be positive")
    result = param_solve(_collect_system(ctx, 2 * N)[0])     # the matrix is not kept
    if result.identically_singular or len(result.solutions) != 1:
        return None
    lam, kernels = result.solutions[0]
    if len(kernels) != 1:
        return None
    vec = kernels[0]
    # basis index k is the I1-power, so A_s = vec[s] normalized to A_0 = 1
    a0 = vec[0]
    if a0 == 0:
        return None
    coefficients = [c / a0 for c in vec]
    # C(k, i) = C(k, k - i); equal products are one shared LambdaPoly
    terms: Dict[Monomial, LambdaPoly] = {}
    shared: Dict[Fraction, LambdaPoly] = {}
    for k, a in enumerate(coefficients):
        products = [_shared_const(shared, a * math.comb(k, i)) for i in range(k // 2 + 1)]
        for i in range(k + 1):
            terms[(i, k - i, 2 * N - 2 * k, i, k - i)] = products[min(i, k - i)]
    poly = XiPolynomial._of_terms(terms)
    cert = SingularCertificate(
        homogeneity_half=N,
        lam=lam,
        coefficients=coefficients,
        xi_polynomial=poly,
        # the basis and the A_s are rational, so the polynomial is its own value
        # at lam; the vector shares the polynomial's term dict
        verma_vector=verma_from_xi(poly),
        checks={},
    )
    if verify:
        run_certificate_checks(ctx, cert)
    return cert


@dataclass
class OddReport:
    """Search outcome for odd homogeneity 2N+1."""

    N: int
    empty_for_all_lambda: bool
    rational_candidates: List[Fraction]
    unresolved: List[str]

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "homogeneity": 2 * self.N + 1,
            "empty_for_all_lambda": self.empty_for_all_lambda,
            "rational_candidates": [rational_to_string(c) for c in self.rational_candidates],
            "unresolved_factors": list(self.unresolved),
        }


def solve_odd(ctx: SolverContext, N: int) -> OddReport:
    """Emptiness confirmation for homogeneity 2N+1.

    The system is solved parametrically; rational candidates with trivial
    kernels are reported, and residual determinant factors without rational
    roots are certified against further maximal minors.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    result = param_solve(_collect_system(ctx, 2 * N + 1)[0])
    empty = (not result.identically_singular) and not result.solutions and not result.unresolved_factors
    return OddReport(
        N=N,
        empty_for_all_lambda=empty,
        rational_candidates=[lam for lam, _ in result.solutions],
        unresolved=[str(f) for f in result.unresolved_factors],
    )


# annihilator sets -----------------------------------------------------------


def pprime_annihilators(emb: Embedding):
    """Levi rank-1 generators plus the nilradical generator of the smaller
    parabolic; their brackets generate the rest of the nilradical."""
    return [emb.gen(2), emb.gen(-2), emb.gen(1)]


def pprime_full_annihilators(emb: Embedding):
    """Belt-and-braces set: the Levi generators and the whole nilradical.
    Certificate checks act with ``pprime_annihilators`` only, once
    ``prove_generates`` has shown that they generate every element of this
    set."""
    return [emb.gen(2), emb.gen(-2)] + [emb.gen(l) for l in (1, 3, 4, 5, 6)]


def borel_annihilators(emb: Embedding):
    """The three simple raising generators of so(7)."""
    one = Fraction(1)
    return [{1: one}, {2: one}, {3: one}]


def prove_generates(table: StructureTable, generators: List[Element], targets: List[Element]) -> None:
    """Raise unless every element of ``targets`` lies in the subalgebra that
    ``generators`` generate (``StructureTable.generated_span``)."""
    span = table.generated_span(generators)
    for x in targets:
        if not span.contains(table.coordinates(x)):
            raise ValueError(f"the generators do not generate {x}")


def verify_so7_singular(ctx: SolverContext, cert: SingularCertificate) -> bool:
    """Annihilation by all three simple raising generators, at the
    certificate's parameter value (the strongest singularity form)."""
    return all(ctx.module.annihilates(borel_annihilators(ctx.emb), cert.verma_vector, cert.lam))


def run_certificate_checks(ctx: SolverContext, cert: SingularCertificate) -> None:
    """Populate the certificate's verification record in place.

    ``p_prime_singular`` means that every element of both p' sets
    annihilates, and ``so7_singular`` that all three simple raising
    generators do.  Each flag is decided by acting with generators only:
    the action at the certificate's parameter value is a representation,
    [X, Y] v = X Y v - Y X v, so the elements that kill a vector form a Lie
    subalgebra, and a vector killed by some elements is killed by all they
    generate.  Two preconditions make this exact.  The three elements of
    the smaller p' set generate every element of the full one: the context
    proves it once (``SolverContext.pprime_generators``), and raises if the
    proof fails.  The Borel set is the whole set the flag names.  The p'
    generators and the Borel set are five distinct elements (one simple
    raising generator is a p' element); ``VermaModule.annihilates`` acts
    with each once and tests its integer sums for zero.
    """
    emb = ctx.emb
    module = ctx.module
    v = cert.verma_vector
    pprime = ctx.pprime_generators
    kills = module.annihilates(pprime + borel_annihilators(emb), v, cert.lam)
    weight = module.weight_of(v)
    w_eps1 = weight.coords[0](cert.lam)
    weight_ok = (
        w_eps1 == -cert.lam - 5
        and weight.coords[1].is_zero()
        and weight.coords[2].is_zero()
    )
    verdict = nonstandard_verdict(cert.lam)
    cert.checks.update(
        {
            "p_prime_singular": all(kills[:len(pprime)]),
            "so7_singular": all(kills[len(pprime):]),
            "weight_eps1": rational_to_string(w_eps1),
            "weight_matches_reflection_law": bool(weight_ok),
            "nonstandard_so7": verdict.nonstandard_so7,
            "nonstandard_g2": verdict.nonstandard_g2,
        }
    )


# ---------------------------------------------------------------------------
# non-standardness of the associated module maps
# ---------------------------------------------------------------------------

RHO_LEVI_SO7 = eps_weight((Fraction(0), Fraction(3, 2), Fraction(1, 2)))
RHO_LEVI_G2 = alpha_weight((Fraction(0), Fraction(1, 2)))

# the published right-hand side of the rank-2 difference, kept as data for
# comparison: (4 lam + 16) alpha1 + (2 lam + 6) alpha2
PRINTED_G2_DIFFERENCE = WeightVec(
    (LambdaPoly([16, 4]), LambdaPoly([6, 2])), "alpha"
)


@cache
def symbolic_so7_difference() -> WeightVec:
    """s_{eps3}(lam eps1 + rho_l) - ((-lam-5) eps1 + rho_l), symbolically;
    computed once, as every verdict evaluates it."""
    eps1 = eps_weight((1, 0, 0))
    w = eps1.scale(LAMBDA) + RHO_LEVI_SO7
    target = eps1.scale(-LAMBDA - 5) + RHO_LEVI_SO7
    return reflect(w, eps_weight((0, 0, 1))) - target


@cache
def symbolic_g2_difference(simple_root_index: int) -> WeightVec:
    """The rank-2 analog, reflecting in the chosen simple root (1 or 2);
    computed once per root."""
    psi1 = g2_psi(1)
    w = psi1.scale(LAMBDA) + RHO_LEVI_G2
    root = alpha_weight((1, 0)) if simple_root_index == 1 else alpha_weight((0, 1))
    target = psi1.scale(-LAMBDA - 5) + RHO_LEVI_G2
    return reflect(w, root) - target


@dataclass
class NonstandardVerdict:
    lam: Fraction
    in_regime: bool
    so7_difference: Optional[WeightVec] = None
    so7_witness: Optional[Dict[int, int]] = None
    g2_difference: Optional[WeightVec] = None
    g2_witness: Optional[Dict[int, int]] = None
    g2_difference_alt: Optional[WeightVec] = None
    g2_witness_alt: Optional[Dict[int, int]] = None
    printed_g2_matches: Dict[str, bool] = field(default_factory=dict)
    nonstandard_so7: bool = False
    nonstandard_g2: bool = False

    def to_json(self) -> dict:
        def wstr(w):
            return None if w is None else str(w)

        def witness(w):
            return None if w is None else {str(k): v for k, v in sorted(w.items())}

        return {
            "lambda": rational_to_string(self.lam),
            "in_regime": self.in_regime,
            "so7_difference": wstr(self.so7_difference),
            "so7_witness": witness(self.so7_witness),
            "g2_difference": wstr(self.g2_difference),
            "g2_witness": witness(self.g2_witness),
            "g2_difference_other_reflection": wstr(self.g2_difference_alt),
            "printed_g2_matches": dict(self.printed_g2_matches),
            "nonstandard_so7": self.nonstandard_so7,
            "nonstandard_g2": self.nonstandard_g2,
        }


def nonstandard_verdict(lam0: Fraction) -> NonstandardVerdict:
    """Reflection differences, positive-root witnesses, and the verdicts.

    The regime is lam in {-3/2, -1/2, 1/2, ...}.  The rank-2 difference uses
    the reflection in the Levi simple root (index 2), which is the analog of
    the rank-3 computation; the index-1 reflection is recorded alongside,
    and both are compared against the published right-hand side.
    """
    lam0 = Fraction(lam0)
    in_regime = (2 * lam0).denominator == 1 and (2 * lam0) % 2 != 0 and lam0 >= Fraction(-3, 2)
    verdict = NonstandardVerdict(lam=lam0, in_regime=in_regime)

    sym_so7 = symbolic_so7_difference()
    sym_g2_levi = symbolic_g2_difference(2)
    sym_g2_alt = symbolic_g2_difference(1)
    verdict.printed_g2_matches = {
        "levi_reflection": sym_g2_levi == PRINTED_G2_DIFFERENCE,
        "crossed_reflection": sym_g2_alt == PRINTED_G2_DIFFERENCE,
    }
    if not in_regime:
        return verdict

    def at(w: WeightVec) -> WeightVec:
        return WeightVec(
            tuple(
                c(lam0) if isinstance(c, LambdaPoly) else c for c in w.coords
            ),
            w.basis,
        )

    so7_diff = at(sym_so7)
    verdict.so7_difference = so7_diff
    so7_roots = [(i + 1, simple) for i, (simple, _) in enumerate(_positive_roots_so_odd(3))]
    eta = eta_from_eps(so7_diff.coords)
    verdict.so7_witness = positive_combination(eps_weight(eta), so7_roots)
    verdict.nonstandard_so7 = verdict.so7_witness is not None

    g2_data = build_g2_root_data()
    g2_roots = [(i + 1, coords) for i, coords in enumerate(g2_data.positive)]
    g2_diff = at(sym_g2_levi)
    verdict.g2_difference = g2_diff
    verdict.g2_witness = positive_combination(g2_diff, g2_roots)
    g2_alt = at(sym_g2_alt)
    verdict.g2_difference_alt = g2_alt
    verdict.g2_witness_alt = positive_combination(g2_alt, g2_roots)
    verdict.nonstandard_g2 = verdict.g2_witness is not None
    return verdict


# ---------------------------------------------------------------------------
# oracle cross-validation
# ---------------------------------------------------------------------------


def oracle_matches_certificate(ctx: SolverContext, cert: SingularCertificate) -> bool:
    """The degree-2N kernel of the smaller parabolic's annihilators at the
    certificate's parameter value is one-dimensional and proportional to the
    certificate's enveloping-algebra vector."""
    kernel = ctx.module.singular_search(
        2 * cert.homogeneity_half, cert.lam, pprime_annihilators(ctx.emb)
    )
    return kernel_matches_certificate(kernel, cert)


def kernel_matches_certificate(kernel: List[VermaVector], cert: SingularCertificate) -> bool:
    """``kernel`` is one vector, proportional over the rationals to the
    certificate's enveloping-algebra vector."""
    if len(kernel) != 1:
        return False
    found = kernel[0]
    target = cert.verma_vector
    ratio = None
    if set(found.terms) != set(target.terms):
        return False
    for m, c in found.terms.items():
        r = target.terms[m].constant_value() / c.constant_value()
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True
