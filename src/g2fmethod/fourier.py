"""Fourier-dual action on polynomials and closed-form operator extraction.

The module identifies monomials in the five dual coordinates with ordered
monomials of the opposite nilradical (coordinate i of the polynomial ring
matches the i-th nilradical generator), transports the module action through
that identification, and recovers normal-ordered differential operators by
triangular interpolation plus over-determined verification.

The grading weights of the coordinates under the central Levi element are
(-1, -3, -2, -3, -1); derivatives carry the opposite sign.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .embedding import Embedding
from .liealg import Element
from .operators import DiffOperator, op_apply
from .polynomials import Monomial, XiPolynomial
from .scalars import LambdaPoly
from .verma import VermaModule, VermaVector

GR_WEIGHTS: Tuple[int, ...] = (-1, -3, -2, -3, -1)


def xi_from_verma(v: VermaVector) -> XiPolynomial:
    """The same terms as a polynomial, sharing the vector's term dict."""
    return XiPolynomial._of_terms(v.terms)


def verma_from_xi(p: XiPolynomial) -> VermaVector:
    """The same terms as a module vector, sharing the polynomial's term dict."""
    return VermaVector._of_terms(p.terms)


def fourier_act(module: VermaModule, x: Element, p: XiPolynomial) -> XiPolynomial:
    """Transported module action; exact in every degree, parameter symbolic."""
    return xi_from_verma(module.act(x, verma_from_xi(p)))


def extract_diffop(module: VermaModule, x: Element, max_order: int) -> DiffOperator:
    """The unique normal-ordered operator of bounded order matching the action.

    Coefficients are recovered monomial by monomial: applying the operator to
    a monomial whose exponents equal a derivative multi-index isolates that
    index's coefficients once lower indices are known.  The result is then
    checked against the transported action on the five degrees beyond the
    interpolation range; any residual raises (the order bound was too low).
    """
    coeffs: Dict[Tuple[Monomial, Monomial], LambdaPoly] = {}
    monos: list[Monomial] = []
    for d in range(0, max_order + 1):
        monos.extend(module.monomials_of_degree(d))
    monos.sort(key=lambda m: (sum(m), m))

    def multi_factorial(m: Monomial) -> int:
        out = 1
        for e in m:
            out *= math.factorial(e)
        return out

    for beta in monos:
        mono = XiPolynomial.monomial(beta)
        image = fourier_act(module, x, mono)
        # lower multi-indices are known; what remains is the beta term,
        # residual = beta! * sum_alpha coeff[alpha, beta] * x^alpha
        residual = image - op_apply(DiffOperator(coeffs), mono)
        scale = Fraction(1, multi_factorial(beta))
        for alpha, c in residual.terms.items():
            coeffs[(alpha, beta)] = c * scale
    D = DiffOperator(coeffs)
    if D.order() > max_order:
        raise ValueError("order too low: interpolation left higher terms")
    for d in range(max_order + 1, max_order + 6):
        for m in module.monomials_of_degree(d):
            mono = XiPolynomial.monomial(m)
            if op_apply(D, mono) != fourier_act(module, x, mono):
                raise ValueError("order too low: verification mismatch")
    return D


def sl2_triple_ops(module: VermaModule, emb: Embedding):
    """Raising, lowering and coweight operators of the Levi rank-1 part."""
    e_op = extract_diffop(module, emb.gen(2), 1)
    f_op = extract_diffop(module, emb.gen(-2), 1)
    h2 = {k: Fraction(v, 3) for k, v in emb.gen("h2").items()}
    h_op = extract_diffop(module, h2, 1)
    return e_op, f_op, h_op
