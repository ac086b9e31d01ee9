"""Fourier-dual action on polynomials and closed-form operator extraction.

The module identifies monomials in the five dual coordinates with ordered
monomials of the opposite nilradical (coordinate i of the polynomial ring
matches the i-th nilradical generator), transports the module action through
that identification, and reads the normal-ordered differential operator of
an element off the module's action tables, whose moves are its terms.

The grading weights of the coordinates under the central Levi element are
(-1, -3, -2, -3, -1); derivatives carry the opposite sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .embedding import Embedding
from .liealg import Element
# op_apply is not called here; it is imported because bench/tracing.py
# patches the name ``fourier.op_apply``
from .operators import DiffOperator, op_apply  # noqa: F401
from .polynomials import XiPolynomial
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
    """The normal-ordered operator by which ``x`` acts, read off the module's
    moves (``VermaModule.operator``).  Normal order is a normal form,
    so this is the unique operator matching the transported action.

    ``max_order`` bounds the order: a higher-order operator raises.
    """
    D = module.operator(x)
    if D.order() > max_order:
        raise ValueError(f"order too low: the operator has order {D.order()}, above {max_order}")
    return D


def sl2_triple_ops(module: VermaModule, emb: Embedding):
    """Raising, lowering and coweight operators of the Levi rank-1 part."""
    e_op = extract_diffop(module, emb.gen(2), 1)
    f_op = extract_diffop(module, emb.gen(-2), 1)
    h2 = {k: Fraction(v, 3) for k, v in emb.gen("h2").items()}
    h_op = extract_diffop(module, h2, 1)
    return e_op, f_op, h_op
