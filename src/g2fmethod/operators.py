"""Normal-ordered differential operators on the dual coordinates.

An operator is a sparse sum of terms ``c * x^a * d^b`` with every
multiplication factor to the left of every derivative factor.  Normal order
is a normal form: two operators are equal as maps on polynomials exactly
when their term dicts coincide.

Grammar:  ``x4*d3^2 + 2*x5*d3 + (L)*d1``
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .polynomials import (
    Monomial,
    NVARS,
    XiPolynomial,
    ZERO_MONO,
    format_terms,
    parse_terms,
    term_sort_key,
)
from .scalars import ZERO, LambdaPoly, Scalar

OpKey = Tuple[Monomial, Monomial]


def _falling(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1); zero when k > m."""
    if k > m:
        return 0
    out = 1
    for i in range(k):
        out *= m - i
    return out


class DiffOperator:
    """Element of the Weyl algebra in the five coordinates, normal ordered."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[OpKey, LambdaPoly]] = None):
        clean: Dict[OpKey, LambdaPoly] = {}
        if terms:
            for (xm, dm), c in terms.items():
                c = LambdaPoly.coerce(c)
                if not c.is_zero():
                    clean[(tuple(xm), tuple(dm))] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "DiffOperator":
        return DiffOperator()

    @staticmethod
    def constant(c: Scalar) -> "DiffOperator":
        return DiffOperator({(ZERO_MONO, ZERO_MONO): LambdaPoly.coerce(c)})

    @staticmethod
    def multiplication(i: int) -> "DiffOperator":
        """Multiplication by the i-th coordinate (1-based)."""
        e = [0] * NVARS
        e[i - 1] = 1
        return DiffOperator({(tuple(e), ZERO_MONO): LambdaPoly.const(1)})

    @staticmethod
    def derivative(i: int) -> "DiffOperator":
        """Partial derivative in the i-th coordinate (1-based)."""
        e = [0] * NVARS
        e[i - 1] = 1
        return DiffOperator({(ZERO_MONO, tuple(e)): LambdaPoly.const(1)})

    @staticmethod
    def term(xm: Monomial, dm: Monomial, c: Scalar = 1) -> "DiffOperator":
        return DiffOperator({(tuple(xm), tuple(dm)): LambdaPoly.coerce(c)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def order(self) -> int:
        """Largest total derivative degree; -1 for the zero operator."""
        return max((sum(dm) for _, dm in self.terms), default=-1)

    def coefficient(self, xm: Monomial, dm: Monomial) -> LambdaPoly:
        return self.terms.get((tuple(xm), tuple(dm)), LambdaPoly())

    def sorted_terms(self):
        def key(k: OpKey):
            xm, dm = k
            return (sum(xm) + sum(dm), term_sort_key(xm), term_sort_key(dm))

        for k in sorted(self.terms, key=key, reverse=True):
            yield k, self.terms[k]

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, LambdaPoly()) + c
        return DiffOperator(out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def __mul__(self, c: Union[int, Fraction, LambdaPoly]) -> "DiffOperator":
        c = LambdaPoly.coerce(c)
        return DiffOperator({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(
            ((xm + dm, c) for (xm, dm), c in self.sorted_terms()), _OP_NAMES
        )

    def __repr__(self) -> str:
        return f"DiffOperator({self})"

    def to_latex(self) -> str:
        return format_terms(
            ((xm + dm, c) for (xm, dm), c in self.sorted_terms()),
            _OP_LATEX,
            latex=True,
        )


_OP_NAMES = tuple(f"x{i}" for i in range(1, NVARS + 1)) + tuple(
    f"d{i}" for i in range(1, NVARS + 1)
)
_OP_LATEX = tuple(rf"\xi_{i}" for i in range(1, NVARS + 1)) + tuple(
    rf"\partial_{i}" for i in range(1, NVARS + 1)
)


def op_apply(D: DiffOperator, p: XiPolynomial) -> XiPolynomial:
    """Apply a normal-ordered operator to a polynomial, exactly."""
    out: Dict[Monomial, LambdaPoly] = {}
    for (xm, dm), c in D.terms.items():
        for m, v in p.terms.items():
            factor = 1
            for mi, di in zip(m, dm):
                f = _falling(mi, di)
                if f == 0:
                    factor = 0
                    break
                factor *= f
            if factor == 0:
                continue
            target = tuple(mi - di + xi for mi, di, xi in zip(m, dm, xm))
            out[target] = out.get(target, ZERO) + c * v * factor
    return XiPolynomial(out)


def op_compose(D1: DiffOperator, D2: DiffOperator) -> DiffOperator:
    """Normal-ordered product; applying it equals applying D2 then D1.

    For single terms the reordering is the Weyl-algebra identity
    d^b x^g = sum_k  C(b,k) g!/(g-k)!  x^(g-k) d^(b-k)  variable by variable.
    """
    out: Dict[OpKey, LambdaPoly] = {}
    for (x1, d1), c1 in D1.terms.items():
        for (x2, d2), c2 in D2.terms.items():
            base = c1 * c2
            # k_i = number of contractions in variable i
            choices = [range(min(b, g) + 1) for b, g in zip(d1, x2)]
            for kvec in itertools.product(*choices):
                coef = base
                for b, g, k in zip(d1, x2, kvec):
                    coef = coef * (math.comb(b, k) * _falling(g, k))
                xm = tuple(a + g - k for a, g, k in zip(x1, x2, kvec))
                dm = tuple(b - k + e for b, e, k in zip(d1, d2, kvec))
                out[(xm, dm)] = out.get((xm, dm), LambdaPoly()) + coef
    return DiffOperator(out)


def op_commutator(D1: DiffOperator, D2: DiffOperator) -> DiffOperator:
    """[D1, D2] = D1 D2 - D2 D1.  The engine takes no commutator: this is
    the test oracle that states the sl2 relations of the extracted operators."""
    return op_compose(D1, D2) - op_compose(D2, D1)


def parse_operator(s: str) -> DiffOperator:
    """Inverse of ``str(DiffOperator)``."""
    s = s.strip()
    if s == "0":
        return DiffOperator.zero()
    out: Dict[OpKey, LambdaPoly] = {}
    for expo, coeff in parse_terms(s, _OP_NAMES):
        key = (tuple(expo[:NVARS]), tuple(expo[NVARS:]))
        out[key] = out.get(key, LambdaPoly()) + coeff
    return DiffOperator(out)
