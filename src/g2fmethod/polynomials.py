"""Sparse multivariate polynomials in the five dual coordinates.

A polynomial is a dict from exponent tuples to ``LambdaPoly`` coefficients;
zero coefficients are never stored.  The canonical term order is graded
lexicographic with the first variable largest, which makes every serialized
form byte-stable.

The text grammar writes the variables as ``x1 .. x5``:

    4*x1*x4 + x3^2
    (2*L + 5)*x1 - 1/2*x3
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple, Union

from .scalars import ZERO, LambdaPoly, Scalar, integer_layers, pack_layers, unpack_layers

NVARS = 5

Monomial = Tuple[int, ...]

ZERO_MONO: Monomial = (0,) * NVARS


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def term_sort_key(m: Monomial):
    """Graded lex, biggest first when sorting with reverse=True."""
    return (sum(m), m)


def pack_monomial(m: Monomial, w: int) -> int:
    """The code  deg(m) 2^(5w) + sum_k m_k 2^((4-k)w)  of a monomial whose
    exponents are all below 2^w.

    The degree field, on top, is unbounded, and codes sort like
    ``term_sort_key``.  The map is linear, so an exponent change (with
    negative entries) packs to the offset that moves a code by it.
    """
    code = sum(m)
    for e in m:
        code = (code << w) + e
    return code


def unpack_monomial(code: int, w: int) -> Monomial:
    """Inverse of ``pack_monomial`` at the same width."""
    mask = (1 << w) - 1
    return tuple((code >> (k * w)) & mask for k in range(NVARS - 1, -1, -1))


class XiPolynomial:
    """Polynomial in the five dual coordinates over the parameter ring.

    It is the one sparse polynomial type: ``verma.VermaVector``, the
    Fourier-dual module vector, is a subclass that only prints differently.
    Constructors and arithmetic build ``type(self)``, and equality compares
    terms alone, across the two printers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, LambdaPoly]] = None):
        clean: Dict[Monomial, LambdaPoly] = {}
        if terms:
            for m, c in terms.items():
                c = LambdaPoly.coerce(c)
                if not c.is_zero():
                    if len(m) != NVARS:
                        raise ValueError(f"monomial {m} must have {NVARS} exponents")
                    clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def _of_terms(cls, terms: Dict[Monomial, LambdaPoly]) -> "XiPolynomial":
        """From a dict the caller hands over, with exponent tuples and
        ``LambdaPoly`` coefficients (the output of arithmetic): its zero
        coefficients are deleted in place instead of the dict being copied."""
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "XiPolynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "XiPolynomial":
        return cls({ZERO_MONO: LambdaPoly.coerce(c)})

    @classmethod
    def variable(cls, i: int) -> "XiPolynomial":
        """The i-th coordinate, 1-based."""
        if not 1 <= i <= NVARS:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * NVARS
        e[i - 1] = 1
        return cls({tuple(e): LambdaPoly.const(1)})

    @classmethod
    def monomial(cls, m: Monomial, c: Scalar = 1) -> "XiPolynomial":
        return cls({tuple(m): LambdaPoly.coerce(c)})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XiPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, m: Monomial) -> LambdaPoly:
        return self.terms.get(tuple(m), ZERO)

    def sorted_terms(self) -> Iterator[Tuple[Monomial, LambdaPoly]]:
        for m in sorted(self.terms, key=term_sort_key, reverse=True):
            yield m, self.terms[m]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "XiPolynomial") -> "XiPolynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return type(self)(out)

    def __neg__(self) -> "XiPolynomial":
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "XiPolynomial") -> "XiPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["XiPolynomial", int, Fraction, LambdaPoly]) -> "XiPolynomial":
        if not isinstance(other, XiPolynomial):
            c = LambdaPoly.coerce(other)
            return type(self)({m: v * c for m, v in self.terms.items()})
        out: Dict[Monomial, LambdaPoly] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, ZERO) + ca * cb
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "XiPolynomial":
        """Binomial expansion  (lead + rest)^n = sum_k C(n, k) lead^(n-k) rest^k.

        ``lead`` is one term, so its powers are a monomial and a coefficient
        power; the powers of ``rest`` are built one multiplication at a time.
        For a polynomial of a few terms this is O(n^2) term products, not the
        O(n^3) of multiplying by one factor at a time.

        The expansion runs on integer layers under one common denominator
        ``den``: each coefficient times ``den`` is a polynomial over the
        integers, packed into one ``int`` by ``pack_layers``, with fields wide
        enough for every coefficient that can arise (at most S^n, S the sum
        of the absolute values of all layers), so sums and products of packed
        ints are those of the polynomials.  Each sum is accumulated in place,
        and equal sums are held as one ``int`` object; only at the end is
        each distinct sum unpacked and divided by den^n, once, and written
        into the same dict, so equal coefficients of the result are one
        shared ``LambdaPoly``.
        """
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return type(self).constant(1)
        if not self.terms:
            return type(self).zero()
        layers, den = integer_layers(self.terms.values())
        width = (sum(abs(a) for c in layers for a in c) ** n).bit_length() + 1
        (lead_m, *rest_ms), (lead_c, *rest_cs) = self.terms, [pack_layers(c, width) for c in layers]
        rest = list(zip(rest_ms, rest_cs))
        out: Dict[Monomial, int] = {}
        values: Dict[int, object] = {}      # one object per distinct sum
        rest_k: Dict[Monomial, int] = {ZERO_MONO: 1}
        for k in range(n + 1):
            if k:
                step: Dict[Monomial, int] = {}
                for m, v in rest_k.items():
                    for mr, vr in rest:
                        t = mono_mul(m, mr)
                        step[t] = step.get(t, 0) + v * vr
                rest_k = step
            shift = tuple(e * (n - k) for e in lead_m)
            c = lead_c ** (n - k) * math.comb(n, k)
            for m, v in rest_k.items():
                t = mono_mul(shift, m)
                v = out.get(t, 0) + c * v
                out[t] = values.setdefault(v, v)
        del rest_k
        den **= n
        for v in values:
            values[v] = LambdaPoly._of_layers(unpack_layers(v, width), den)
        for m, v in out.items():
            out[m] = values[v]
        return type(self)._of_terms(out)

    def scale(self, c: Scalar) -> "XiPolynomial":
        return self * LambdaPoly.coerce(c)

    def evaluate_lambda(self, x: Fraction) -> "XiPolynomial":
        """Substitute an exact rational for the formal parameter."""
        return type(self)(
            {m: LambdaPoly.const(c(x)) for m, c in self.terms.items()}
        )

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.sorted_terms(), _XI_NAMES)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def to_latex(self) -> str:
        return format_terms(self.sorted_terms(), _XI_LATEX, latex=True)


# ---------------------------------------------------------------------------
# shared term formatting / parsing for the polynomial-like grammars
# ---------------------------------------------------------------------------

_XI_NAMES = tuple(f"x{i}" for i in range(1, NVARS + 1))
_XI_LATEX = tuple(rf"\xi_{i}" for i in range(1, NVARS + 1))


def format_coefficient(c: LambdaPoly, latex: bool = False) -> Tuple[str, str]:
    """Split a coefficient into (sign, magnitude-string); '' means +.

    Nonconstant parameter polynomials are parenthesized and always carry
    sign '+' so the parenthesis holds the full polynomial.
    """
    if c.is_constant():
        v = c.constant_value()
        sign = "-" if v < 0 else "+"
        return sign, str(abs(v))
    s = str(c)
    if latex:
        s = s.replace("L", r"\lambda").replace("*", " ")
    return "+", f"({s})"


def format_monomial(m: Monomial, names: Tuple[str, ...], latex: bool = False) -> str:
    parts = []
    for e, name in zip(m, names):
        if e == 0:
            continue
        if e == 1:
            parts.append(name)
        elif latex:
            parts.append(f"{name}^{{{e}}}" if e >= 10 else f"{name}^{e}")
        else:
            parts.append(f"{name}^{e}")
    joiner = " " if latex else "*"
    return joiner.join(parts)


def format_terms(sorted_terms, names: Tuple[str, ...], latex: bool = False) -> str:
    """Render (monomial, coefficient) pairs as a signed sum."""
    pieces = []
    for m, c in sorted_terms:
        sign, mag = format_coefficient(c, latex=latex)
        body = format_monomial(m, names, latex=latex)
        if body:
            joiner = " " if latex else "*"
            term = body if mag == "1" else f"{mag}{joiner}{body}"
        else:
            term = mag
        if not pieces:
            pieces.append(term if sign == "+" else f"-{term}")
        else:
            pieces.append(f"+ {term}" if sign == "+" else f"- {term}")
    if not pieces:
        return "0"
    return " ".join(pieces)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<name>g_-\d+|[A-Za-z_][A-Za-z0-9_]*)|(?P<pow>\^)|(?P<mul>\*))"
)


def tokenize(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot tokenize near {s[pos:]!r}")
        for kind in ("sign", "num", "lparen", "rparen", "name", "pow", "mul"):
            if m.group(kind):
                out.append((kind, m.group(kind)))
                break
        pos = m.end()
    return out


def parse_terms(s: str, names: Tuple[str, ...]):
    """Parse the signed-sum grammar; yields (exponent tuple, LambdaPoly).

    A term is factors joined by '*': a rational, a parenthesized parameter
    polynomial, 'L' or a name of ``names`` (which maps spellings to
    positions), the last two with an optional '^k'.  The first term may
    carry a sign and each later one carries exactly one.  Anything else
    raises ``ValueError``.
    """
    from .scalars import parse_lambda_poly

    index = {n: i for i, n in enumerate(names)}
    toks = tokenize(s.strip())
    if not toks:
        raise ValueError("empty polynomial text")
    i = 0
    n = len(toks)
    while i < n:
        sign = 1
        if toks[i][0] == "sign":
            sign = -1 if toks[i][1] == "-" else 1
            i += 1
        coeff = LambdaPoly.const(1)
        expo = [0] * len(names)
        while True:
            if i == n:
                raise ValueError("polynomial text ends where a factor is expected")
            kind, val = toks[i]
            if kind == "num":
                try:
                    coeff = coeff * Fraction(val)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator {val!r} in polynomial text") from None
                i += 1
            elif kind == "lparen":
                depth, j = 1, i + 1
                while j < n and depth:
                    if toks[j][0] == "lparen":
                        depth += 1
                    elif toks[j][0] == "rparen":
                        depth -= 1
                    j += 1
                if depth:
                    raise ValueError("unbalanced parenthesis in polynomial text")
                inner = " ".join(t[1] for t in toks[i + 1 : j - 1])
                coeff = coeff * parse_lambda_poly(inner)
                i = j
            elif kind == "name":
                p, i = _exponent(toks, i)
                if val == "L":
                    coeff = coeff * (LambdaPoly.gen() ** p)
                elif val in index:
                    expo[index[val]] += p
                else:
                    raise ValueError(f"unknown symbol {val!r}")
                i += 1
            else:
                raise ValueError(f"unexpected token {val!r}")
            if i < n and toks[i][0] == "mul":
                i += 1
            else:
                break
        if i < n and toks[i][0] != "sign":
            raise ValueError(f"expected '*' or a sign before {toks[i][1]!r}")
        yield tuple(expo), coeff * sign


def _exponent(toks, i: int) -> Tuple[int, int]:
    """The power after the name at ``toks[i]`` (1 when none) and the index
    of the name's last token."""
    if i + 1 < len(toks) and toks[i + 1][0] == "pow":
        if i + 2 >= len(toks) or toks[i + 2][0] != "num":
            raise ValueError("'^' must be followed by a non-negative integer")
        return int(toks[i + 2][1]), i + 2
    return 1, i


def parse_xi_polynomial(s: str) -> XiPolynomial:
    """Inverse of ``str(XiPolynomial)``."""
    s = s.strip()
    if s == "0":
        return XiPolynomial.zero()
    out: Dict[Monomial, LambdaPoly] = {}
    for expo, coeff in parse_terms(s, _XI_NAMES):
        out[expo] = out.get(expo, LambdaPoly()) + coeff
    return XiPolynomial(out)
