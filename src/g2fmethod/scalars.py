"""Exact scalars: arbitrary-precision rationals and univariate polynomials in
a formal parameter over the rationals.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator).  The formal parameter is printed as ``L`` in the text grammar;
polynomials in it are the coefficient ring of every symbolic computation in
the engine, so no floating point appears anywhere.

Hot loops work on integer layers instead: a polynomial times a common
denominator, as the list of its ``int`` coefficients (``integer_layers``),
multiplied and divided exactly over the integers (``layers_mul_sub``,
``layers_exact_div``) or packed into one ``int`` (``pack_layers``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

Rational = Fraction

Scalar = Union[int, Fraction, "LambdaPoly"]


def rational_from_string(s: str) -> Fraction:
    """Parse 'p' or 'p/q' into an exact rational; reject anything else."""
    s = s.strip()
    if not re.fullmatch(r"[+-]?\d+(/\d+)?", s):
        raise ValueError(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


def rational_to_string(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' (denominator omitted when 1)."""
    return str(x)


class LambdaPoly:
    """Polynomial in the formal parameter with Fraction coefficients.

    Immutable.  ``coeffs[i]`` is the coefficient of the i-th power; the list
    never has a trailing zero, and the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of_fractions(cls, cs: list) -> "LambdaPoly":
        """From a list the caller knows holds only ``Fraction``s (the output
        of arithmetic on coefficients), skipping the conversion."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    @classmethod
    def _of_layers(cls, layers: "IntPoly", den: int) -> "LambdaPoly":
        """The polynomial  (sum_i layers[i] L^i) / den  of integer layers."""
        if den == 1:            # Fraction(a) keeps the int object itself
            return cls._of_fractions([Fraction(a) for a in layers])
        return cls._of_fractions([Fraction(a, den) for a in layers])

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Union[int, Fraction]) -> "LambdaPoly":
        return LambdaPoly([c])

    @staticmethod
    def gen() -> "LambdaPoly":
        """The parameter itself."""
        return LambdaPoly([0, 1])

    @staticmethod
    def coerce(x: Scalar) -> "LambdaPoly":
        if isinstance(x, LambdaPoly):
            return x
        return LambdaPoly([Fraction(x)])

    # -- structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value as a Fraction; raises if the parameter occurs."""
        if len(self.coeffs) > 1:
            raise ValueError(f"not constant: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LambdaPoly([other])
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Scalar) -> "LambdaPoly":
        other = LambdaPoly.coerce(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return LambdaPoly._of_fractions([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly._of_fractions([-c for c in self.coeffs])

    def __sub__(self, other: Scalar) -> "LambdaPoly":
        return self + (-LambdaPoly.coerce(other))

    def __rsub__(self, other: Scalar) -> "LambdaPoly":
        return LambdaPoly.coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "LambdaPoly":
        if not isinstance(other, LambdaPoly):
            if not other:
                return LambdaPoly()
            other = Fraction(other)
            return LambdaPoly._of_fractions([a * other for a in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return LambdaPoly()
        if len(other.coeffs) == 1:
            b = other.coeffs[0]
            return LambdaPoly._of_fractions([a * b for a in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LambdaPoly._of_fractions(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LambdaPoly":
        if n < 0:
            raise ValueError("negative power")
        r = LambdaPoly([1])
        for _ in range(n):
            r = r * self
        return r

    def divmod(self, other: "LambdaPoly") -> tuple["LambdaPoly", "LambdaPoly"]:
        """Polynomial long division over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return LambdaPoly(q), LambdaPoly(rem)

    def __call__(self, x: Union[int, Fraction]) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        if len(self.coeffs) <= 1:
            return self.coeffs[0] if self.coeffs else Fraction(0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- root extraction ------------------------------------------------

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, by the rational-root theorem, sorted.

        The coefficients are scaled to coprime integers first, so only the
        divisors of the primitive part are tried; each coprime candidate p/q
        is tested by the integer evaluation  sum a_i p^i q^(n-i) == 0.
        The zero polynomial is rejected: every point would be a root.
        """
        if self.is_zero():
            raise ValueError("zero polynomial rejected")
        coeffs = list(self.coeffs)
        roots: set[Fraction] = set()
        # Strip powers of the parameter: they contribute the root 0.
        low = 0
        while coeffs[low] == 0:
            low += 1
        if low > 0:
            roots.add(Fraction(0))
            coeffs = coeffs[low:]
        if len(coeffs) > 1:
            ints = _primitive_integers(coeffs)
            n = len(ints) - 1
            numerators = _divisors(ints[0])
            for q in _divisors(ints[-1]):
                q_powers = [q ** (n - i) for i in range(n + 1)]
                for p in numerators:
                    if math.gcd(p, q) != 1:
                        continue
                    for sp in (p, -p):
                        acc = 0
                        for i in range(n, -1, -1):          # Horner in p, weights q^(n-i)
                            acc = acc * sp + ints[i] * q_powers[i]
                        if acc == 0:
                            roots.add(Fraction(sp, q))
        return sorted(roots)

    def deflate_rational_roots(self, roots: Optional[Iterable[Fraction]] = None) -> "LambdaPoly":
        """Divide out rational roots (with multiplicity).

        ``roots`` are the roots to divide out, for a caller that already has
        them from ``rational_roots``; by default all of them are found here.
        """
        p = self
        for r in self.rational_roots() if roots is None else roots:
            factor = LambdaPoly([-r, 1])
            while True:
                q, rem = p.divmod(factor)
                if rem.is_zero() and not q.is_zero():
                    p = q
                else:
                    break
        return p

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                lam = "L" if i == 1 else f"L^{i}"
                body = lam if mag == 1 else f"{mag}*{lam}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LambdaPoly({self})"


LAMBDA = LambdaPoly.gen()
ZERO = LambdaPoly()
ONE = LambdaPoly([1])


# ---------------------------------------------------------------------------
# integer layers: polynomials over the integers as coefficient lists
# ---------------------------------------------------------------------------

IntPoly = List[int]     # coefficients of the powers of the parameter, no trailing zero


def integer_layers(polys: Iterable[LambdaPoly]) -> Tuple[List[IntPoly], int]:
    """The polynomials times the lcm of their coefficients' denominators, as
    integer layers, and that lcm."""
    polys = list(polys)
    den = math.lcm(*(q.denominator for p in polys for q in p.coeffs))
    return [[q.numerator * (den // q.denominator) for q in p.coeffs] for p in polys], den


def pack_layers(layers: IntPoly, width: int) -> int:
    """The value at 2^width (Kronecker substitution): integer layers in one
    ``int``, which ``unpack_layers`` inverts while every coefficient is below
    2^(width-1) in absolute value.  A constant packs to itself."""
    return sum(a << (width * i) for i, a in enumerate(layers))


def unpack_layers(v: int, width: int) -> IntPoly:
    """Inverse of ``pack_layers``: the balanced base-2^width digits of v."""
    half = 1 << (width - 1)
    if -half < v < half:
        return [v] if v else []     # a constant, the same int object
    out = []
    mask = (1 << width) - 1
    while v:
        r = v & mask
        if r >= half:
            r -= mask + 1
        out.append(r)
        v = (v - r) >> width
    return out


def layers_mul_sub(p: IntPoly, e: Optional[IntPoly], f: IntPoly = (), t: Optional[IntPoly] = None) -> IntPoly:
    """p*e - f*t over the integers, a missing ``e`` or ``t`` read as zero."""
    out = [0] * max(len(p) + len(e) - 1 if e else 0, len(f) + len(t) - 1 if t else 0)
    if e:
        for i, a in enumerate(p):
            if a:
                for k, b in enumerate(e, i):
                    out[k] += a * b
    if t:
        for i, a in enumerate(f):
            if a:
                for k, b in enumerate(t, i):
                    out[k] -= a * b
    while out and not out[-1]:
        out.pop()
    return out


def layers_exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """The quotient a / b in the polynomial ring over the integers.

    Long division from the top; every quotient coefficient must be an
    integer and the remainder zero, or ``ArithmeticError`` is raised.
    """
    db = len(b) - 1
    lead = b[-1]
    if not db:              # a constant divisor, as every pivot of the even system is
        q = []
        for c in a:
            f, r = divmod(c, lead)
            if r:
                raise ArithmeticError(f"inexact division: {a} by {b}")
            q.append(f)
        return q
    rem = list(a)
    q = [0] * max(len(rem) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + db]
        if c:
            f, r = divmod(c, lead)
            if r:
                raise ArithmeticError(f"inexact division: {a} by {b}")
            q[k] = f
            for i in range(db):
                rem[k + i] -= f * b[i]
    if any(rem[:min(db, len(rem))]):
        raise ArithmeticError(f"inexact division: {a} by {b}")
    return q


def poly_gcd(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Monic gcd in the polynomial ring over the rationals."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * LambdaPoly([1 / a.leading()])


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<coef>\d+(?:/\d+)?)(?P<times>\s*\*\s*)?)?"
    r"(?P<lam>L(?:\s*\^\s*(?P<pow>\d+))?)?\s*"
)


def parse_lambda_poly(s: str) -> LambdaPoly:
    """Parse the textual form produced by ``str(LambdaPoly)``.

    Terms are  coef,  L^k  or  coef*L^k  (``^k`` optional), each after the
    first behind one sign; anything else raises ``ValueError``.
    """
    s = s.strip()
    if s == "0":
        return ZERO
    if not s:
        raise ValueError("empty parameter polynomial")
    out = ZERO
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        coef, lam = m.group("coef"), m.group("lam")
        if (pos and not m.group("sign")) or not (coef or lam) or bool(m.group("times")) != bool(coef and lam):
            raise ValueError(f"bad parameter polynomial near {s[pos:]!r}")
        try:
            value = Fraction(coef) if coef else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
        power = int(m.group("pow") or 1) if lam else 0
        out = out + LambdaPoly([Fraction(0)] * power + [-value if m.group("sign") == "-" else value])
        pos = m.end()
    return out


def _primitive_integers(coeffs: list[Fraction]) -> list[int]:
    """Coprime integers proportional to ``coeffs``: denominators cleared,
    integer content divided out."""
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    content = math.gcd(*ints)
    return [a // content for a in ints]


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, with the convention that 0 has divisor 1."""
    n = abs(n)
    if n == 0:
        return [1]
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
