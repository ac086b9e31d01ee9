"""Scalar generalized Verma module, by a closed-form action of second order.

The parabolic is the one crossing out the first simple root of so(7); its
opposite nilradical is commutative with ordered basis

    y1 = g_-1,  y2 = g_-8,  y3 = g_-6,  y4 = g_-9,  y5 = g_-4,

so module vectors are polynomials in the y's applied to the highest weight
vector.  The inducing character takes the value  lam * (diagonal at the
first plus vector)  on Cartan elements and zero on the rest of the
parabolic.

The eps1-coordinate of a root grades so(7) as  g_-1 + g_0 + g_1  (checked
from the bracket table when the module is built: the y's span g_-1 and every
bracket lands in the sum of the grades).  Moving an element X of grade g
right through y^m and writing  d_i(y^m) = m_i y^(m - e_i)  gives

    g = -1:  X y^m v = (X y^m) v,  a product in the commutative y's,
    g =  0:  X y^m v = chi(X) y^m + sum_i d_i(y^m) [X, y_i],
    g = +1:  X y^m v = sum_i chi([X, y_i]) d_i(y^m)
                       + 1/2 sum_{i,j} d_i d_j(y^m) [[X, y_i], y_j],

where the brackets, of grade -1, act by multiplication.  So X acts by
*moves*  (i, j, delta, c):  y^m goes to  c * mult * y^(m + delta),  with
mult = 1, m_i, or m_i (m - e_i)_j  for no derivative, d_i, or d_i d_j.
``chi(X)``, ``[X, y_i]`` and ``[[X, y_i], y_j]`` are tabulated as moves once
per basis label, with the parameter symbolic, so memory does not grow with
the degree.  Read in the dual coordinates, the moves are the normal-ordered
terms of the differential operator by which X acts (the F-method operator):
the move (i, j, delta) with coefficient c is the term
c x^(delta + e_i + e_j) d_i d_j,  where j = -1 drops e_j and d_j, and
i = -1 drops e_i and d_i as well (``operator_terms``).

Each call compiles its element once: the labels' moves are merged (moves
that agree in (i, j, delta) are summed) and each delta becomes the offset
of a packed code.  A monomial is packed into one ``int`` with its degree in the
top field and one field per exponent, the field width taken from the
input's largest exponent, so a move is one addition to the code and one
multiply-add of coefficients.  Over ``LambdaPoly`` this is the symbolic
action (``_apply``, which ``singular_search`` also runs on one monomial at
a time with integer coefficients).  At a rational parameter value the
coefficients are evaluated there and scaled to integers by one common
denominator, and the vector is acted on in columns (``_final_slabs``): its
terms are grouped into slabs of one (x1 exponent, degree), each a column of
packed codes, one of integer values and five of exponents; the moves of one
exponent change scale the values by their summed multipliers, and the
Python ``int`` sums are held for a window of output slabs, each handed on
(divided once, or only tested for zero by the certificate checks) as soon
as no later input slab can reach it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .liealg import Element, Label, StructureTable, WeightVec, eps_weight
from .linsolve import kernel_basis
from .polynomials import (
    Monomial,
    NVARS,
    XiPolynomial,
    format_terms,
    pack_monomial,
    parse_terms,
    term_sort_key,
    unpack_monomial,
)
from .scalars import LAMBDA, ONE, ZERO, LambdaPoly, Scalar

# a move (i, j, delta): derivative positions (-1 for none) and exponent change
Move = Tuple[int, int, Monomial]
# compiled moves sharing their exponent change:
# (code offset, x1 change, degree change, ((i, j, coefficient), ...))
Group = Tuple[int, int, int, Tuple[Tuple[int, int, Scalar], ...]]
# the terms of one (x1 exponent, degree) at a parameter value, in columns:
# (x1 exponent, degree, packed codes, integer values, exponent columns)
Slab = Tuple[int, int, List[int], List[int], List[Tuple[int, ...]]]

# coordinate order of the opposite nilradical (labels of y1..y5)
COORD_LABELS: Tuple[int, ...] = (-1, -8, -6, -9, -4)

_VERMA_NAMES = tuple(f"g_{l}" for l in COORD_LABELS) + ("v",)


class VermaVector(XiPolynomial):
    """A module vector: ordered monomials in the y's applied to the cyclic
    vector v.  Its terms are those of its Fourier-dual polynomial, and all of
    its arithmetic is ``XiPolynomial``'s; only the printer differs, writing
    ``4*g_-1*g_-9*v`` where the polynomial writes ``4*x1*x4``."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_terms(((m + (1,), c) for m, c in self.sorted_terms()), _VERMA_NAMES)


def parse_verma(s: str) -> VermaVector:
    """Inverse of ``str(VermaVector)``; every term must end in 'v'.

    No engine path reads module vectors back: this parser is the test
    oracle that round-trips printed certificates.
    """
    s = s.strip()
    if s == "0":
        return VermaVector.zero()
    out: Dict[Monomial, LambdaPoly] = {}
    for expo, coeff in parse_terms(s, _VERMA_NAMES):
        if expo[-1] != 1:
            raise ValueError("each term must carry the cyclic vector exactly once")
        m = tuple(expo[:-1])
        out[m] = out.get(m, LambdaPoly()) + coeff
    return VermaVector(out)


class VermaModule:
    """Scalar-type module over so(7) for the first-root parabolic."""

    def __init__(self, so7: StructureTable):
        if so7.name != "so7":
            raise ValueError("the module is specific to so(7)")
        self.so7 = so7
        self.coord_index: Dict[int, int] = {l: i for i, l in enumerate(COORD_LABELS)}
        self.nilradical_neg = set(COORD_LABELS)
        grade = _first_root_grading(so7)
        self._char: Dict[Label, LambdaPoly] = {}
        for l in so7.labels:
            if isinstance(l, str):
                self._char[l] = LAMBDA * so7.matrices[l][0][0]
            elif l not in self.nilradical_neg:
                self._char[l] = LambdaPoly()
        # one action table per basis label
        self._memo: Dict[Label, Dict[Move, LambdaPoly]] = {
            l: self._action_table(l, grade[l]) for l in so7.labels
        }

    def _y_coords(self, x: Element) -> Tuple[Tuple[int, Fraction], ...]:
        """A grade -1 element as (coordinate position, coefficient) pairs."""
        return tuple((self.coord_index[l], c) for l, c in x.items() if c)

    def _chi(self, x: Element) -> LambdaPoly:
        """The inducing character on a parabolic element."""
        out = LambdaPoly()
        for l, c in x.items():
            out = out + self._char[l] * c
        return out

    def _action_table(self, label: Label, g: int) -> Dict[Move, LambdaPoly]:
        """One label's action as moves  (i, j, delta) -> coefficient.

        Grade -1 multiplies by its y-coordinate; grade 0 keeps chi(X) and
        [X, y_i] by i; grade +1 keeps chi([X, y_i]) by i and
        1/2 [[X, y_i], y_j]  by i <= j, the 1/2 folded in and the (i, j) and
        (j, i) terms of the second-order sum added together.
        """
        moves: Dict[Move, LambdaPoly] = {}

        def add(i: int, j: int, delta: Monomial, c) -> None:
            key = (min(i, j), max(i, j), delta) if j >= 0 else (i, j, delta)
            moves[key] = moves.get(key, ZERO) + c

        if g == -1:
            add(-1, -1, _delta(self.coord_index[label]), ONE)
            return moves
        x = {label: Fraction(1)}
        ys = [{l: Fraction(1)} for l in COORD_LABELS]
        first = [self.so7.bracket(x, y) for y in ys]            # [X, y_i]
        if g == 0:
            chi = self._chi(x)
            if chi:
                add(-1, -1, _delta(), chi)
            for i, b in enumerate(first):
                for k, c in self._y_coords(b):
                    add(i, -1, _delta(k, i), c)
            return moves
        for i, b in enumerate(first):
            chi = self._chi(b)
            if chi:
                add(i, -1, _delta(None, i), chi)
            for j, y in enumerate(ys):
                for k, c in self._y_coords(self.so7.bracket(b, y)):   # [[X, y_i], y_j]
                    add(i, j, _delta(k, i, j), _HALF * c)
        return moves

    def _moves(self, key: frozenset) -> Dict[Move, LambdaPoly]:
        """The moves of the element with nonzero items ``key``: moves that
        agree in (i, j, delta) summed over its labels, zero sums left out."""
        merged: Dict[Move, LambdaPoly] = {}
        for l, c in key:
            for move, a in self._memo[l].items():
                merged[move] = merged.get(move, ZERO) + a * c
        return {move: a for move, a in merged.items() if a}

    def operator_terms(self, x: Element) -> Dict[Tuple[Monomial, Monomial], LambdaPoly]:
        """The action of ``x`` as normal-ordered operator terms
        ``(xm, dm) -> c``, each the term  c x^xm d^dm.

        Each merged move is one term, since  d_i d_j x^m = m_i (m - e_i)_j
        x^(m - e_i - e_j):  the move (i, j, delta) is  x^(delta + e_i + e_j)
        d_i d_j,  with no d_j for j = -1 and no derivative for i = -1.
        """
        terms: Dict[Tuple[Monomial, Monomial], LambdaPoly] = {}
        for (i, j, delta), c in self._moves(_element_key(x)).items():
            dm = [0] * NVARS
            for k in (i, j):
                if k >= 0:
                    dm[k] += 1
            terms[(tuple(map(add, delta, dm)), tuple(dm))] = c
        return terms

    def _compile(self, x: Element, w: int, lam: Optional[Fraction] = None) -> Tuple[List[Group], int]:
        """The action of ``x`` on codes of field width ``w``, and a denominator.

        The merged moves are grouped by their exponent change (``_group``),
        each turned into the offset of the packed code.  Without ``lam`` the coefficients are
        parameter polynomials and the denominator is 1.  With ``lam`` they
        are the values at ``lam`` times their least common denominator
        ``den``, so the action is 1/den times the integer one.
        """
        key = _element_key(x)
        if lam is None:
            return _group(self._moves(key), w), 1
        values = {move: q for move, q in ((move, a(lam)) for move, a in self._moves(key).items()) if q}
        den = math.lcm(*(q.denominator for q in values.values()))
        return _group({move: q.numerator * (den // q.denominator) for move, q in values.items()}, w), den

    # -- the action -------------------------------------------------------

    def _act_symbolic(self, x: Element, terms: Dict[Monomial, LambdaPoly]) -> VermaVector:
        w = _width(terms)
        groups, _ = self._compile(x, w)
        out: Dict[int, LambdaPoly] = {}
        _apply(groups, ((pack_monomial(m, w), c) for m, c in terms.items()), w, out, ZERO)
        return VermaVector({unpack_monomial(t, w): c for t, c in out.items()})

    def act_basis(self, label: Label, m: Monomial) -> VermaVector:
        """Action of a basis element on a single ordered monomial."""
        return self._act_symbolic({label: Fraction(1)}, {tuple(m): ONE})

    def _slabs(self, v: VermaVector, lam: Fraction) -> Tuple[List[Slab], int, int]:
        """``v`` at ``lam`` over the integers, in slabs; with the common
        denominator ``dv`` of its values and the field width.

        A slab holds the terms of one (x1 exponent, degree), in ascending
        order of that pair, as columns: the packed codes, the values times
        ``dv`` (a value whose denominator is ``dv`` keeps its numerator
        object) and the five exponent columns, taken from the monomials with
        ``zip``.  Nothing is unpacked.
        """
        values = [c(lam) for c in v.terms.values()]
        dv = math.lcm(*(q.denominator for q in values))
        w = _width(v.terms)
        parts: Dict[Tuple[int, int], Tuple[List[Monomial], List[int]]] = {}
        for m, q in zip(v.terms, values):
            monos, ints = parts.setdefault((m[0], sum(m)), ([], []))
            monos.append(m)
            ints.append(q.numerator if q.denominator == dv else q.numerator * (dv // q.denominator))
        del values
        slabs: List[Slab] = []
        for x1, d in sorted(parts):
            monos, ints = parts.pop((x1, d))
            columns = list(zip(*monos))
            low = columns[1]                     # the x2..x5 fields, by Horner in columns
            for column in columns[2:]:
                low = map(add, map((1 << w).__mul__, low), column)
            top = ((d << w) + x1) << (4 * w)
            slabs.append((x1, d, list(map(top.__add__, low)), ints, columns))
        return slabs, dv, w

    def act(self, x: Element, v: VermaVector, lam: Optional[Fraction] = None) -> VermaVector:
        """Exact module action of a so(7) element.

        With ``lam`` the result is the action at that parameter value, equal to
        ``act(x, v).evaluate_lambda(lam)``.  It is computed over the integers
        by the slab kernel ``_final_slabs``: the values of ``v`` at ``lam``
        are scaled by their common denominator, and the moves of ``x`` by
        theirs; the final output slabs are collected, and each sum is divided
        by the product of the two denominators once.
        """
        if lam is None:
            return self._act_symbolic(x, v.terms)
        slabs, dv, w = self._slabs(v, lam)
        groups, den = self._compile(x, w, lam)
        den *= dv
        return VermaVector({unpack_monomial(t, w): Fraction(n, den)
                            for sums in _final_slabs(slabs, groups) for t, n in sums.items()})

    def annihilates(self, elements: Sequence[Element], v: VermaVector, lam: Fraction) -> List[bool]:
        """Whether each element kills ``v`` at ``lam``.

        ``v`` is put in slabs once (``_slabs``), and elements that are equal
        are acted with once.  The slab kernel ``_final_slabs`` hands over
        each output slab of the integer action once no later input slab can
        add to it; its sums are tested for zero there and dropped, so only a
        window of a few slabs is held, and an element's check stops at its
        first nonzero slab.
        """
        slabs, _, w = self._slabs(v, lam)
        verdicts: Dict[frozenset, bool] = {}
        out = []
        for x in elements:
            key = _element_key(x)
            if key not in verdicts:
                groups, _ = self._compile(x, w, lam)
                verdicts[key] = not any(any(sums.values()) for sums in _final_slabs(slabs, groups))
            out.append(verdicts[key])
        return out

    # -- weights -----------------------------------------------------------

    def weight_of(self, v: VermaVector) -> WeightVec:
        """Orthonormal-basis weight of a weight-homogeneous vector.

        Coordinates are parameter polynomials: the highest weight itself is
        lam * eps1.  Raises on inhomogeneous input.  The monomials' root sums
        are compared over the integers, the roots scaled by their common
        denominator, one coordinate at a time in the exponent columns.
        """
        if v.is_zero():
            raise ValueError("zero vector has no weight")
        roots = [self.so7.roots[l].coords for l in COORD_LABELS]
        den = math.lcm(*(c.denominator for root in roots for c in root))
        scaled = [[c.numerator * (den // c.denominator) for c in root] for root in roots]
        columns = list(zip(*v.terms))
        shift = []
        for k in range(3):
            sums = set(map(sum, zip(*(map(root[k].__mul__, column) for root, column in zip(scaled, columns)))))
            if len(sums) > 1:
                raise ValueError("vector is not weight-homogeneous")
            shift.append(Fraction(sums.pop(), den))
        return eps_weight((LAMBDA + shift[0], LambdaPoly.const(shift[1]), LambdaPoly.const(shift[2])))

    # -- singular vector search ---------------------------------------------

    def monomials_of_degree(self, d: int) -> List[Monomial]:
        out: List[Monomial] = []

        def rec(prefix: List[int], left: int, pos: int):
            if pos == NVARS - 1:
                out.append(tuple(prefix + [left]))
                return
            for k in range(left + 1):
                rec(prefix + [k], left - k, pos + 1)

        rec([], d, 0)
        out.sort(key=term_sort_key, reverse=True)
        return out

    def singular_search(
        self,
        degree: int,
        lam0: Fraction,
        annihilators: Sequence[Element],
    ) -> List[VermaVector]:
        """Exact kernel of the stacked annihilator action in one degree.

        The degree space splits by Cartan weight, and each block is solved
        separately, its kernel concatenated to the others': every
        annihilator is a weight vector, so its action maps the monomials of
        one weight into one weight space, and the stacked matrix is block
        diagonal in these blocks.  That keeps the elimination small.

        The action runs at ``lam0`` over the integers: it is 1/den times the
        integer action of the compiled moves, with ``den`` the annihilator's
        common denominator.  Each row of the matrix is one (annihilator,
        output monomial) pair, so dividing it by ``den`` would scale the
        whole row, which leaves the kernel unchanged; the integer rows go to
        ``kernel_basis`` undivided, and its canonical basis does not depend
        on the order of the rows either.
        """
        if degree < 0:
            raise ValueError("degree must be non-negative")
        monos = self.monomials_of_degree(degree)
        blocks: Dict[Tuple[int, int], List[Monomial]] = {}
        for m in monos:
            key = (m[0] - m[3], m[4] - m[1])
            blocks.setdefault(key, []).append(m)

        w = _width(monos)
        actions = [self._compile(ann, w, lam0)[0] for ann in annihilators]
        vectors: List[VermaVector] = []
        for key in sorted(blocks):
            block = blocks[key]
            # one row per (annihilator, output monomial)
            rows: List[Dict[int, List[int]]] = [{} for _ in actions]
            for col, m in enumerate(block):
                code = pack_monomial(m, w)
                for groups, out in zip(actions, rows):
                    image: Dict[int, int] = {}
                    _apply(groups, ((code, 1),), w, image, 0)
                    for t, val in image.items():
                        if val:
                            row = out.get(t)
                            if row is None:
                                row = out[t] = [0] * len(block)
                            row[col] += val
            matrix = [row for out in rows for row in out.values()]
            if not matrix:
                kernel = [
                    [Fraction(1) if i == j else Fraction(0) for j in range(len(block))]
                    for i in range(len(block))
                ]
            else:
                kernel = kernel_basis(matrix)
            for vec in kernel:
                vectors.append(
                    VermaVector(
                        {m: LambdaPoly.const(c) for m, c in zip(block, vec) if c != 0}
                    )
                )
        return vectors


_HALF = Fraction(1, 2)


def _first_root_grading(so7: StructureTable) -> Dict[Label, int]:
    """Grade of each basis label: the eps1-coordinate of its root, 0 on the Cartan.

    Checks from the bracket table that the grading is |1| with the
    y-coordinates as its grade -1 part, which is what the closed-form action
    needs: the opposite nilradical is then commutative and each so(7)
    element acts by a differential operator of order at most 2.
    """
    grade = {l: so7.roots[l].coords[0] if l in so7.roots else Fraction(0) for l in so7.labels}
    if not set(grade.values()) <= {-1, 0, 1}:
        raise ValueError("the first-root grading of so(7) is not a |1|-grading")
    if {l for l, g in grade.items() if g == -1} != set(COORD_LABELS):
        raise ValueError("the grade -1 part is not spanned by the y-coordinates")
    for (a, b), val in so7.brackets.items():
        for l, c in val.items():
            if c and grade[l] != grade[a] + grade[b]:
                raise ValueError(f"bracket [{a}, {b}] leaves grade {grade[a] + grade[b]}")
    return {l: int(g) for l, g in grade.items()}


def _element_key(x: Element) -> frozenset:
    """The nonzero items of an element: equal elements have equal keys."""
    return frozenset((l, c) for l, c in x.items() if c)


def _delta(plus: Optional[int] = None, *minus: int) -> Monomial:
    """The exponent change  e_plus - sum(e_minus)  (no plus term for None)."""
    d = [0] * NVARS
    if plus is not None:
        d[plus] += 1
    for k in minus:
        d[k] -= 1
    return tuple(d)


def _width(monomials) -> int:
    """Field width for packing ``monomials`` and the results of one action
    on them: no move raises an exponent by more than one."""
    top = max(map(max, zip(*monomials)), default=0)
    return (top + 1).bit_length()


def _group(coeffs: Dict[Move, Scalar], w: int) -> List[Group]:
    """Moves grouped by their exponent change: they land on the same codes.
    Each change is packed to a code offset and kept with its x1 and degree
    parts, which place an output slab."""
    groups: Dict[Monomial, List[Tuple[int, int, Scalar]]] = {}
    for (i, j, delta), a in coeffs.items():
        groups.setdefault(delta, []).append((i, j, a))
    return [(pack_monomial(delta, w), delta[0], sum(delta), tuple(moves)) for delta, moves in groups.items()]


def _final_slabs(slabs: List[Slab], groups: List[Group]) -> Iterator[Dict[int, int]]:
    """The integer action of ``groups`` on ``slabs``, one output slab at a
    time: the sums by code of one (x1 exponent, degree), yielded once final.

    The input slabs ascend in x1 exponent, and ``lowest`` is the least x1
    change of a group, so when an input slab of x1 exponent p comes, every
    output slab below p + lowest is final.  A group's multipliers  a,  a m_i  or
    a m_i (m - e_i)_j  are summed in small-integer columns first; the terms
    whose sum is zero are left out, and each other term is one product and
    one addition.
    """
    lowest = min((dx1 for _, dx1, _, _ in groups), default=0)
    window: Dict[Tuple[int, int], Dict[int, int]] = {}
    for x1, d, codes, values, columns in slabs:
        for key in [k for k in window if k[0] < x1 + lowest]:
            yield window.pop(key)
        for off, dx1, dd, moves in groups:
            factors = None
            for i, j, a in moves:
                if i < 0:
                    column = repeat(a, len(codes))
                else:
                    column = map(mul, columns[i], repeat(a))
                    if j >= 0:
                        column = map(mul, column, map(sub, columns[j], repeat(1)) if i == j else columns[j])
                factors = column if factors is None else map(add, factors, column)
            factors = list(factors)
            out = window.setdefault((x1 + dx1, d + dd), {})
            get = out.get
            for t, k in zip(compress(codes, factors), map(mul, compress(values, factors), filter(None, factors))):
                t += off
                out[t] = get(t, 0) + k
    yield from window.values()


def _apply(groups: List[Group], terms, w: int, out: Dict[int, Scalar], zero: Scalar) -> None:
    """Add the compiled action on the packed (code, coefficient) ``terms``
    into ``out``, one term at a time: one multiply-add per group and term.

    A move (i, j, a) of a group contributes a (i = j = -1), a m_i (j = -1),
    or a m_i (m - e_i)_j, the second derivative d_i d_j.  The coefficients,
    the terms' and ``zero`` share one ring: ``LambdaPoly`` or ``int``.
    """
    mask = (1 << w) - 1
    shifts = [k * w for k in range(NVARS - 1, -1, -1)]
    get = out.get
    for code, c in terms:
        e = [(code >> s) & mask for s in shifts]
        for off, _, _, moves in groups:
            k = None
            for i, j, a in moves:
                if i >= 0:
                    mult = e[i] if j < 0 else e[i] * (e[j] - (i == j))
                    if not mult:
                        continue
                    a = a * mult
                k = a if k is None else k + a
            if k:
                t = code + off
                out[t] = get(t, zero) + c * k
