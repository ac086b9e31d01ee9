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
i = -1 drops e_i and d_i as well (``operator``).

The move tables have two readers.  With the parameter symbolic, ``act``
applies that operator (``op_apply``), so the identification of the module
action with the F-method operator is written once.  At a rational parameter
value the element is compiled once: the merged moves are evaluated there,
scaled to integers by one common denominator, and grouped by exponent
change, each change the offset of a packed code.  A monomial is packed into
one ``int`` with its degree in the top field and one field per exponent, the
field width taken from the input's largest exponent, so a move is one
addition to the code.  A group's multipliers  a,  a m_i  or  a m_i (m - e_i)_j
are summed over a column of monomials at once (``_multipliers``), from their
five exponent columns.  ``act`` and ``annihilates`` read them in slabs
(``_final_slabs``): the vector's terms are grouped into slabs of one
(x1 exponent, degree), each a column of packed codes, one of integer values
and five of exponents, and the Python ``int`` sums are held for a window of
output slabs, each handed on (divided once, or only tested for zero by the
certificate checks) as soon as no later input slab can reach it.
``singular_search`` reads them over each weight block of its degree, one
matrix row per (annihilator, output code), each block made from its key.  It
lists and solves only the blocks that can hold a kernel.  The action at a
fixed parameter value is a representation, [X, Y] v = X Y v - Y X v, so the
elements that kill a vector form a Lie subalgebra, and two tests, each
decided per block key on one representative monomial, skip a block exactly:

* a Cartan element among the annihilators and their pairwise brackets kills
  every vector they all kill; it acts on a weight block by one scalar, the
  value of the block's weight, so where that is nonzero the kernel is zero;
* when the annihilators generate the nilradical of the so(7) Borel, a vector
  they kill is a highest-weight vector, so by Harish-Chandra's theorem its
  weight mu satisfies  mu + rho in W(lam * eps1 + rho);  a block whose
  weight fails this has an empty kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from operator import add, mul, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .liealg import Element, Label, StructureTable, WeightVec, _positive_roots_so_odd, eps_weight
from .linsolve import kernel_basis
from .operators import DiffOperator, op_apply
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
from .scalars import LAMBDA, ONE, ZERO, LambdaPoly

# a move (i, j, delta): derivative positions (-1 for none) and exponent change
Move = Tuple[int, int, Monomial]
# compiled moves sharing their exponent change:
# (code offset, x1 change, degree change, ((i, j, integer coefficient), ...))
Group = Tuple[int, int, int, Tuple[Tuple[int, int, int], ...]]
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
                self._char[l] = LAMBDA * so7.matrices[l].get((0, 0), Fraction(0))
            elif l not in self.nilradical_neg:
                self._char[l] = LambdaPoly()
        # one action table per basis label
        self._memo: Dict[Label, Dict[Move, LambdaPoly]] = {
            l: self._action_table(l, grade[l]) for l in so7.labels
        }
        # annihilator lists (by element keys) -> whether they generate the
        # Borel nilradical; filled by ``singular_search``
        self._generates: Dict[Tuple[frozenset, ...], bool] = {}

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

    def operator(self, x: Element) -> DiffOperator:
        """The normal-ordered differential operator by which ``x`` acts: its
        terms ``(xm, dm) -> c``, each  c x^xm d^dm,  are the merged moves.

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
        return DiffOperator(terms)

    def _compile(self, x: Element, w: int, lam: Fraction) -> Tuple[List[Group], int]:
        """The action of ``x`` at ``lam`` on codes of field width ``w``, and a
        denominator.

        The merged moves are evaluated at ``lam`` and scaled by their least
        common denominator ``den``, so the action is 1/den times the integer
        one; they are grouped by their exponent change (``_group``), each
        turned into the offset of the packed code.
        """
        values = {move: q for move, q in ((move, a(lam)) for move, a in self._moves(_element_key(x)).items()) if q}
        den = math.lcm(*(q.denominator for q in values.values()))
        return _group({move: q.numerator * (den // q.denominator) for move, q in values.items()}, w), den

    # -- the action -------------------------------------------------------

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

        Without ``lam`` the parameter stays symbolic, and the action is the
        read-off operator (``operator``) applied to ``v`` by ``op_apply``.
        With ``lam`` the result is the action at that parameter value, equal to
        ``act(x, v).evaluate_lambda(lam)``.  It is computed over the integers
        by the slab kernel ``_final_slabs``: the values of ``v`` at ``lam``
        are scaled by their common denominator, and the moves of ``x`` by
        theirs; the final output slabs are collected, and each sum is divided
        by the product of the two denominators once.
        """
        if lam is None:
            return VermaVector._of_terms(op_apply(self.operator(x), v).terms)
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
        diagonal in these blocks.  That keeps the elimination small.  A
        block is named by its key (a, b) = (m1 - m4, m5 - m2), the eps2 and
        eps3 coordinates of its weight, and its monomials are made from the
        key (``_block_keys``, ``_block``) in ascending key order, each block
        in descending term order: no monomial of a skipped block is made.

        The action runs at ``lam0`` over the integers: it is 1/den times the
        integer action of the compiled moves, with ``den`` the annihilator's
        common denominator.  Each row of the matrix is one (annihilator,
        output monomial) pair, so dividing it by ``den`` would scale the
        whole row, which leaves the kernel unchanged; the integer rows go to
        ``kernel_basis`` undivided.  A block's codes and exponent columns are
        taken once, and each group of an annihilator fills its rows from one
        multiplier column over the whole block (``_multipliers``).  The
        canonical kernel does not depend on the order of the rows, but the
        cost of the elimination does: the rows of an annihilator go in
        descending order of their output code.

        Two tests skip a block, with no rows and no elimination, and each is
        decided from the key alone, on one representative monomial
        (``_representative``), before the block is listed.  Both rest on the
        action at ``lam0`` being a representation, [X, Y] v = X Y v - Y X v,
        so every vector the annihilators kill is killed by the whole Lie
        subalgebra they generate.

        * Cartan-injective.  Those of the annihilators and their pairwise
          brackets whose compiled action is one group with no exponent
          change are Cartan elements.  Such an H acts on y^m v by the value
          of the monomial's weight on H, which is one number on the whole
          block; if it is nonzero there, H is injective on the block and the
          block's kernel is zero.  With e and f of the Levi sl(2) in the p'
          set, h = [e, f] leaves 11 of the 221 blocks at degree 10.
        * Linkage, applied only when the annihilators generate the
          nilradical of the so(7) Borel: every positive root vector lies in
          the subalgebra they generate (``StructureTable.generated_span``,
          decided once per list and kept on the module).  A vector of
          weight mu they kill is then a highest-weight vector, and the
          centre of U(so(7)) acts on it by the central character of mu; it
          acts on all of the module by that of lam0 * eps1, the module being
          a quotient of the Verma module of that highest weight.  By
          Harish-Chandra's theorem the two agree only if mu + rho lies in
          the Weyl group orbit of lam0 * eps1 + rho (``_linkage_test``), so
          an unlinked block's kernel is zero.  The weight is constant on a
          block, so one representative decides it.  The Borel set keeps 8
          of the 221 blocks at degree 10 and lambda 5/2.

        The result is exactly the unpruned one.
        """
        if degree < 0:
            raise ValueError("degree must be non-negative")
        w = (degree + 1).bit_length()           # ``_width`` of the degree's monomials
        actions = [self._compile(ann, w, lam0)[0] for ann in annihilators]
        # the annihilators and their brackets that act diagonally at lam0
        brackets = (self._compile(self.so7.bracket(a, b), w, lam0)[0]
                    for a, b in combinations(annihilators, 2))
        diagonal = [groups[0][3] for groups in chain(actions, brackets)
                    if len(groups) == 1 and groups[0][0] == 0]
        linked = self._linkage_test(lam0) if self._generates_borel_nilradical(annihilators) else None
        vectors: List[VermaVector] = []
        for a, b in _block_keys(degree):
            rep = _representative(a, b, degree)
            if linked is not None and not linked(rep):
                continue
            columns = [[e] for e in rep]
            if any(_multipliers(moves, columns, 1)[0] for moves in diagonal):
                continue
            block = _block(a, b, degree)
            n = len(block)
            columns = list(zip(*block))
            codes = [pack_monomial(m, w) for m in block]
            matrix: List[List[int]] = []
            for groups in actions:
                # one row per output code; one input code meets each output
                # code in at most one group
                rows: Dict[int, List[int]] = {}
                for off, _, _, moves in groups:
                    factors = _multipliers(moves, columns, n)
                    for col, t, k in zip(compress(range(n), factors), compress(codes, factors),
                                         filter(None, factors)):
                        t += off
                        row = rows.get(t)
                        if row is None:
                            row = rows[t] = [0] * n
                        row[col] = k
                matrix += [rows[t] for t in sorted(rows, reverse=True)]
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

    def _generates_borel_nilradical(self, elements: Sequence[Element]) -> bool:
        """Whether ``elements`` generate a subalgebra holding every positive
        root vector of so(7); decided once per list of elements."""
        key = tuple(map(_element_key, elements))
        found = self._generates.get(key)
        if found is None:
            span = self.so7.generated_span(elements)
            found = self._generates[key] = all(
                span.contains(self.so7.coordinates({l: Fraction(1)})) for l in self.so7.positive_root_labels)
        return found

    def _linkage_test(self, lam0: Fraction):
        """The predicate on monomials of one degree: whether the weight mu of
        y^m v satisfies  mu + rho in W(lam0 * eps1 + rho).

        W is the 48 signed permutations of the eps coordinates, and a vector
        is in the orbit of another exactly when their sorted absolute values
        agree.  Everything is scaled by 2q, q the denominator of lam0, so
        the test runs on integers: 2q rho is q times the sum of the positive
        roots of ``_positive_roots_so_odd(3)``.
        """
        q = lam0.denominator
        two_rho = [int(sum(c)) for c in zip(*(eps for _, eps in _positive_roots_so_odd(3)))]
        target = sorted(abs(2 * lam0.numerator * (k == 0) + q * r) for k, r in enumerate(two_rho))
        roots = [[2 * q * int(c) for c in self.so7.roots[l].coords] for l in COORD_LABELS]

        def linked(m: Monomial) -> bool:
            shifted = (2 * lam0.numerator * (k == 0) + q * r + sum(map(mul, m, column))
                       for k, (r, column) in enumerate(zip(two_rho, zip(*roots))))
            return sorted(map(abs, shifted)) == target

        return linked


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


def _group(coeffs: Dict[Move, int], w: int) -> List[Group]:
    """Moves grouped by their exponent change: they land on the same codes.
    Each change is packed to a code offset and kept with its x1 and degree
    parts, which place an output slab."""
    groups: Dict[Monomial, List[Tuple[int, int, int]]] = {}
    for (i, j, delta), a in coeffs.items():
        groups.setdefault(delta, []).append((i, j, a))
    return [(pack_monomial(delta, w), delta[0], sum(delta), tuple(moves)) for delta, moves in groups.items()]


def _multipliers(moves: Tuple[Tuple[int, int, int], ...], columns: Sequence[Sequence[int]], n: int) -> List[int]:
    """A group's summed multiplier on each of ``n`` monomials, from their
    exponent columns: a move (i, j, a) contributes a (i = j = -1), a m_i
    (j = -1), or a m_i (m - e_i)_j, the second derivative d_i d_j."""
    factors = None
    for i, j, a in moves:
        if i < 0:
            column = repeat(a, n)
        else:
            column = map(mul, columns[i], repeat(a))
            if j >= 0:
                column = map(mul, column, map(sub, columns[j], repeat(1)) if i == j else columns[j])
        factors = column if factors is None else map(add, factors, column)
    return list(factors)


def _block_keys(d: int) -> Iterator[Tuple[int, int]]:
    """The keys (a, b) = (m1 - m4, m5 - m2) of the weight blocks of degree
    ``d``, ascending: those with |a| + |b| <= d."""
    for a in range(-d, d + 1):
        r = d - abs(a)
        yield from ((a, b) for b in range(-r, r + 1))


def _representative(a: int, b: int, d: int) -> Monomial:
    """One monomial of the block (a, b) of degree ``d``: the least m2, m4."""
    m2, m4 = max(0, -b), max(0, -a)
    return (a + m4, m2, d - abs(a) - abs(b), m4, b + m2)


def _block(a: int, b: int, d: int) -> List[Monomial]:
    """The monomials of the block (a, b) of degree ``d`` in descending term
    order (``term_sort_key``): m1 = a + m4, m5 = b + m2 and
    m3 = d - a - b - 2 (m2 + m4), so the order is m4 descending, then m2."""
    lo2, lo4 = max(0, -b), max(0, -a)
    free = d - a - b
    return [(a + m4, m2, free - 2 * (m2 + m4), m4, b + m2)
            for m4 in range((free - 2 * lo2) // 2, lo4 - 1, -1)
            for m2 in range((free - 2 * m4) // 2, lo2 - 1, -1)]


def _final_slabs(slabs: List[Slab], groups: List[Group]) -> Iterator[Dict[int, int]]:
    """The integer action of ``groups`` on ``slabs``, one output slab at a
    time: the sums by code of one (x1 exponent, degree), yielded once final.

    The input slabs ascend in x1 exponent, and ``lowest`` is the least x1
    change of a group, so when an input slab of x1 exponent p comes, every
    output slab below p + lowest is final.  A group's multipliers are summed
    in a small-integer column first (``_multipliers``); the terms whose sum
    is zero are left out, and each other term is one product and one
    addition.
    """
    lowest = min((dx1 for _, dx1, _, _ in groups), default=0)
    window: Dict[Tuple[int, int], Dict[int, int]] = {}
    for x1, d, codes, values, columns in slabs:
        for key in [k for k in window if k[0] < x1 + lowest]:
            yield window.pop(key)
        for off, dx1, dd, moves in groups:
            factors = _multipliers(moves, columns, len(codes))
            out = window.setdefault((x1 + dx1, d + dd), {})
            get = out.get
            for t, k in zip(compress(codes, factors), map(mul, compress(values, factors), filter(None, factors))):
                t += off
                out[t] = get(t, 0) + k
    yield from window.values()

