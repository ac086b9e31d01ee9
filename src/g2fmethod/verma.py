"""Scalar generalized Verma module, by a closed-form action of second order.

The parabolic is the one crossing out the first simple root of so(7); its
opposite nilradical is commutative with ordered basis

    y1 = g_-1,  y2 = g_-8,  y3 = g_-6,  y4 = g_-9,  y5 = g_-4,

so module vectors are polynomials in the y's applied to the highest weight
vector.  The inducing character takes the value  lam * (diagonal at the
first plus vector)  on Cartan elements and zero on the rest of the
parabolic.  The action tables keep the parameter symbolic, so one table
serves every specialization; an action at a given rational value (the
certificate checks, the kernel search) evaluates the tables it needs there,
scales them and the vector to integers by one common denominator, and
accumulates Python ``int``s, dividing once at the end.

The eps1-coordinate of a root grades so(7) as  g_-1 + g_0 + g_1  (checked
from the bracket table when the module is built: the y's span g_-1 and every
bracket lands in the sum of the grades).  Moving an element X of grade g
right through y^m and writing  d_i(y^m) = m_i y^(m - e_i)  gives

    g = -1:  X y^m v = (X y^m) v,  a product in the commutative y's,
    g =  0:  X y^m v = chi(X) y^m + sum_i d_i(y^m) [X, y_i],
    g = +1:  X y^m v = sum_i chi([X, y_i]) d_i(y^m)
                       + 1/2 sum_{i,j} d_i d_j(y^m) [[X, y_i], y_j],

where the brackets, of grade -1, act by multiplication.  ``chi(X)``,
``[X, y_i]`` and ``[[X, y_i], y_j]`` are tabulated once per basis label, so
memory does not grow with the degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .liealg import Element, Label, StructureTable, WeightVec, eps_weight
from .linsolve import kernel_basis
from .polynomials import Monomial, NVARS, format_terms, parse_terms, term_sort_key
from .scalars import LAMBDA, ONE, LambdaPoly, Scalar

# coordinate order of the opposite nilradical (labels of y1..y5)
COORD_LABELS: Tuple[int, ...] = (-1, -8, -6, -9, -4)

_VERMA_NAMES = tuple(f"g_{l}" for l in COORD_LABELS) + ("v",)


class VermaVector:
    """Sparse combination of ordered monomials applied to the cyclic vector."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, LambdaPoly]] = None):
        clean: Dict[Monomial, LambdaPoly] = {}
        if terms:
            for m, c in terms.items():
                c = LambdaPoly.coerce(c)
                if not c.is_zero():
                    clean[tuple(m)] = c
        self.terms = clean

    @staticmethod
    def zero() -> "VermaVector":
        return VermaVector()

    @staticmethod
    def highest_weight() -> "VermaVector":
        return VermaVector({(0,) * NVARS: LambdaPoly.const(1)})

    @staticmethod
    def monomial(m: Monomial, c=1) -> "VermaVector":
        return VermaVector({tuple(m): LambdaPoly.coerce(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "VermaVector") -> "VermaVector":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, LambdaPoly()) + c
        return VermaVector(out)

    def __neg__(self) -> "VermaVector":
        return VermaVector({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-other)

    def scale(self, c) -> "VermaVector":
        c = LambdaPoly.coerce(c)
        return VermaVector({m: v * c for m, v in self.terms.items()})

    def shift(self, var_index: int) -> "VermaVector":
        """Multiply by the basis generator at coordinate position (0-based)."""
        out = {}
        for m, c in self.terms.items():
            mm = list(m)
            mm[var_index] += 1
            out[tuple(mm)] = c
        return VermaVector(out)

    def evaluate_lambda(self, x: Fraction) -> "VermaVector":
        return VermaVector({m: LambdaPoly.const(c(x)) for m, c in self.terms.items()})

    def degrees(self) -> set:
        return {sum(m) for m in self.terms}

    def sorted_terms(self):
        for m in sorted(self.terms, key=term_sort_key, reverse=True):
            yield m, self.terms[m]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return format_terms(
            ((m + (1,), c) for m, c in self.sorted_terms()), _VERMA_NAMES
        )

    def __repr__(self) -> str:
        return f"VermaVector({self})"


def parse_verma(s: str) -> VermaVector:
    """Inverse of ``str(VermaVector)``; every term must end in 'v'."""
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
        self._memo: Dict[Label, Tuple[int, object, object]] = {
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

    def _action_table(self, label: Label, g: int) -> Tuple[int, object, object]:
        """One label's action table: (grade, character part, bracket part).

        Grade -1 keeps the position of its y-coordinate (the action
        multiplies); grade 0 keeps chi(X) and [X, y_i] by i; grade +1 keeps
        chi([X, y_i]) by i and  1/2 [[X, y_i], y_j]  by i and j, the 1/2 of
        the second-order term folded in.  Brackets are kept as ``_y_coords``
        pairs.
        """
        if g == -1:
            return g, self.coord_index[label], None
        x = {label: Fraction(1)}
        ys = [{l: Fraction(1)} for l in COORD_LABELS]
        first = [self.so7.bracket(x, y) for y in ys]            # [X, y_i]
        if g == 0:
            return g, self._chi(x), tuple(self._y_coords(b) for b in first)
        second = tuple(
            tuple(
                tuple((k, _HALF * c) for k, c in self._y_coords(self.so7.bracket(b, y)))
                for y in ys                                     # 1/2 [[X, y_i], y_j]
            )
            for b in first
        )
        return g, tuple(self._chi(b) for b in first), second

    def _integer_table(self, label: Label, lam: Fraction) -> Tuple[Tuple[int, object, object], int]:
        """The label's action table at ``lam``, times its least common
        denominator ``den``, so every scalar in it is an ``int``; with ``den``."""
        table = self._memo[label]
        g, chi, brackets = table
        if g == -1:
            return table, 1
        chis = [c(lam) for c in ((chi,) if g == 0 else chi)]
        cells = brackets if g == 0 else [cell for row in brackets for cell in row]
        den = math.lcm(*(q.denominator for q in chis),
                       *(c.denominator for cell in cells for _, c in cell))

        def up(q: Fraction) -> int:
            return q.numerator * (den // q.denominator)

        def up_cell(cell):
            return tuple((k, up(c)) for k, c in cell)

        if g == 0:
            return (g, up(chis[0]), tuple(up_cell(cell) for cell in brackets)), den
        return (g, tuple(up(q) for q in chis),
                tuple(tuple(up_cell(cell) for cell in row) for row in brackets)), den

    def _integer_action(self, x: Element, lam: Fraction) -> Tuple[List[Tuple[object, int]], int]:
        """The action of ``x`` at ``lam`` over the integers.

        Returns (pairs of an integer table and its integer multiplier, the
        common denominator D): X y^m v is 1/D times the sum over the pairs of
        multiplier * (the table's action on y^m).
        """
        scaled = []
        for l, c in x.items():
            if c:
                table, den = self._integer_table(l, lam)
                scaled.append((table, Fraction(c), den))
        common = math.lcm(*(c.denominator * den for _, c, den in scaled))
        return [
            (table, c.numerator * (common // (c.denominator * den)))
            for table, c, den in scaled
        ], common

    # -- the action -------------------------------------------------------

    def _act_into(self, out: Dict[Monomial, Scalar], table: Tuple[int, object, object],
                  m: Monomial, coeff: Scalar) -> None:
        """Add  coeff * X y^m v  to ``out``, for the X whose action table is ``table``.

        The table's scalars, ``coeff`` and the values added share one ring:
        ``LambdaPoly`` with a table of ``_memo``, ``int`` with a table of
        ``_integer_table``.
        """
        g, chi, brackets = table
        if g == -1:
            _add_term(out, _shifted(m, chi, 1), coeff)
        elif g == 0:
            # chi(X) y^m + sum_i d_i(y^m) [X, y_i]
            if chi:
                _add_term(out, m, coeff * chi)
            for i, mi in enumerate(m):
                if mi:
                    base = _shifted(m, i, -1)
                    for j, c in brackets[i]:
                        _add_term(out, _shifted(base, j, 1), coeff * (mi * c))
        else:
            # sum_i chi([X, y_i]) d_i(y^m) + 1/2 sum_{i,j} d_i d_j(y^m) [[X, y_i], y_j]
            for i, mi in enumerate(m):
                if not mi:
                    continue
                mi_m = _shifted(m, i, -1)
                if chi[i]:
                    _add_term(out, mi_m, coeff * (chi[i] * mi))
                for j, mj in enumerate(mi_m):
                    if mj:
                        base = _shifted(mi_m, j, -1)
                        for k, c in brackets[i][j]:
                            _add_term(out, _shifted(base, k, 1), coeff * (mi * mj * c))

    def act_basis(self, label: Label, m: Monomial) -> VermaVector:
        """Action of a basis element on a single ordered monomial."""
        out: Dict[Monomial, LambdaPoly] = {}
        self._act_into(out, self._memo[label], m, ONE)
        return VermaVector(out)

    def act(self, x: Element, v: VermaVector, lam: Optional[Fraction] = None) -> VermaVector:
        """Exact module action of a so(7) element.

        With ``lam`` the result is the action at that parameter value, equal to
        ``act(x, v).evaluate_lambda(lam)``.  It is computed over the integers:
        the values of ``v`` at ``lam`` are scaled by their common denominator,
        and the character values, the 1/2 and the coefficients of ``x`` by
        that of ``_integer_action``; the sums are Python ``int``s, divided by
        the product of the two denominators once per result monomial.
        """
        if lam is None:
            out: Dict[Monomial, Scalar] = {}
            for l, c in x.items():
                if c == 0:
                    continue
                table = self._memo[l]
                for m, coeff in v.terms.items():
                    self._act_into(out, table, m, coeff * c)
            return VermaVector(out)
        values = [(m, c(lam)) for m, c in v.terms.items()]
        dv = math.lcm(*(q.denominator for _, q in values))
        action, den = self._integer_action(x, lam)
        sums: Dict[Monomial, int] = {}
        for table, k in action:
            for m, q in values:
                self._act_into(sums, table, m, q.numerator * (dv // q.denominator) * k)
        den *= dv
        return VermaVector({m: Fraction(n, den) for m, n in sums.items()})

    # -- weights -----------------------------------------------------------

    def weight_of(self, v: VermaVector) -> WeightVec:
        """Orthonormal-basis weight of a weight-homogeneous vector.

        Coordinates are parameter polynomials: the highest weight itself is
        lam * eps1.  Raises on inhomogeneous input.  The monomials' root sums
        are compared over the integers, the roots scaled by their common
        denominator.
        """
        if v.is_zero():
            raise ValueError("zero vector has no weight")
        roots = [self.so7.roots[l].coords for l in COORD_LABELS]
        den = math.lcm(*(c.denominator for root in roots for c in root))
        scaled = [[c.numerator * (den // c.denominator) for c in root] for root in roots]
        weights = {
            tuple(sum(e * root[k] for e, root in zip(m, scaled)) for k in range(3))
            for m in v.terms
        }
        if len(weights) > 1:
            raise ValueError("vector is not weight-homogeneous")
        shift = [Fraction(s, den) for s in next(iter(weights))]
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

        The degree space splits by Cartan weight; each block is solved
        separately and the kernels are concatenated, which keeps the
        elimination small.  The action runs at ``lam0``, over the integers,
        and each entry is divided by the annihilator's common denominator.
        """
        if degree < 0:
            raise ValueError("degree must be non-negative")
        monos = self.monomials_of_degree(degree)
        blocks: Dict[Tuple[int, int], List[Monomial]] = {}
        for m in monos:
            key = (m[0] - m[3], m[4] - m[1])
            blocks.setdefault(key, []).append(m)

        actions = [self._integer_action(ann, lam0) for ann in annihilators]
        vectors: List[VermaVector] = []
        for key in sorted(blocks):
            block = blocks[key]
            rows: Dict[Tuple[int, Monomial], List[Fraction]] = {}
            for col, m in enumerate(block):
                for ai, (action, den) in enumerate(actions):
                    image: Dict[Monomial, int] = {}
                    for table, k in action:
                        self._act_into(image, table, m, k)
                    for tm, val in image.items():
                        if val == 0:
                            continue
                        row = rows.setdefault(
                            (ai, tm), [Fraction(0)] * len(block)
                        )
                        row[col] += Fraction(val, den)
            matrix = [rows[k] for k in sorted(rows)]
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


def _shifted(m: Monomial, i: int, step: int) -> Monomial:
    return m[:i] + (m[i] + step,) + m[i + 1:]


def _add_term(out: Dict[Monomial, Scalar], m: Monomial, c: Scalar) -> None:
    prev = out.get(m)
    out[m] = c if prev is None else prev + c
