"""Scalar generalized Verma module, by a closed-form action of second order.

The parabolic is the one crossing out the first simple root of so(7); its
opposite nilradical is commutative with ordered basis

    y1 = g_-1,  y2 = g_-8,  y3 = g_-6,  y4 = g_-9,  y5 = g_-4,

so module vectors are polynomials in the y's applied to the highest weight
vector.  The inducing character takes the value  lam * (diagonal at the
first plus vector)  on Cartan elements and zero on the rest of the
parabolic.  The action tables keep the parameter symbolic, so one table
serves every specialization; an action at a given rational value (the
certificate checks, the kernel search) evaluates the character entries it
meets there and runs over ``Fraction`` coefficients, with no table per value.

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

        Grade -1 needs none (the action multiplies); grade 0 keeps chi(X)
        and [X, y_i] by i; grade +1 keeps chi([X, y_i]) by i and
        [[X, y_i], y_j] by i and j.  Brackets are kept as ``_y_coords`` pairs.
        """
        if g == -1:
            return g, None, None
        x = {label: Fraction(1)}
        ys = [{l: Fraction(1)} for l in COORD_LABELS]
        first = [self.so7.bracket(x, y) for y in ys]            # [X, y_i]
        if g == 0:
            return g, self._chi(x), tuple(self._y_coords(b) for b in first)
        second = tuple(
            tuple(self._y_coords(self.so7.bracket(b, y)) for y in ys)   # [[X, y_i], y_j]
            for b in first
        )
        return g, tuple(self._chi(b) for b in first), second

    # -- the action -------------------------------------------------------

    def _act_into(self, out: Dict[Monomial, Scalar], label: Label, m: Monomial,
                  coeff: Scalar, lam: Optional[Fraction] = None) -> None:
        """Add  coeff * X y^m v  to ``out``, X the basis element ``label``.

        With ``lam`` the character is evaluated there, so ``coeff`` and the
        values added are ``Fraction``s; without it they are ``LambdaPoly``s.
        """
        g, chi, brackets = self._memo[label]
        if g == -1:
            _add_term(out, _shifted(m, self.coord_index[label], 1), coeff)
        elif g == 0:
            # chi(X) y^m + sum_i d_i(y^m) [X, y_i]
            if chi:
                _add_term(out, m, coeff * (chi if lam is None else chi(lam)))
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
                    _add_term(out, mi_m, coeff * ((chi[i] if lam is None else chi[i](lam)) * mi))
                for j, mj in enumerate(mi_m):
                    if mj:
                        base = _shifted(mi_m, j, -1)
                        for k, c in brackets[i][j]:
                            _add_term(out, _shifted(base, k, 1),
                                      coeff * (_HALF * mi * mj * c))

    def act_basis(self, label: Label, m: Monomial) -> VermaVector:
        """Action of a basis element on a single ordered monomial."""
        out: Dict[Monomial, LambdaPoly] = {}
        self._act_into(out, label, m, ONE)
        return VermaVector(out)

    def act(self, x: Element, v: VermaVector, lam: Optional[Fraction] = None) -> VermaVector:
        """Exact module action of a so(7) element.

        With ``lam`` the result is the action at that parameter value, equal to
        ``act(x, v).evaluate_lambda(lam)`` but computed over rationals.
        """
        out: Dict[Monomial, Scalar] = {}
        terms = v.terms.items() if lam is None else [(m, c(lam)) for m, c in v.terms.items()]
        for l, c in x.items():
            if c == 0:
                continue
            for m, coeff in terms:
                self._act_into(out, l, m, coeff * c, lam)
        return VermaVector(out)

    # -- weights -----------------------------------------------------------

    def weight_of(self, v: VermaVector) -> WeightVec:
        """Orthonormal-basis weight of a weight-homogeneous vector.

        Coordinates are parameter polynomials: the highest weight itself is
        lam * eps1.  Raises on inhomogeneous input.
        """
        if v.is_zero():
            raise ValueError("zero vector has no weight")
        weights = set()
        for m in v.terms:
            shift = [Fraction(0)] * 3
            for e, l in zip(m, COORD_LABELS):
                if e:
                    root = self.so7.roots[l]
                    shift = [s + e * c for s, c in zip(shift, root.coords)]
            weights.add(tuple(shift))
        if len(weights) > 1:
            raise ValueError("vector is not weight-homogeneous")
        shift = next(iter(weights))
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
        elimination small.  The action runs at ``lam0``, over rationals.
        """
        if degree < 0:
            raise ValueError("degree must be non-negative")
        monos = self.monomials_of_degree(degree)
        blocks: Dict[Tuple[int, int], List[Monomial]] = {}
        for m in monos:
            key = (m[0] - m[3], m[4] - m[1])
            blocks.setdefault(key, []).append(m)

        vectors: List[VermaVector] = []
        for key in sorted(blocks):
            block = blocks[key]
            rows: Dict[Tuple[int, Monomial], List[Fraction]] = {}
            for col, m in enumerate(block):
                for ai, ann in enumerate(annihilators):
                    image: Dict[Monomial, Fraction] = {}
                    for l, c in ann.items():
                        if c:
                            self._act_into(image, l, m, c, lam0)
                    for tm, val in image.items():
                        if val == 0:
                            continue
                        row = rows.setdefault(
                            (ai, tm), [Fraction(0)] * len(block)
                        )
                        row[col] += val
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
