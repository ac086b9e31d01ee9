"""Matrix realization of the odd orthogonal algebras and abstract root data.

so(2n+1) is built on the defining space with basis e_1..e_n, e_0, e_-1..e_-n
and the symmetric form  B(e_i, e_-i) = 1, B(e_0, e_0) = 1.  Root vectors are
the classical elementary combinations

    g_{e_i - e_j}    = E[i,j]  - E[-j,-i]
    g_{+(e_i + e_j)} = E[i,-j] - E[j,-i]          (i < j)
    g_{-(e_i + e_j)} = E[-i,j] - E[-j,i]          (i < j)
    g_{+e_i}         = E[i,0]  - E[0,-i]
    g_{-e_i}         = E[-i,0] - E[0,i]

with E[a,b] the matrix unit.  Negative root vectors of sum type and of short
type carry an extra factor -2; this replaces the usual irrational
normalization of the short roots, keeps every structure constant rational,
and gives each pair [g_a, g_-a] a non-negative coroot.  All downstream
bracket data is computed from these matrices, never assumed.

Each basis matrix is stored as its nonzero entries, and every product is
formed from those only: a root matrix has two, a Cartan matrix at most 2n+1.
Each commutator [A, B] = AB - BA is expressed in the basis through one
elimination over the sparse basis matrices, done once per table.  A table
is then checked for antisymmetry, for ad-diagonal Cartan action and for the
Jacobi identity, the last as ad_[x,y] = ad_x ad_y - ad_y ad_x over integer
multiples of the constants.

Positive roots are labeled 1..n^2 in graded lexicographic order on their
simple-basis coordinates (lower total degree first, then lexicographically
larger first), negatives by the opposite sign, and the Cartan basis by
h1..hn with  h_i = [g_i, g_-i]  for the long simple roots and
h_n = 1/2 [g_n, g_-n]  for the short one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .linsolve import SparseSpan
from .scalars import LambdaPoly, rational_to_string

Label = Union[int, str]
Element = Dict[Label, Fraction]
SparseMatrix = Dict[Tuple[int, int], Fraction]

# ---------------------------------------------------------------------------
# matrices, as their nonzero entries keyed by (row, column)
# ---------------------------------------------------------------------------


def sparse_commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """AB - BA, formed from the nonzero entries of A and B only."""
    out: SparseMatrix = {}
    for (i, k), x in a.items():
        for (r, j), y in b.items():
            if k == r:
                out[(i, j)] = out.get((i, j), 0) + x * y
            if j == i:
                out[(r, k)] = out.get((r, k), 0) - y * x
    return {ij: v for ij, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

_FORMS = {
    # orthonormal basis of the so(2n+1) weight space
    "eps": None,
    # the G2 simple-root basis, Gram matrix of the invariant form
    "alpha": ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6))),
}


@dataclass(frozen=True)
class WeightVec:
    """Weight in a declared basis; coordinates exact (rational or symbolic)."""

    coords: tuple
    basis: str = "eps"

    def __post_init__(self):
        if self.basis not in _FORMS:
            raise ValueError(f"unknown weight basis {self.basis!r}")
        object.__setattr__(self, "coords", tuple(self.coords))

    def __add__(self, other: "WeightVec") -> "WeightVec":
        self._check(other)
        return WeightVec(tuple(a + b for a, b in zip(self.coords, other.coords)), self.basis)

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        self._check(other)
        return WeightVec(tuple(a - b for a, b in zip(self.coords, other.coords)), self.basis)

    def __neg__(self) -> "WeightVec":
        return WeightVec(tuple(-a for a in self.coords), self.basis)

    def scale(self, c) -> "WeightVec":
        return WeightVec(tuple(a * c for a in self.coords), self.basis)

    def is_zero(self) -> bool:
        return all(not c if isinstance(c, LambdaPoly) else c == 0 for c in self.coords)

    def pair(self, other: "WeightVec"):
        """Invariant symmetric form in this basis."""
        self._check(other)
        form = _FORMS[self.basis]
        total = None
        if form is None:
            for a, b in zip(self.coords, other.coords):
                term = a * b
                total = term if total is None else total + term
        else:
            for i, a in enumerate(self.coords):
                for j, b in enumerate(other.coords):
                    if form[i][j] == 0:
                        continue
                    term = a * form[i][j] * b
                    total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def _check(self, other: "WeightVec"):
        if self.basis != other.basis or len(self.coords) != len(other.coords):
            raise ValueError("weight basis mismatch")

    def __str__(self) -> str:
        return signed_sum(self.coords, [f"{self.basis}{i}" for i in range(1, len(self.coords) + 1)])


def signed_sum(coords: Sequence, names: Sequence[str]) -> str:
    """Render  sum c_i*name_i  as '2*eps1 - eps3', skipping zero terms.

    A coefficient may be a ``LambdaPoly``: a constant one prints as its
    value, any other in parentheses.
    """
    parts = []
    for c, name in zip(coords, names):
        if isinstance(c, LambdaPoly):
            if c.is_zero():
                continue
            if c.is_constant():
                c = c.constant_value()
            else:
                parts.append((f"({c})*{name}", "+"))
                continue
        if c == 0:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{mag}*{name}"
        parts.append((body, "-" if c < 0 else "+"))
    if not parts:
        return "0"
    out = []
    for k, (body, sign) in enumerate(parts):
        if k == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out)


def reflect(w: WeightVec, root: WeightVec) -> WeightVec:
    """Orthogonal reflection of ``w`` in the hyperplane normal to ``root``."""
    if root.is_zero():
        raise ValueError("zero root rejected")
    norm = root.pair(root)
    factor = w.pair(root) * (Fraction(2) / norm)
    return w - root.scale(factor)


def eps_weight(coords: Sequence) -> WeightVec:
    return WeightVec(tuple(coords), "eps")


def alpha_weight(coords: Sequence) -> WeightVec:
    return WeightVec(tuple(coords), "alpha")


def eta_from_eps(coords: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    n = len(coords)
    out = []
    acc = Fraction(0)
    for i in range(n):
        acc += coords[i]
        out.append(acc)
    return tuple(out)


def g2_psi(i: int) -> WeightVec:
    table = {1: (2, 1), 2: (3, 2)}
    return alpha_weight([Fraction(x) for x in table[i]])


def alpha_to_psi(w: WeightVec) -> Tuple:
    """Fundamental-weight coordinates of an alpha-basis weight.

    psi1 = (2,1) and psi2 = (3,2) in alpha coordinates; the change of basis
    [2 3; 1 2] is unimodular, so the inverse is exact: (x, y) solves
    x*psi1 + y*psi2 = w.
    """
    a1, a2 = w.coords
    return (2 * a1 - 3 * a2, -a1 + 2 * a2)


# ---------------------------------------------------------------------------
# structure tables
# ---------------------------------------------------------------------------


@dataclass
class StructureTable:
    """Basis-labeled Lie algebra with exact bracket constants.

    ``labels`` fixes the canonical basis order.  ``brackets`` maps ordered
    label pairs to sparse element dicts; it is complete (both orders stored).
    ``matrices`` holds each basis matrix as its nonzero entries.
    Root labels are signed integers; Cartan labels are 'h1', 'h2', ...
    """

    name: str
    labels: List[Label]
    roots: Dict[Label, WeightVec]
    simple_coords: Dict[Label, Tuple[int, ...]]
    cartan_labels: List[str]
    matrices: Dict[Label, SparseMatrix]
    brackets: Dict[Tuple[Label, Label], Element]

    # -- elements ----------------------------------------------------------

    def bracket(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for la, ca in a.items():
            for lb, cb in b.items():
                for lc, cc in self.brackets.get((la, lb), {}).items():
                    out[lc] = out.get(lc, Fraction(0)) + ca * cb * cc
        return {k: v for k, v in out.items() if v != 0}

    def coordinates(self, x: Element) -> Dict[int, Fraction]:
        """An element keyed by the positions of its labels in the basis,
        which compare where the labels (integers and 'h1'...) do not."""
        return {self.labels.index(l): c for l, c in x.items()}

    def generated_span(self, elements: Sequence[Element]) -> SparseSpan:
        """The subalgebra that ``elements`` generate, spanned in basis
        coordinates (``coordinates``).

        Each element that enlarges the span is bracketed once with every
        element kept so far, itself included; when a round adds nothing,
        every pair of kept elements has been bracketed into the span, so the
        span is closed under the bracket.
        """
        span = SparseSpan()
        kept: List[Element] = []
        new = [x for x in elements if span.add(self.coordinates(x))]
        while new:
            kept += new
            new = [z for x in new for y in kept
                   if (z := self.bracket(x, y)) and span.add(self.coordinates(z))]
        return span

    def matrix_of(self, x: Element) -> SparseMatrix:
        acc: SparseMatrix = {}
        for l, c in x.items():
            for ij, v in self.matrices[l].items():
                acc[ij] = acc.get(ij, Fraction(0)) + c * v
        return {ij: v for ij, v in acc.items() if v != 0}

    @property
    def dimension(self) -> int:
        return len(self.labels)

    @property
    def positive_root_labels(self) -> List[int]:
        return sorted(l for l in self.labels if isinstance(l, int) and l > 0)

    def cartan_value(self, h_label: str, weight: WeightVec):
        """Value of a weight on a Cartan basis element.

        An orthonormal weight is read off the diagonal of the Cartan matrix:
        coordinate i pairs with the diagonal entry at the i-th plus vector.
        A simple-root weight takes on h_i its pairing with the i-th simple
        root under the invariant form, the normalization of the subalgebra's
        h1 = [g_1, g_-1] and h2 = 3 [g_2, g_-2].
        """
        if weight.basis == "alpha":
            simple = [Fraction(0)] * len(weight.coords)
            simple[self.cartan_labels.index(h_label)] = Fraction(1)
            return weight.pair(alpha_weight(simple))
        m = self.matrices[h_label]
        total = None
        for i, c in enumerate(weight.coords):
            term = c * m.get((i, i), Fraction(0))
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    # -- verification -------------------------------------------------------

    def jacobi_check(self) -> bool:
        """Jacobi identity on every basis triple, checked as "ad is a homomorphism".

        For labels x, y, z the identity reads

            [x,[y,z]] - [[x,y],z] - [y,[x,z]] = 0,

        that is (ad_x ad_y - ad_y ad_x - sum_w c_xy^w ad_w)(z) = 0, where
        ad_a(b) = [a, b] is read from the table with a on the left and
        c_xy^w are the constants of [x, y].  No antisymmetry is assumed, so
        the predicate is the triple test itself, for all ordered triples.
        For each ordered pair (x, y) one sparse pass forms that operator on
        every z at once and fails on its first nonzero entry.

        The constants are scaled to integers first: ``scale`` is the lcm of
        their denominators and ad[a][b][w] = c_ab^w * scale, exactly.  Every
        term is a product of two constants, so each accumulated entry is the
        triple test's entry times scale**2: zero exactly when it is.
        Entries keyed by a pair not both in ``labels`` take no part.
        """
        labels = set(self.labels)
        scale = math.lcm(*(c.denominator for e in self.brackets.values() for c in e.values()))
        ad: Dict[Label, Dict[Label, Dict[Label, int]]] = {l: {} for l in self.labels}
        for (a, b), e in self.brackets.items():
            col = {w: c.numerator * (scale // c.denominator) for w, c in e.items() if c != 0}
            if a in labels and b in labels and col:
                ad[a][b] = col
        for x in self.labels:
            ad_x = ad[x]
            for y in self.labels:
                ad_y = ad[y]
                acc: Dict[Tuple[Label, Label], int] = {}
                for outer, inner, sign in ((ad_x, ad_y, 1), (ad_y, ad_x, -1)):
                    for z, col in inner.items():
                        for u, c in col.items():
                            for v, d in outer.get(u, {}).items():
                                acc[z, v] = acc.get((z, v), 0) + sign * c * d
                for w, c in ad_x.get(y, {}).items():
                    for z, col in ad.get(w, {}).items():
                        for v, d in col.items():
                            acc[z, v] = acc.get((z, v), 0) - c * d
                if any(acc.values()):
                    return False
        return True

    def antisymmetry_check(self) -> bool:
        for (a, b), val in self.brackets.items():
            neg = self.brackets.get((b, a), {})
            keys = set(val) | set(neg)
            for k in keys:
                if val.get(k, Fraction(0)) + neg.get(k, Fraction(0)) != 0:
                    return False
        return True

    def eigenvector_check(self) -> bool:
        """Every root vector is an ad-eigenvector of every Cartan element."""
        for h in self.cartan_labels:
            for l in self.labels:
                if not isinstance(l, int):
                    continue
                br = self.brackets.get((h, l), {})
                expected = self.cartan_value(h, self.roots[l])
                if set(br) - {l}:
                    return False
                if br.get(l, Fraction(0)) != expected:
                    return False
        return True

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        def lbl(x: Label) -> str:
            return str(x)

        return {
            "algebra": self.name,
            "dimension": self.dimension,
            "basis": [
                {
                    "label": lbl(l),
                    "root": [rational_to_string(Fraction(c)) for c in self.roots[l].coords]
                    if l in self.roots
                    else None,
                }
                for l in self.labels
            ],
            "brackets": [
                {
                    "x": lbl(a),
                    "y": lbl(b),
                    "value": {lbl(k): rational_to_string(v) for k, v in sorted(val.items(), key=lambda kv: str(kv[0]))},
                }
                for (a, b), val in sorted(self.brackets.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
                if val and _label_key(a) <= _label_key(b)
            ],
        }

    def checksum(self) -> str:
        # imported here: hashlib loads OpenSSL, about 2 MB of resident memory
        # that most runs, which print no checksum, need not carry
        import hashlib

        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _label_key(l: Label):
    return (0, l, "") if isinstance(l, int) else (1, 0, l)


# ---------------------------------------------------------------------------
# so(2n+1)
# ---------------------------------------------------------------------------


def _positive_roots_so_odd(n: int) -> List[Tuple[Tuple[int, ...], Tuple[Fraction, ...]]]:
    """(simple coords, eps coords) of the positive roots, in label order."""
    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            eps = [Fraction(0)] * n
            eps[i - 1], eps[j - 1] = Fraction(1), Fraction(-1)
            simple = [0] * n
            for k in range(i, j):
                simple[k - 1] = 1
            roots.append((tuple(simple), tuple(eps)))
            eps2 = [Fraction(0)] * n
            eps2[i - 1], eps2[j - 1] = Fraction(1), Fraction(1)
            simple2 = [0] * n
            for k in range(i, j):
                simple2[k - 1] = 1
            for k in range(j, n + 1):
                simple2[k - 1] = 2
            roots.append((tuple(simple2), tuple(eps2)))
        eps3 = [Fraction(0)] * n
        eps3[i - 1] = Fraction(1)
        simple3 = [0] * n
        for k in range(i, n + 1):
            simple3[k - 1] = 1
        roots.append((tuple(simple3), tuple(eps3)))
    roots.sort(key=lambda rc: (sum(rc[0]), tuple(-c for c in rc[0])))
    return roots


def _unit_root_entries(n: int, eps: Tuple[Fraction, ...]) -> SparseMatrix:
    """The coefficient-1 matrix of a root vector from the classical formulas."""

    def pos(k: int) -> int:
        # e_1..e_n -> 0..n-1, e_0 -> n, e_-1..e_-n -> n+1..2n
        if k > 0:
            return k - 1
        if k == 0:
            return n
        return n - k

    one = Fraction(1)
    support = [(i + 1, c) for i, c in enumerate(eps) if c != 0]
    if len(support) == 2:
        (i, ci), (j, cj) = support
        if ci == 1 and cj == -1:
            return {(pos(i), pos(j)): one, (pos(-j), pos(-i)): -one}
        if ci == -1 and cj == 1:
            return {(pos(j), pos(i)): one, (pos(-i), pos(-j)): -one}
        if ci == 1 and cj == 1:
            return {(pos(i), pos(-j)): one, (pos(j), pos(-i)): -one}
        if ci == -1 and cj == -1:
            return {(pos(-i), pos(j)): one, (pos(-j), pos(i)): -one}
    elif len(support) == 1:
        (i, ci) = support[0]
        if ci == 1:
            return {(pos(i), pos(0)): one, (pos(0), pos(-i)): -one}
        return {(pos(-i), pos(0)): one, (pos(0), pos(i)): -one}
    raise ValueError(f"not a root: {eps}")


def _is_sum_or_short(eps: Tuple[Fraction, ...]) -> bool:
    support = [c for c in eps if c != 0]
    return len(support) == 1 or (len(support) == 2 and support[0] == support[1])


def build_so_odd(n: int) -> StructureTable:
    """so(2n+1) in the labeled basis, brackets from matrix commutators."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    positives = _positive_roots_so_odd(n)
    nroots = len(positives)
    assert nroots == n * n

    labels: List[Label] = list(range(-nroots, 0)) + [f"h{i}" for i in range(1, n + 1)] + list(
        range(1, nroots + 1)
    )
    roots: Dict[Label, WeightVec] = {}
    simple_coords: Dict[Label, Tuple[int, ...]] = {}
    entries: Dict[Label, SparseMatrix] = {}

    for idx, (simple, eps) in enumerate(positives, start=1):
        roots[idx] = eps_weight(eps)
        simple_coords[idx] = simple
        entries[idx] = _unit_root_entries(n, eps)
        neg = tuple(-c for c in eps)
        roots[-idx] = eps_weight(neg)
        simple_coords[-idx] = tuple(-c for c in simple)
        # rationalized normalization: -2 on negative sum-type and short roots
        scale = -2 if _is_sum_or_short(eps) else 1
        entries[-idx] = {ij: scale * x for ij, x in _unit_root_entries(n, neg).items()}

    # Cartan from the bracket prescriptions on the simple pairs; the n-th
    # simple root is the short one and its bracket is halved.
    for i in range(1, n + 1):
        entries[f"h{i}"] = sparse_commutator(entries[i], entries[-i])
    entries[f"h{n}"] = {ij: x / 2 for ij, x in entries[f"h{n}"].items()}

    table = StructureTable(
        name=f"so{2 * n + 1}",
        labels=labels,
        roots=roots,
        simple_coords=simple_coords,
        cartan_labels=[f"h{i}" for i in range(1, n + 1)],
        matrices=entries,
        brackets={},
    )
    _fill_brackets(table)
    return table


def _fill_brackets(table: StructureTable) -> None:
    """Compute the complete bracket table by expressing commutators.

    Each commutator is formed from the nonzero entries of the two basis
    matrices and expressed in the basis by one elimination done up front.
    """
    order = list(table.labels)
    span = SparseSpan({l: table.matrices[l] for l in order})
    for a in order:
        for b in order:
            if (a, b) in table.brackets:
                continue
            m = sparse_commutator(table.matrices[a], table.matrices[b])
            val = span.express(m) if m else {}
            if val is None:
                raise ValueError("bracket left the algebra span")
            table.brackets[(a, b)] = val
            table.brackets[(b, a)] = {k: -v for k, v in val.items()}


# ---------------------------------------------------------------------------
# abstract G2 root datum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSystemData:
    """Labeled root list plus the invariant form in the simple basis."""

    name: str
    positive: Tuple[Tuple[int, ...], ...]
    form: Tuple[Tuple[Fraction, ...], ...]

    @property
    def labels(self) -> List[int]:
        n = len(self.positive)
        return list(range(-n, 0)) + list(range(1, n + 1))

    def root(self, label: int) -> WeightVec:
        coords = self.positive[abs(label) - 1]
        sign = 1 if label > 0 else -1
        return alpha_weight(tuple(Fraction(sign * c) for c in coords))

    @property
    def root_count(self) -> int:
        return 2 * len(self.positive)

    def highest(self) -> WeightVec:
        return self.root(len(self.positive))


def build_g2_root_data() -> RootSystemData:
    """The 12-root exceptional datum with its rank-2 invariant form.

    alpha1 is the short simple root (norm 2) and alpha2 the long one
    (norm 6), the labelling of the embedded subalgebra and of ``g2_psi``.
    """
    positive = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    positive.sort(key=lambda c: (sum(c), tuple(-x for x in c)))
    return RootSystemData(
        name="g2",
        positive=tuple(positive),
        form=((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6))),
    )


# ---------------------------------------------------------------------------
# positive combinations
# ---------------------------------------------------------------------------


def positive_combination(
    w: WeightVec, roots: Sequence[Tuple[int, Tuple[int, ...]]]
) -> Optional[Dict[int, int]]:
    """Non-negative integer combination of positive roots summing to ``w``.

    ``roots`` is a list of (label, simple coordinates).  The witness returned
    is the lexicographically smallest coefficient vector in label order, or
    None when no combination exists.  ``w`` must be given in the matching
    simple basis ('alpha' weights are already simple coordinates; orthonormal
    weights are converted by the caller).

    The search runs depth-first in label order.  A branch whose remainder
    lies outside the real cone of the roots still to be used (some
    functional of ``_cone_functionals`` is negative on it) has no
    combination and is cut; the test is only a necessary condition, so the
    witness found is the same.
    """
    target = []
    for c in w.coords:
        if isinstance(c, LambdaPoly):
            c = c.constant_value()
        if c.denominator != 1:
            return None
        target.append(int(c))
    items = sorted(roots, key=lambda t: t[0])
    cones = [_cone_functionals(tuple(tuple(coords) for _, coords in items[pos:]), len(target))
             for pos in range(len(items))]

    def dfs(pos: int, remaining: Tuple[int, ...]) -> Optional[Dict[int, int]]:
        if all(x == 0 for x in remaining):
            return {}
        if pos == len(items):
            return None
        if any(_dot(f, remaining) < 0 for f in cones[pos]):
            return None
        label, coords = items[pos]
        bound = min(
            (rem // c for rem, c in zip(remaining, coords) if c > 0), default=None
        )
        if bound is None:
            bound = 0
        for k in range(0, bound + 1):
            nxt = tuple(r - k * c for r, c in zip(remaining, coords))
            if any(x < 0 for x in nxt):
                break
            sub = dfs(pos + 1, nxt)
            if sub is not None:
                if k:
                    sub = {label: k, **sub}
                return sub
        return None

    if any(x < 0 for x in target):
        # a negative coordinate in the simple basis rules out a combination
        return None
    return dfs(0, tuple(target))


@functools.lru_cache(maxsize=None)
def _cone_functionals(gens: Tuple[Tuple[int, ...], ...], n: int) -> Tuple[Tuple[int, ...], ...]:
    """Integer functionals f with f(g) >= 0 for every g in ``gens``,
    remembered per generator tuple: the verdicts search over the same few
    root lists at every parameter value.

    Candidates are the unit vectors, the generators themselves and, in
    dimension 2, the normal of each generator and unit vector, in dimension
    3 the cross product of each pair of them, all with both signs.  For
    n <= 3 the ones kept cut out the real cone of ``gens`` exactly: they hold
    its facet normals, both signs of every equation of its span, and the
    direction of a cone on one ray.  Above dimension 3 the test is weaker
    but still valid.
    """
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    vecs = list(gens) + units
    if n == 2:
        normals = [(-a[1], a[0]) for a in vecs]
    elif n == 3:
        normals = [_cross(a, b) for a, b in itertools.combinations(vecs, 2)]
    else:
        normals = []
    candidates = {tuple(g) for g in gens}
    for f in normals + units:
        candidates.add(tuple(f))
        candidates.add(tuple(-x for x in f))
    return tuple(sorted(f for f in candidates if any(f) and all(_dot(f, g) >= 0 for g in gens)))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _cross(a: Sequence[int], b: Sequence[int]) -> Tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
