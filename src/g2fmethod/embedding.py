"""The exceptional 14-dimensional subalgebra of so(7) and its parabolics.

The subalgebra is generated inside so(7) by

    A(+-1) = g(+-1) + g(+-3),     A(+-2) = g(+-2),

whose bracket closure must have dimension exactly 14.  From the closure we
extract a labeled basis (iterated brackets of the generators, one vector per
root, plus the two canonical Cartan elements), compute its structure table,
and assign each root vector its weight read from the Cartan eigenvalues.

Parabolic subalgebras on both sides are encoded by crossed-root masks.  Both
families are compared inside so(7), in its basis coordinates: an so(7)
parabolic is spanned by the unit vectors of its members, a subalgebra
parabolic by its members' images.  The meet of the subalgebra with an so(7)
parabolic and the inclusion diagram between the two families are subspace
questions answered by ``linsolve.SparseSpan``; the diagram keeps the
covering arrows of the inclusions (transitive reduction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .liealg import (
    Element,
    Label,
    SparseMatrix,
    StructureTable,
    WeightVec,
    alpha_weight,
    build_so_odd,
    eps_weight,
    sparse_commutator,
    _fill_brackets,
)
from .linsolve import SparseSpan

# alpha coordinates from the pair of Cartan eigenvalues (u, v):
# the canonical Cartan elements pair as <w, alpha_i>, and the inverse of the
# Gram matrix [[2,-3],[-3,6]] is (1/3)[[6,3],[3,2]].
def _alpha_from_pairings(u: Fraction, v: Fraction) -> Tuple[Fraction, Fraction]:
    return (2 * u + v, u + Fraction(2 * v, 3))


@dataclass
class Embedding:
    """The embedded exceptional subalgebra with its own structure table."""

    so7: StructureTable
    g2: StructureTable
    generator_images: Dict[Label, Element]

    def image_of(self, x: Element) -> Element:
        """Push a subalgebra element (g2 labels) into so(7) coordinates."""
        out: Element = {}
        for l, c in x.items():
            for sl, sc in self.generator_images[l].items():
                out[sl] = out.get(sl, Fraction(0)) + c * sc
        return {k: v for k, v in out.items() if v != 0}

    def gen(self, label: Label) -> Element:
        """so(7) element realizing a subalgebra basis label."""
        return dict(self.generator_images[label])


def embed_g2(so7: Optional[StructureTable] = None) -> Embedding:
    """Generate the subalgebra and its structure table; dimension must be 14."""
    so7 = so7 or build_so_odd(3)
    one = Fraction(1)
    gens: Dict[Label, Element] = {
        1: {1: one, 3: one},
        -1: {-1: one, -3: one},
        2: {2: one},
        -2: {-2: one},
    }

    dim = so7.generated_span(list(gens.values())).dimension
    if dim != 14:
        raise ValueError(f"closure dimension {dim}, expected 14")

    # labeled basis: iterated brackets of the generators, then the Cartan
    images: Dict[Label, Element] = dict(gens)
    images[3] = so7.bracket(images[1], images[2])
    images[4] = so7.bracket(images[1], images[3])
    images[5] = so7.bracket(images[1], images[4])
    images[6] = so7.bracket(images[2], images[5])
    images[-3] = so7.bracket(images[-1], images[-2])
    images[-4] = so7.bracket(images[-1], images[-3])
    images[-5] = so7.bracket(images[-1], images[-4])
    images[-6] = so7.bracket(images[-2], images[-5])
    images["h1"] = so7.bracket(images[1], images[-1])
    h2_raw = so7.bracket(images[2], images[-2])
    images["h2"] = {k: 3 * v for k, v in h2_raw.items()}
    for l, e in images.items():
        if not e:
            raise ValueError(f"degenerate basis element {l}")

    labels: List[Label] = [-6, -5, -4, -3, -2, -1, "h1", "h2", 1, 2, 3, 4, 5, 6]
    matrices = {l: so7.matrix_of(images[l]) for l in labels}

    g2 = StructureTable(
        name="g2",
        labels=labels,
        roots={},
        simple_coords={},
        cartan_labels=["h1", "h2"],
        matrices=matrices,
        brackets={},
    )
    # roots from Cartan eigenvalues
    for l in labels:
        if not isinstance(l, int):
            continue
        base = g2.matrices[l]
        pair_vals = [
            _eigen_ratio(sparse_commutator(g2.matrices[h], base), base) for h in ("h1", "h2")
        ]
        a1, a2 = _alpha_from_pairings(*pair_vals)
        g2.roots[l] = alpha_weight((a1, a2))
        if a1.denominator != 1 or a2.denominator != 1:
            raise ValueError(f"non-integral root for {l}")
        g2.simple_coords[l] = (int(a1), int(a2))
    _fill_brackets(g2)

    emb = Embedding(so7=so7, g2=g2, generator_images=images)
    _verify_homomorphism(emb)
    return emb


def _eigen_ratio(m: SparseMatrix, base: SparseMatrix) -> Fraction:
    """Scalar c with m = c*base; requires base nonzero and m proportional."""
    if not m:
        return Fraction(0)
    if not base:
        raise ValueError("zero base matrix")
    ij, x = next(iter(base.items()))
    c = m.get(ij, 0) / x
    if m != {k: c * v for k, v in base.items()}:
        raise ValueError("not an eigenvector")
    return c


def _verify_homomorphism(emb: Embedding) -> None:
    """Brackets computed in the subalgebra table match brackets in so(7)."""
    for a in emb.g2.labels:
        for b in emb.g2.labels:
            inside = emb.g2.brackets[(a, b)]
            upstairs = emb.so7.bracket(emb.generator_images[a], emb.generator_images[b])
            pushed = emb.image_of(inside)
            if pushed != upstairs:
                raise ValueError(f"bracket mismatch at ({a}, {b})")


# ---------------------------------------------------------------------------
# weight transport between the two Cartan duals
# ---------------------------------------------------------------------------


def project_weight(w: WeightVec) -> WeightVec:
    """Restrict an orthonormal so(7) weight to the subalgebra Cartan.

    Linear extension of eta1 -> alpha1, eta2 -> alpha2, eta3 -> alpha1; the
    value on (a, b, c) orthonormal coordinates is
    (2a + b + c) alpha1 + (a + b) alpha2.
    """
    if w.basis != "eps":
        raise ValueError("expected an orthonormal-basis weight")
    a, b, c = w.coords
    return alpha_weight((2 * a + b + c, a + b))


def inject_weight(w: WeightVec) -> WeightVec:
    """The dual inclusion: alpha1 -> eps1 - eps2 + 2 eps3, alpha2 -> 3 eps2 - 3 eps3."""
    if w.basis != "alpha":
        raise ValueError("expected a simple-root-basis weight")
    a1, a2 = w.coords
    return eps_weight((a1, -a1 + 3 * a2, 2 * a1 - 3 * a2))


# ---------------------------------------------------------------------------
# parabolic subalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicSelection:
    """Levi / nilradical split of a crossed-root parabolic subalgebra."""

    algebra: str
    mask: Tuple[int, ...]
    levi_root_labels: Tuple[int, ...]
    nilradical_labels: Tuple[int, ...]
    opposite_labels: Tuple[int, ...]
    cartan_labels: Tuple[str, ...]

    @property
    def name(self) -> str:
        return f"p{'(' + ','.join(str(m) for m in self.mask) + ')'}" if self.algebra != "g2" else f"p'({','.join(str(m) for m in self.mask)})"

    def member_labels(self) -> Tuple[Label, ...]:
        return tuple(self.cartan_labels) + self.levi_root_labels + self.nilradical_labels

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "mask": list(self.mask),
            "levi_roots": [str(l) for l in self.levi_root_labels],
            "nilradical": [str(l) for l in self.nilradical_labels],
            "opposite_nilradical": [str(l) for l in self.opposite_labels],
        }


def parabolic(table: StructureTable, mask: Sequence[int]) -> ParabolicSelection:
    """Parabolic selection from a 0/1 crossed-root mask.

    The Levi part keeps the root spaces supported only on uncrossed simple
    roots; the nilradical takes every other positive root space.
    """
    rank = len(table.cartan_labels)
    if len(mask) != rank or any(m not in (0, 1) for m in mask):
        raise ValueError(f"mask must be {rank} entries of 0/1")
    levi, nil, opp = [], [], []
    for l in table.positive_root_labels:
        coords = table.simple_coords[l]
        crossed = any(c and m for c, m in zip(coords, mask))
        if crossed:
            nil.append(l)
            opp.append(-l)
        else:
            levi.append(l)
            levi.append(-l)
    return ParabolicSelection(
        algebra=table.name,
        mask=tuple(int(m) for m in mask),
        levi_root_labels=tuple(sorted(levi)),
        nilradical_labels=tuple(nil),
        opposite_labels=tuple(opp),
        cartan_labels=tuple(table.cartan_labels),
    )


def _member_vectors(emb: Embedding, p: ParabolicSelection) -> List[Dict[int, Fraction]]:
    """Vectors spanning a parabolic in so(7) basis coordinates: the unit
    vectors of an so(7) parabolic's members, the images of a subalgebra
    parabolic's.  The so(7) basis matrices are independent, so containment
    in these coordinates is containment of the matrix spans."""
    images = emb.generator_images if p.algebra == "g2" else {l: {l: Fraction(1)} for l in p.member_labels()}
    return [emb.so7.coordinates(images[l]) for l in p.member_labels()]


def _span(vectors: List[Dict[int, Fraction]]) -> SparseSpan:
    span = SparseSpan()
    for v in vectors:
        span.add(v)
    return span


def intersect_parabolic(emb: Embedding, p: ParabolicSelection) -> ParabolicSelection:
    """Pull back a so(7) parabolic through the embedding.

    Computes the subspace meet of the embedded subalgebra with the parabolic
    and identifies it among the mask-indexed subalgebra parabolics; raises
    when the meet is not one of them.
    """
    if p.algebra == "g2":
        raise ValueError("expected a so(7) parabolic")
    pspan = _span(_member_vectors(emb, p))
    member_set = {
        l for l in emb.g2.labels if pspan.contains(emb.so7.coordinates(emb.generator_images[l]))
    }
    if not all(h in member_set for h in emb.g2.cartan_labels):
        raise ValueError("intersection lost the Cartan subalgebra")
    for mask in _all_masks(2):
        q = parabolic(emb.g2, mask)
        if set(q.member_labels()) == member_set:
            return q
    raise ValueError("intersection is not a crossed-root parabolic")


def _all_masks(rank: int) -> List[Tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=rank))


# ---------------------------------------------------------------------------
# the inclusion diagram
# ---------------------------------------------------------------------------


@dataclass
class InclusionLattice:
    """All subspace inclusions among the two parabolic families."""

    nodes: List[str]
    arrows: List[Tuple[str, str]]            # transitively reduced
    inclusions: List[Tuple[str, str]]        # every strict inclusion
    parabolics: Dict[str, ParabolicSelection] = field(default_factory=dict)

    def to_dot(self) -> str:
        lines = ["digraph parabolic_inclusions {"]
        for n in self.nodes:
            lines.append(f'  "{n}";')
        for a, b in self.arrows:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "arrows": [[a, b] for a, b in self.arrows],
            "inclusions": [[a, b] for a, b in self.inclusions],
        }


def inclusion_lattice(emb: Embedding) -> InclusionLattice:
    """Every inclusion between the 8 + 4 parabolics, then the covering arrows.

    Each parabolic is spanned in so(7) basis coordinates (``_member_vectors``)
    by one ``SparseSpan``; one parabolic lies in another when every spanning
    vector of the first is in the span of the second.
    """
    family = [parabolic(emb.so7, m) for m in _all_masks(3)] + [parabolic(emb.g2, m) for m in _all_masks(2)]
    parabolics = {p.name: p for p in family}
    vectors = {name: _member_vectors(emb, p) for name, p in parabolics.items()}
    spans = {name: _span(vecs) for name, vecs in vectors.items()}
    inclusions = sorted(
        (a, b) for a in parabolics for b in parabolics
        if a != b and all(spans[b].contains(v) for v in vectors[a])
    )
    # transitive reduction: keep a -> b when nothing sits strictly between
    included = set(inclusions)
    arrows = [
        (a, b) for a, b in inclusions
        if not any((a, c) in included and (c, b) in included for c in parabolics)
    ]
    return InclusionLattice(nodes=list(parabolics), arrows=arrows, inclusions=inclusions, parabolics=parabolics)


def meets_match_inclusions(emb: Embedding, lat: InclusionLattice) -> bool:
    """The meet with each so(7) parabolic is the largest included one.

    For every so(7) parabolic p: the meet q has its image inside p, and any
    smaller-family parabolic whose image lies in p is contained in q.
    """
    included = set(lat.inclusions)
    for name, p in lat.parabolics.items():
        if p.algebra != "so7":
            continue
        qname = intersect_parabolic(emb, p).name
        if (qname, name) not in included:
            return False
        for oname, other in lat.parabolics.items():
            if (other.algebra == "g2" and oname != qname
                    and (oname, name) in included and (oname, qname) not in included):
                return False
    return True


# the inclusion diagram fixture: covering arrows expected of the computation
EXPECTED_ARROWS: List[Tuple[str, str]] = sorted(
    [
        ("p(1,0,0)", "p(0,0,0)"),
        ("p(0,1,0)", "p(0,0,0)"),
        ("p(0,0,1)", "p(0,0,0)"),
        ("p'(0,0)", "p(0,0,0)"),
        ("p(1,1,0)", "p(1,0,0)"),
        ("p(1,1,0)", "p(0,1,0)"),
        ("p(1,0,1)", "p(1,0,0)"),
        ("p(1,0,1)", "p(0,0,1)"),
        ("p(0,1,1)", "p(0,1,0)"),
        ("p(0,1,1)", "p(0,0,1)"),
        ("p'(0,1)", "p'(0,0)"),
        ("p'(0,1)", "p(0,1,0)"),
        ("p(1,1,1)", "p(1,1,0)"),
        ("p(1,1,1)", "p(1,0,1)"),
        ("p(1,1,1)", "p(0,1,1)"),
        ("p'(1,0)", "p(1,0,1)"),
        ("p'(1,0)", "p'(0,0)"),
        ("p'(1,1)", "p'(1,0)"),
        ("p'(1,1)", "p(1,1,1)"),
        ("p'(1,1)", "p'(0,1)"),
    ]
)
