import dataclasses
import itertools
from fractions import Fraction

import pytest

from g2fmethod.embedding import (
    EXPECTED_ARROWS,
    embed_g2,
    inclusion_lattice,
    inject_weight,
    intersect_parabolic,
    parabolic,
    project_weight,
)
from g2fmethod.liealg import alpha_weight, build_so_odd, eps_weight, g2_psi
from g2fmethod.linsolve import rank

F = Fraction


def test_closure_dimension(emb):
    assert emb.g2.dimension == 14


def test_closure_dimension_is_checked():
    with pytest.raises(ValueError, match=r"^closure dimension 10, expected 14$"):
        embed_g2(build_so_odd(2))


def test_cartan_images(emb):
    assert emb.gen("h1") == {"h1": F(1), "h3": F(2)}
    assert emb.gen("h2") == {"h2": F(3)}


def test_generator_images(emb):
    assert emb.gen(1) == {1: F(1), 3: F(1)}
    assert emb.gen(-1) == {-1: F(1), -3: F(1)}
    assert emb.gen(2) == {2: F(1)}


def test_homomorphism_on_all_pairs(emb):
    # brackets inside the subalgebra table match brackets upstairs
    for a in emb.g2.labels:
        for b in emb.g2.labels:
            inside = emb.image_of(emb.g2.brackets[(a, b)])
            upstairs = emb.so7.bracket(emb.generator_images[a], emb.generator_images[b])
            assert inside == upstairs


def test_g2_table_checks(emb):
    assert emb.g2.antisymmetry_check()
    assert emb.g2.jacobi_check()
    # 6 positive roots labeled in graded lex order
    assert emb.g2.positive_root_labels == [1, 2, 3, 4, 5, 6]
    assert emb.g2.simple_coords[6] == (3, 2)


def test_g2_cartan_values_match_brackets(emb):
    # [h, g_l] = <root_l, alpha_i> g_l with h = h_i, for every root vector
    g2 = emb.g2
    assert g2.cartan_value("h1", g2.roots[1]) == 2
    assert g2.cartan_value("h2", g2.roots[2]) == 6
    for h in g2.cartan_labels:
        for l in g2.labels:
            if isinstance(l, int):
                value = g2.cartan_value(h, g2.roots[l])
                assert g2.brackets[(h, l)] == ({l: value} if value else {}), (h, l)


def test_g2_eigenvector_check(emb):
    assert emb.g2.eigenvector_check()
    brackets = dict(emb.g2.brackets)
    brackets[("h1", 1)] = {1: F(3)}
    brackets[(1, "h1")] = {1: F(-3)}
    assert not dataclasses.replace(emb.g2, brackets=brackets).eigenvector_check()


def test_project_weight_values():
    assert project_weight(eps_weight((0, 1, -1))).coords == (0, 1)   # second simple root
    assert project_weight(eps_weight((1, -1, 0))).coords == (1, 0)
    assert project_weight(eps_weight((0, 0, 1))).coords == (1, 0)
    # fundamental weights
    assert project_weight(eps_weight((1, 0, 0))) == g2_psi(1)
    assert project_weight(eps_weight((1, 1, 0))) == g2_psi(2)
    assert project_weight(eps_weight((F(1, 2), F(1, 2), F(1, 2)))) == g2_psi(1)


def test_inject_weight_values():
    assert inject_weight(alpha_weight((0, 1))).coords == (0, 3, -3)
    assert inject_weight(alpha_weight((1, 0))).coords == (1, -1, 2)


def test_project_after_inject_is_triple():
    for coords in ((1, 0), (0, 1), (2, -3), (F(1, 2), F(5))):
        w = alpha_weight(coords)
        assert project_weight(inject_weight(w)) == w.scale(3)


def test_projection_agrees_with_cartan_eigenvalues(emb):
    # the projection of a root equals its value pair on the embedded Cartan
    for l in emb.so7.positive_root_labels:
        root = emb.so7.roots[l]
        u = sum(
            c * emb.so7.cartan_value(h, root) for h, c in emb.gen("h1").items()
            if isinstance(h, str)
        )
        # value on the first embedded Cartan element = <pr(root), alpha1>
        pr = project_weight(root)
        assert pr.pair(alpha_weight((1, 0))) == u


def test_parabolic_masks(emb):
    p = parabolic(emb.so7, (1, 0, 0))
    assert set(p.opposite_labels) == {-1, -8, -6, -4, -9}
    assert set(p.nilradical_labels) == {1, 4, 6, 8, 9}
    assert set(p.levi_root_labels) == {2, 3, 5, 7, -2, -3, -5, -7}
    # commutative opposite nilradical
    for a in p.opposite_labels:
        for b in p.opposite_labels:
            assert emb.so7.brackets[(a, b)] == {}
    borel = parabolic(emb.so7, (1, 1, 1))
    assert borel.levi_root_labels == ()
    assert len(borel.nilradical_labels) == 9


def test_parabolic_mask_validation(emb):
    with pytest.raises(ValueError):
        parabolic(emb.so7, (1, 0))
    with pytest.raises(ValueError):
        parabolic(emb.so7, (2, 0, 0))


def test_intersections(emb):
    cases = {
        (1, 0, 0): (1, 0),
        (0, 0, 0): (0, 0),
        (1, 1, 1): (1, 1),
        (0, 1, 0): (0, 1),
        (1, 0, 1): (1, 0),
        (0, 0, 1): (1, 0),
        (1, 1, 0): (1, 1),
        (0, 1, 1): (1, 1),
    }
    for mask, expected in cases.items():
        q = intersect_parabolic(emb, parabolic(emb.so7, mask))
        assert q.mask == expected, mask


def test_lattice_matches_fixture(emb):
    lat = inclusion_lattice(emb)
    assert sorted(lat.arrows) == EXPECTED_ARROWS
    assert len(lat.arrows) == 20


def test_lattice_cross_arrows_realize_meet(emb):
    lat = inclusion_lattice(emb)
    for a, b in lat.arrows:
        if a.startswith("p'") and b.startswith("p("):
            p = lat.parabolics[b]
            q = intersect_parabolic(emb, p)
            assert lat.parabolics[a].mask == q.mask


def test_meet_is_largest_included(emb):
    lat = inclusion_lattice(emb)
    for name, p in lat.parabolics.items():
        if p.algebra != "so7":
            continue
        q = intersect_parabolic(emb, p)
        qname = f"p'({','.join(str(m) for m in q.mask)})"
        assert (qname, name) in lat.inclusions
        for oname, other in lat.parabolics.items():
            if other.algebra != "g2" or oname == qname:
                continue
            if (oname, name) in lat.inclusions:
                assert (oname, qname) in lat.inclusions


def test_specific_non_arrow(emb):
    lat = inclusion_lattice(emb)
    assert ("p'(1,0)", "p(0,1,0)") not in lat.inclusions
    assert ("p'(1,0)", "p(0,1,0)") not in lat.arrows


def test_borel_image_inside_borel(emb):
    lat = inclusion_lattice(emb)
    assert ("p'(1,1)", "p(1,1,1)") in lat.arrows


def test_dot_export(emb):
    lat = inclusion_lattice(emb)
    dot = lat.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 20
    assert '"p\'(1,0)" -> "p(1,0,1)";' in dot


def _flat(entries):
    """A 7x7 matrix given by its nonzero entries, flattened row by row."""
    return [entries.get((i, j), F(0)) for i in range(7) for j in range(7)]


def test_lattice_inclusions_match_dense_matrix_spans(emb):
    """The 39 strict inclusions, against the dense route: each parabolic
    spanned by its members' flattened 7x7 matrices (so(7) parabolics from the
    so(7) table, subalgebra parabolics from the subalgebra table), and a in b
    exactly when adding a's matrices to b's leaves the rank unchanged."""
    flat = {}
    for table, rank_of_table in ((emb.so7, 3), (emb.g2, 2)):
        for mask in itertools.product((0, 1), repeat=rank_of_table):
            p = parabolic(table, mask)
            flat[p.name] = [_flat(table.matrices[l]) for l in p.member_labels()]
    expected = sorted(
        (a, b) for a in flat for b in flat
        if a != b and rank(flat[b] + flat[a]) == rank(flat[b])
    )
    assert len(expected) == 39
    assert inclusion_lattice(emb).inclusions == expected
