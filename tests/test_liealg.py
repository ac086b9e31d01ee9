import dataclasses
import random
from fractions import Fraction

import pytest

from g2fmethod.liealg import (
    WeightVec,
    alpha_weight,
    build_g2_root_data,
    build_so_odd,
    eps_weight,
    eta_from_eps,
    g2_psi,
    positive_combination,
    reflect,
)
from g2fmethod.scalars import LAMBDA, LambdaPoly

F = Fraction


def test_so7_shape(so7):
    assert so7.dimension == 21
    assert len(so7.positive_root_labels) == 9
    assert so7.labels[:9] == list(range(-9, 0))
    assert so7.cartan_labels == ["h1", "h2", "h3"]


def test_so5_shape():
    so5 = build_so_odd(2)
    assert so5.dimension == 10
    assert len(so5.positive_root_labels) == 4


def test_root_labels_follow_graded_lex(so7):
    # simple generators first, lowest root last
    assert so7.roots[1].coords == (1, -1, 0)
    assert so7.roots[2].coords == (0, 1, -1)
    assert so7.roots[3].coords == (0, 0, 1)
    assert so7.roots[4].coords == (1, 0, -1)
    assert so7.roots[6].coords == (1, 0, 0)
    assert so7.roots[8].coords == (1, 0, 1)
    assert so7.roots[9].coords == (1, 1, 0)


def test_defining_form_membership(so7):
    # A^t B + B A = 0 for the defining symmetric form
    n = 3
    size = 2 * n + 1
    B = [[F(0)] * size for _ in range(size)]
    B[n][n] = F(1)
    for i in range(1, n + 1):
        B[i - 1][n + i] = F(1)
        B[n + i][i - 1] = F(1)
    for label in so7.labels:
        A = so7.matrices[label]
        for r in range(size):
            for c in range(size):
                lhs = sum(A[k][r] * B[k][c] for k in range(size))
                rhs = sum(B[r][k] * A[k][c] for k in range(size))
                assert lhs + rhs == 0, f"form violated by {label}"


def _dense_combination(table, x):
    """sum_l c_l * M_l over the stored dense basis matrices, entry by entry."""
    size = len(table.matrices[table.labels[0]])
    out = [[F(0)] * size for _ in range(size)]
    for label, c in x.items():
        m = table.matrices[label]
        for i in range(size):
            for j in range(size):
                out[i][j] += c * m[i][j]
    return out


def _dense_commutator(a, b):
    """AB - BA by the textbook triple loop."""
    size = len(a)
    return [
        [sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def _assert_bracket_is_commutator(table, x, y):
    expected = _dense_commutator(_dense_combination(table, x), _dense_combination(table, y))
    z = table.bracket(x, y)
    assert [list(row) for row in table.matrix_of(z)] == expected, (x, y)
    assert _dense_combination(table, z) == expected, (x, y)


def test_so7_and_subalgebra_brackets_match_dense_commutators(so7, emb):
    for table in (so7, emb.g2):
        for a in table.labels:
            for b in table.labels:
                _assert_bracket_is_commutator(table, {a: F(1)}, {b: F(1)})


def test_so9_brackets_match_dense_commutators():
    so9 = build_so_odd(4)
    rng = random.Random(11)
    labels = so9.labels
    for _ in range(150):
        _assert_bracket_is_commutator(so9, {rng.choice(labels): F(1)}, {rng.choice(labels): F(1)})

    def combination():
        return {l: F(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for l in rng.sample(labels, 4)}

    for _ in range(40):
        _assert_bracket_is_commutator(so9, combination(), combination())


def test_cartan_prescriptions(so7):
    assert so7.brackets[(1, -1)] == {"h1": F(1)}
    assert so7.brackets[(2, -2)] == {"h2": F(1)}
    # the short simple pair closes on twice the halved Cartan element
    assert so7.brackets[(3, -3)] == {"h3": F(2)}
    # highest-weight pairing on the first coroot
    assert so7.cartan_value("h1", eps_weight((1, 0, 0))) == 1


def test_eigenvector_and_antisymmetry(so7):
    assert so7.eigenvector_check()
    assert so7.antisymmetry_check()


def test_jacobi_sampled(so7):
    rng = random.Random(7)
    labels = so7.labels
    for _ in range(300):
        x, y, z = (({l: F(1)}) for l in (rng.choice(labels), rng.choice(labels), rng.choice(labels)))
        lhs = so7.bracket(x, so7.bracket(y, z))
        rhs1 = so7.bracket(so7.bracket(x, y), z)
        rhs2 = so7.bracket(y, so7.bracket(x, z))
        total = dict(lhs)
        for l, c in rhs1.items():
            total[l] = total.get(l, F(0)) - c
        for l, c in rhs2.items():
            total[l] = total.get(l, F(0)) - c
        assert all(v == 0 for v in total.values())


def _jacobi_reference(table):
    """The triple test [x,[y,z]] - [[x,y],z] - [y,[x,z]] = 0 over all ordered
    basis triples, three Fraction brackets per triple: the predicate
    ``jacobi_check`` must keep."""
    basis = {l: {l: F(1)} for l in table.labels}
    for x in table.labels:
        for y in table.labels:
            xy = table.brackets.get((x, y), {})
            for z in table.labels:
                total = dict(table.bracket(basis[x], table.brackets.get((y, z), {})))
                for rhs in (table.bracket(xy, basis[z]),
                            table.bracket(basis[y], table.brackets.get((x, z), {}))):
                    for l, c in rhs.items():
                        total[l] = total.get(l, F(0)) - c
                if any(v != 0 for v in total.values()):
                    return False
    return True


@pytest.fixture(scope="module")
def jacobi_tables(so7, emb):
    return {"so5": build_so_odd(2), "so7": so7, "g2": emb.g2}


@pytest.mark.parametrize("name", ["so5", "so7", "g2"])
def test_jacobi_check_equals_the_triple_test(jacobi_tables, name):
    table = jacobi_tables[name]
    assert table.jacobi_check() is _jacobi_reference(table) is True


def _mutant(table, rng, kind, mirrored):
    """``table`` with one bracket constant changed: in a bracket of two roots,
    in a bracket with a Cartan element, or at an entry the table lacks; with
    ``mirrored`` the antisymmetric partner changes with it."""
    roots = [l for l in table.labels if isinstance(l, int)]
    brackets = {k: dict(v) for k, v in table.brackets.items()}
    if kind == "absent":
        a, b = rng.sample(table.labels, 2)
        w = rng.choice([l for l in table.labels if l not in brackets.get((a, b), {})])
    else:
        firsts = table.cartan_labels if kind == "cartan" else roots
        a, b = rng.choice([(a, b) for a in firsts for b in roots if a != b and brackets.get((a, b))])
        w = rng.choice(sorted(brackets[a, b], key=str))
    delta = rng.choice([F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(2, 3)])
    value = brackets.setdefault((a, b), {}).get(w, F(0)) + delta
    brackets[a, b][w] = value
    if mirrored:
        brackets.setdefault((b, a), {})[w] = -value
    return dataclasses.replace(table, brackets=brackets)


@pytest.mark.parametrize("seed", range(72))
def test_jacobi_check_equals_the_triple_test_on_a_broken_constant(jacobi_tables, seed):
    rng = random.Random(seed)
    name = ("so5", "so7", "g2")[seed % 3]
    kind = ("root", "cartan", "absent")[seed // 3 % 3]
    mutant = _mutant(jacobi_tables[name], rng, kind, mirrored=seed % 2 == 0)
    assert mutant.jacobi_check() is _jacobi_reference(mutant) is False


# bracket-table checksums of the seed construction; any change to a structure
# constant, a label or the label order moves them
SEED_CHECKSUMS = {
    "so5": "c1e470481498e4fd",
    "so7": "65d4936435232e96",
    "so9": "f5116c3a4b3be3d2",
    "g2": "22534bb87aa086bd",
}


def test_structure_table_checksums_pinned(so7, emb):
    assert build_so_odd(2).checksum() == SEED_CHECKSUMS["so5"]
    assert so7.checksum() == SEED_CHECKSUMS["so7"]
    assert build_so_odd(4).checksum() == SEED_CHECKSUMS["so9"]
    assert emb.g2.checksum() == SEED_CHECKSUMS["g2"]


def test_g2_root_data(emb):
    datum = build_g2_root_data()
    assert datum.root_count == 12
    assert len(datum.positive) == 6
    assert datum.form[0][1] == -3
    assert datum.form[0][0] == 2
    assert datum.form[1][1] == 6
    # maximal element of the listed positive system in graded lex order
    assert datum.highest().coords == (3, 2)
    assert datum.positive[0] == (1, 0)
    assert datum.positive[1] == (0, 1)
    # every listed root is short (norm 2) or long (norm 6) under the form
    norms = [datum.root(l).pair(datum.root(l)) for l in range(1, 7)]
    assert norms == [2, 6, 2, 2, 6, 6]
    # and the list is the embedded subalgebra's, label for label
    assert datum.positive == tuple(emb.g2.simple_coords[l] for l in range(1, 7))


def test_reflect_short_root_sign_flip():
    w = eps_weight((F(2), F(3), F(5)))
    r = reflect(w, eps_weight((0, 0, 1)))
    assert r.coords == (F(2), F(3), F(-5))


def test_reflect_is_involution_and_isometry():
    rng = random.Random(3)
    for _ in range(50):
        w = eps_weight(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)))
        root = eps_weight((1, -1, 0)) if rng.random() < 0.5 else eps_weight((0, 1, 1))
        assert reflect(reflect(w, root), root) == w
        assert reflect(w, root).pair(reflect(w, root)) == w.pair(w)
    for _ in range(50):
        w = alpha_weight(tuple(F(rng.randint(-4, 4)) for _ in range(2)))
        root = alpha_weight((1, 0)) if rng.random() < 0.5 else alpha_weight((0, 1))
        assert reflect(reflect(w, root), root) == w
        assert reflect(w, root).pair(reflect(w, root)) == w.pair(w)


def test_reflect_rejects_zero_root():
    with pytest.raises(ValueError):
        reflect(eps_weight((1, 0, 0)), eps_weight((0, 0, 0)))


def test_symbolic_reflection_difference():
    # s_{eps3}(lam eps1 + rho_l) - ((-lam-5) eps1 + rho_l) = (2 lam + 5) eps1 - eps3
    rho = eps_weight((F(0), F(3, 2), F(1, 2)))
    w = eps_weight((LAMBDA, F(3, 2), F(1, 2)))
    target = eps_weight((-LAMBDA - 5, F(3, 2), F(1, 2)))
    diff = reflect(w, eps_weight((0, 0, 1))) - target
    assert diff == eps_weight((2 * LAMBDA + 5, LambdaPoly(), LambdaPoly([-1])))
    # at lam = 1/2 the difference is 6 eps1 - eps3
    vals = tuple(c(F(1, 2)) if isinstance(c, LambdaPoly) else c for c in diff.coords)
    assert vals == (6, 0, -1)


def test_positive_combination_so7(so7):
    roots = [(l, so7.simple_coords[l]) for l in so7.positive_root_labels]
    # 6 eps1 - eps3, in simple coordinates (6, 6, 5)
    witness = positive_combination(eps_weight(eta_from_eps((6, 0, -1))), roots)
    assert witness == {4: 1, 6: 5}
    # reconstruct
    total = [0, 0, 0]
    for l, k in witness.items():
        total = [t + k * c for t, c in zip(total, so7.simple_coords[l])]
    assert tuple(total) == (6, 6, 5)
    # negative first coordinate has no witness
    assert positive_combination(eps_weight(eta_from_eps((-1, 0, 1))), roots) is None


def test_positive_combination_g2():
    datum = build_g2_root_data()
    roots = [(i + 1, c) for i, c in enumerate(datum.positive)]
    # (4 lam + 10) alpha1 + (2 lam + 4) alpha2 at lam = -1/2
    w = alpha_weight((F(8), F(3)))
    witness = positive_combination(w, roots)
    assert witness is not None
    total = [0, 0]
    for l, k in witness.items():
        total = [t + k * c for t, c in zip(total, datum.positive[l - 1])]
    assert tuple(total) == (8, 3)
    # non-integral coordinates have none
    assert positive_combination(alpha_weight((F(1, 2), F(0))), roots) is None


def reference_positive_combination(target, roots):
    """The depth-first search without pruning: the lexicographically smallest
    non-negative integer coefficient vector in label order, or None."""
    items = sorted(roots, key=lambda t: t[0])

    def dfs(pos, remaining):
        if all(x == 0 for x in remaining):
            return {}
        if pos == len(items):
            return None
        label, coords = items[pos]
        bound = min((rem // c for rem, c in zip(remaining, coords) if c > 0), default=0)
        for k in range(bound + 1):
            nxt = tuple(r - k * c for r, c in zip(remaining, coords))
            if any(x < 0 for x in nxt):
                break
            sub = dfs(pos + 1, nxt)
            if sub is not None:
                return {label: k, **sub} if k else sub
        return None

    if any(x < 0 for x in target):
        return None
    return dfs(0, tuple(target))


def test_positive_combination_matches_unpruned_search(so7):
    rng = random.Random(7)
    so7_roots = [(l, so7.simple_coords[l]) for l in so7.positive_root_labels]
    g2_roots = [(i + 1, c) for i, c in enumerate(build_g2_root_data().positive)]
    for roots, dim, top in ((so7_roots, 3, 8), (g2_roots, 2, 20)):
        for _ in range(250):
            target = tuple(rng.randint(-1, top) for _ in range(dim))
            w = WeightVec(tuple(F(x) for x in target), "alpha")
            assert positive_combination(w, roots) == reference_positive_combination(target, roots)
    # a subset whose tails span a plane, then a line, then nothing
    plane = [(1, (1, 0, 0)), (2, (0, 1, 0)), (3, (1, 1, 0))]
    for target in ((2, 3, 0), (2, 3, 1), (0, 0, 0), (0, 4, 0), (0, -1, 0)):
        w = WeightVec(tuple(F(x) for x in target), "alpha")
        assert positive_combination(w, plane) == reference_positive_combination(target, plane)


def test_fundamental_weight_tables():
    assert g2_psi(1).coords == (2, 1)
    assert g2_psi(2).coords == (3, 2)
