import dataclasses
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from g2fmethod import verma
from g2fmethod.linsolve import kernel_basis, rref
from g2fmethod.polynomials import NVARS
from g2fmethod.scalars import LAMBDA, LambdaPoly
from g2fmethod.solver import borel_annihilators, pprime_annihilators, pprime_full_annihilators, solve_even
from g2fmethod.verma import COORD_LABELS, VermaModule, VermaVector, _first_root_grading, parse_verma
from test_linsolve import textbook_kernel

F = Fraction


@pytest.fixture(scope="module")
def module(so7):
    return VermaModule(so7)


def test_coordinate_order():
    assert COORD_LABELS == (-1, -8, -6, -9, -4)


def test_highest_weight_identities(module):
    v = VermaVector.constant(1)
    # the first simple raising generator pairs to the parameter
    y1v = VermaVector.monomial((1, 0, 0, 0, 0))
    assert module.act({1: F(1)}, y1v) == v.scale(LAMBDA)
    # Levi coroot kills the scalar-type vector
    assert module.act({"h2": F(1)}, v).is_zero()
    # nilradical kills it
    assert module.act({1: F(1)}, v).is_zero()


def test_action_multiplies_by_nilradical(module):
    v = VermaVector.constant(1)
    out = module.act({-8: F(2)}, v)
    assert out == VermaVector.monomial((0, 1, 0, 0, 0), 2)


def test_invariant_element_killed_by_levi(module):
    u1 = VermaVector.monomial((1, 0, 0, 1, 0)) + VermaVector.monomial((0, 1, 0, 0, 1))
    assert module.act({2: F(1)}, u1).is_zero()
    assert module.act({-2: F(1)}, u1).is_zero()


def test_nine_term_monomial_action(module, emb):
    # the closed form of the embedded generator acting on a monomial
    def closed_form(n):
        n1, n2, n3, n4, n5 = n
        out = {}

        def add(m, c):
            if c and all(e >= 0 for e in m):
                out[m] = out.get(m, LambdaPoly()) + c

        add((n1 - 1, n2, n3, n4, n5), LambdaPoly.const(-n1 * n1 + n1))
        add((n1, n2 - 1, n3 + 1, n4, n5), LambdaPoly.const(-n2))
        add((n1 - 1, n2, n3, n4, n5), LAMBDA * n1)
        add((n1, n2, n3 - 2, n4 + 1, n5), LambdaPoly.const(n3 * n3 - n3))
        add((n1, n2, n3 - 1, n4, n5 + 1), LambdaPoly.const(2 * n3))
        add((n1 - 1, n2, n3, n4, n5), LambdaPoly.const(-n1 * n5))
        add((n1, n2 - 1, n3, n4 + 1, n5 - 1), LambdaPoly.const(n2 * n5))
        add((n1 - 1, n2, n3, n4, n5), LambdaPoly.const(-n1 * n2))
        add((n1 - 1, n2, n3, n4, n5), LambdaPoly.const(-n1 * n3))
        return VermaVector(out)

    X = emb.gen(1)
    rng = random.Random(11)
    grid = [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (2, 1, 3, 1, 2), (0, 2, 0, 1, 1)]
    grid += [tuple(rng.randint(0, 3) for _ in range(5)) for _ in range(20)]
    for n in grid:
        assert module.act(X, VermaVector.monomial(n)) == closed_form(n), n


def textbook_action(module, so7):
    """PBW straightening by recursion on the monomial, memoized per
    (basis label, monomial):  X y m v = y (X m v) + [X, y] m v,  with the
    character on the highest weight vector and multiplication by the
    opposite nilradical."""
    memo = {}

    def act(label, m):
        key = (label, m)
        if key in memo:
            return memo[key]
        if label in COORD_LABELS:
            out = VermaVector.monomial(m) * VermaVector.variable(COORD_LABELS.index(label) + 1)
        else:
            k = next((i for i, e in enumerate(m) if e > 0), None)
            if k is None:
                out = VermaVector({(0,) * NVARS: module._char[label]})
            else:
                rest = list(m)
                rest[k] -= 1
                rest_m = tuple(rest)
                out = act(label, rest_m) * VermaVector.variable(k + 1)
                for l2, c2 in so7.brackets.get((label, COORD_LABELS[k]), {}).items():
                    out = out + act(l2, rest_m).scale(c2)
        memo[key] = out
        return out

    return act


def test_closed_form_matches_textbook_straightening(module, so7):
    reference = textbook_action(module, so7)
    monomials = [m for d in range(7) for m in module.monomials_of_degree(d)]
    pairs = 0
    for label in so7.labels:
        for m in monomials:
            assert module.act({label: F(1)}, VermaVector.monomial(m)) == reference(label, m), (label, m)
            pairs += 1
    assert pairs == 9702
    assert len(module._memo) == len(so7.labels)


def test_act_keeps_the_parameter_symbolic(module):
    out = module.act({1: F(1)}, VermaVector.monomial((2, 0, 1, 0, 0)))
    assert all(isinstance(c, LambdaPoly) for c in out.terms.values())
    assert any(c.degree == 1 for c in out.terms.values())


def test_grading_check_rejects_a_table_that_is_not_one_graded(so7):
    # [g_1, g_-1] moved off the Cartan (grade 0) into a grade -1 label
    brackets = dict(so7.brackets)
    brackets[(1, -1)] = {-8: F(1)}
    with pytest.raises(ValueError):
        VermaModule(dataclasses.replace(so7, brackets=brackets))
    # a grade -1 label outside the y-coordinates
    roots = dict(so7.roots)
    roots[-2] = roots[-1]
    with pytest.raises(ValueError):
        VermaModule(dataclasses.replace(so7, roots=roots))


def test_representation_property_random(module, so7):
    rng = random.Random(2024)
    labels = so7.labels
    for _ in range(120):
        x = {rng.choice(labels): F(rng.randint(-3, 3))}
        y = {rng.choice(labels): F(rng.randint(-3, 3))}
        m = tuple(rng.randint(0, 2) for _ in range(5))
        while sum(m) > 4:
            m = tuple(rng.randint(0, 2) for _ in range(5))
        v = VermaVector.monomial(m)
        lhs = module.act(so7.bracket(x, y), v)
        rhs = module.act(x, module.act(y, v)) - module.act(y, module.act(x, v))
        assert lhs == rhs


def test_act_at_a_parameter_value_matches_evaluation(module, so7):
    rng = random.Random(77)
    labels = so7.labels
    for _ in range(60):
        x = {rng.choice(labels): F(rng.randint(-3, 3)) for _ in range(2)}
        v = VermaVector({
            tuple(rng.randint(0, 3) for _ in range(5)): LambdaPoly([F(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)])
            for _ in range(4)
        })
        lam = F(rng.randint(-9, 9), rng.randint(1, 4))
        assert module.act(x, v, lam=lam) == module.act(x, v).evaluate_lambda(lam)
    # element coefficients with denominators 2 and 3 share the common denominator
    for _ in range(40):
        x = {rng.choice(labels): F(rng.randint(-5, 5), rng.choice((2, 3))) for _ in range(3)}
        v = VermaVector({
            tuple(rng.randint(0, 3) for _ in range(5)): LambdaPoly([F(rng.randint(-4, 4), rng.randint(1, 5)), F(rng.randint(-2, 2), 3)])
            for _ in range(4)
        })
        lam = F(rng.randint(-9, 9), rng.randint(1, 4))
        assert module.act(x, v, lam=lam) == module.act(x, v).evaluate_lambda(lam)


def test_cartan_diagonal_on_monomials(module, so7):
    # h acts diagonally with eigenvalue chi(h) + (sum of the roots)(h)
    for h in ("h1", "h2", "h3"):
        for m in [(1, 0, 0, 0, 0), (0, 1, 1, 0, 0), (2, 0, 0, 1, 3)]:
            out = module.act({h: F(1)}, VermaVector.monomial(m))
            shift = F(0)
            for e, l in zip(m, COORD_LABELS):
                shift += e * so7.cartan_value(h, so7.roots[l])
            expected = VermaVector.monomial(m).scale(module._char[h] + shift)
            assert out == expected


def test_weight_of(module):
    assert module.weight_of(VermaVector.constant(1)).coords[0] == LAMBDA
    w = module.weight_of(VermaVector.monomial((0, 0, 0, 1, 0)))
    assert w.coords[0] == LAMBDA - 1
    assert w.coords[1] == LambdaPoly.const(-1)
    with pytest.raises(ValueError):
        module.weight_of(
            VermaVector.monomial((1, 0, 0, 0, 0)) + VermaVector.monomial((0, 0, 1, 0, 0))
        )


def test_weight_of_degree_two_invariant(module):
    vec = (
        VermaVector.monomial((1, 0, 0, 1, 0), 4)
        + VermaVector.monomial((0, 1, 0, 0, 1), 4)
        + VermaVector.monomial((0, 0, 2, 0, 0))
    )
    w = module.weight_of(vec)
    assert w.coords[0] == LAMBDA - 2
    assert w.coords[0](F(-3, 2)) == F(-7, 2)


def test_singular_search_examples(module, emb):
    anns = pprime_annihilators(emb)
    kernel = module.singular_search(2, F(-3, 2), anns)
    assert len(kernel) == 1
    vec = kernel[0]
    base = vec.terms[(0, 0, 2, 0, 0)].constant_value()
    assert vec.terms[(1, 0, 0, 1, 0)].constant_value() / base == 4
    assert vec.terms[(0, 1, 0, 0, 1)].constant_value() / base == 4
    assert module.singular_search(2, F(0), anns) == []
    borel = [{1: F(1)}, {2: F(1)}, {3: F(1)}]
    assert module.singular_search(1, F(-3, 2), borel) == []
    assert module.singular_search(1, F(7, 3), borel) == []
    with pytest.raises(ValueError):
        module.singular_search(-1, F(1, 2), anns)


def fraction_route_search(module, degree, lam0, annihilators):
    """The search over the rationals: each entry the value of the action at
    ``lam0`` (a Fraction, divided by its denominator), rows sorted by
    (annihilator, output monomial), and the kernel by dense textbook
    Gauss-Jordan."""
    blocks = {}
    for m in module.monomials_of_degree(degree):
        blocks.setdefault((m[0] - m[3], m[4] - m[1]), []).append(m)
    vectors = []
    for key in sorted(blocks):
        block = blocks[key]
        rows = {}
        for col, m in enumerate(block):
            for ai, ann in enumerate(annihilators):
                for t, c in module.act(ann, VermaVector.monomial(m), lam0).terms.items():
                    rows.setdefault((ai, t), [F(0)] * len(block))[col] += c.constant_value()
        matrix = [rows[k] for k in sorted(rows)]
        if matrix:
            kernel = textbook_kernel(matrix)
        else:
            kernel = [[F(int(i == j)) for j in range(len(block))] for i in range(len(block))]
        vectors += [VermaVector({m: LambdaPoly.const(c) for m, c in zip(block, vec) if c})
                    for vec in kernel]
    return vectors


@pytest.mark.parametrize("annihilators", ["pprime", "borel"])
@pytest.mark.parametrize("degree", range(9))
def test_integer_search_matches_the_fraction_route(module, emb, annihilators, degree):
    anns = (pprime_annihilators if annihilators == "pprime" else borel_annihilators)(emb)
    rng = random.Random(1900 + degree)
    lams = [F(degree - 5, 2), F(-rng.randint(1, 9)), F(rng.randint(-9, 9), rng.choice((3, 4, 7)))]
    for lam in lams:
        got = module.singular_search(degree, lam, anns)
        want = fraction_route_search(module, degree, lam, anns)
        assert [list(v.terms.items()) for v in got] == [list(v.terms.items()) for v in want]
        assert got == want


def unpruned_search(module, degree, lams, annihilators):
    """The search with no block skipped, at each of ``lams``: each block's
    rows from the symbolic action on its monomials, one by one, evaluated
    at the parameter value, and ``kernel_basis`` run on every block.
    Returns one list per value of (block, rows, kernel), in the search's
    block order."""
    blocks = {}
    for m in module.monomials_of_degree(degree):
        blocks.setdefault((m[0] - m[3], m[4] - m[1]), []).append(m)
    images = {(ai, m): module.act(ann, VermaVector.monomial(m)).terms
              for ai, ann in enumerate(annihilators) for block in blocks.values() for m in block}
    return [list(_unpruned_blocks(blocks, images, len(annihilators), lam)) for lam in lams]


def _unpruned_blocks(blocks, images, count, lam0):
    for key in sorted(blocks):
        block = blocks[key]
        rows = {}
        for col, m in enumerate(block):
            for ai in range(count):
                for t, c in images[ai, m].items():
                    c = c(lam0)
                    if c:
                        rows.setdefault((ai, t), [F(0)] * len(block))[col] += c
        matrix = [rows[k] for k in sorted(rows)]
        if matrix:
            kernel = kernel_basis(matrix)
        else:
            kernel = [[F(int(i == j)) for j in range(len(block))] for i in range(len(block))]
        yield block, matrix, [VermaVector({m: LambdaPoly.const(c) for m, c in zip(block, vec) if c})
                              for vec in kernel]


def _pruning_cases(emb):
    return {
        "pprime": pprime_annihilators(emb),
        "pprime_full": pprime_full_annihilators(emb),
        "borel": borel_annihilators(emb),
        # a Cartan element in the list itself, beside a raising generator
        "cartan": [{"h2": F(1)}, {1: F(1)}],
    }


@pytest.mark.parametrize("annihilators", ["pprime", "pprime_full", "borel", "cartan"])
@pytest.mark.parametrize("degree", range(9))
def test_pruned_search_matches_the_unpruned_one(module, emb, monkeypatch, annihilators, degree):
    """Equal kernels, and every block the search skips has an empty kernel.

    The skipped blocks are read off the search's own ``kernel_basis`` calls:
    they come in block order, and a solved block's rows span what the
    reference rows of that block span."""
    anns = _pruning_cases(emb)[annihilators]
    solved = []

    def recording_kernel_basis(matrix):
        solved.append(rref(matrix))
        return kernel_basis(matrix)

    monkeypatch.setattr(verma, "kernel_basis", recording_kernel_basis)
    skips = 0
    lams = (F(degree - 5, 2), F(degree - 4, 2), F(0), F(1, 3), F(-7, 4))
    for lam, want in zip(lams, unpruned_search(module, degree, lams, anns)):
        solved.clear()
        got = module.singular_search(degree, lam, anns)
        assert got == [v for _, _, kernel in want for v in kernel], (degree, lam)
        pending = iter(solved)
        nxt = next(pending, None)
        for block, matrix, kernel in want:
            if not matrix:
                continue
            if nxt is not None and rref(matrix) == nxt:
                nxt = next(pending, None)
                continue
            assert kernel == [], (degree, lam, block[0])
            skips += 1
        assert nxt is None, (degree, lam)
    if degree >= 2 and annihilators != "borel":
        assert skips > 0
    if annihilators == "borel":
        assert skips == 0


def test_a_cartan_element_is_injective_only_where_no_multiplier_vanishes(module):
    """The skip test asks for a nonzero multiplier on every monomial, not on
    some: h2 acts by zero on y3 v and not on y1 v at any parameter value."""
    w = 2
    groups, _ = module._compile({"h2": F(1)}, w, F(1, 3))
    assert len(groups) == 1 and groups[0][0] == 0
    moves = groups[0][3]
    for monos, injective in (([(1, 0, 0, 0, 0)], True), ([(0, 0, 1, 0, 0)], False),
                             ([(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)], False)):
        assert verma._injective(moves, list(zip(*monos)), len(monos)) is injective


def test_verma_grammar_roundtrip(module):
    vec = (
        VermaVector.monomial((1, 0, 0, 1, 0), 4)
        + VermaVector.monomial((0, 0, 2, 0, 0), F(-1, 2))
        + VermaVector.constant(1).scale(LAMBDA + 1)
    )
    s = str(vec)
    assert parse_verma(s) == vec
    assert str(parse_verma("4*g_-1*g_-9*v + 4*g_-8*g_-4*v + g_-6^2*v")) == (
        "4*g_-1*g_-9*v + 4*g_-8*g_-4*v + g_-6^2*v"
    )


def test_verma_grammar_requires_cyclic_vector():
    with pytest.raises(ValueError):
        parse_verma("g_-1")


# -- one polynomial type, two printers ---------------------------------------


def test_arithmetic_and_action_keep_the_module_type(module):
    u = VermaVector.monomial((1, 0, 0, 1, 0), 4) + VermaVector.constant(LAMBDA + 1)
    w = VermaVector.monomial((0, 0, 2, 0, 0), F(-1, 2))
    results = {
        "+": u + w,
        "-": u - w,
        "neg": -u,
        "scale": u.scale(LAMBDA - 2),
        "*": u * VermaVector.variable(3),
        "int*": 3 * u,
        "**": u ** 2,
        "evaluate_lambda": u.evaluate_lambda(F(-3, 2)),
        "act": module.act({1: F(1)}, w * VermaVector.variable(1)),
        "act at lam": module.act({-8: F(2)}, u, lam=F(1, 3)),
        "zero": VermaVector.zero(),
    }
    for name, v in results.items():
        assert type(v) is VermaVector, name
        text = str(v)
        assert "x" not in text, (name, text)
        assert text == "0" or text.endswith("v"), (name, text)
        assert repr(v) == f"VermaVector({text})", name
        assert parse_verma(text) == v, name
    assert str(results["+"]) == "4*g_-1*g_-9*v - 1/2*g_-6^2*v + (L + 1)*v"
    assert str(results["act at lam"]) == "8*g_-1*g_-8*g_-9*v + 8/3*g_-8*v"
    assert str(results["**"]) == "16*g_-1^2*g_-9^2*v + (8*L + 8)*g_-1*g_-9*v + (L^2 + 2*L + 1)*v"


def test_a_polynomial_equals_the_module_vector_with_its_terms():
    from g2fmethod.polynomials import XiPolynomial, parse_xi_polynomial

    p = parse_xi_polynomial("4*x1*x4 + (L + 1) - 1/2*x3^2")
    v = parse_verma("4*g_-1*g_-9*v - 1/2*g_-6^2*v + (L + 1)*v")
    assert p == v and v == p
    assert hash(p) == hash(v)
    assert type(p) is XiPolynomial and str(p) == "4*x1*x4 - 1/2*x3^2 + (L + 1)"
    assert v != p + XiPolynomial.variable(2)
    # a mixed sum takes the type of its left operand
    assert type(p + v) is XiPolynomial and type(v + p) is VermaVector


# -- the compiled action against the earlier tuple-based one -----------------


class ReferenceAction:
    """The action as computed before monomials were packed: per-label tables
    (grade, character part, bracket part), applied by building the shifted
    exponent tuples term by term; at a parameter value the tables are scaled
    to integers.  Kept here as the reference for the compiled moves."""

    HALF = F(1, 2)

    def __init__(self, module, so7):
        self.module = module
        grade = _first_root_grading(so7)
        self.memo = {l: self.action_table(l, grade[l]) for l in so7.labels}

    def action_table(self, label, g):
        mod = self.module
        if g == -1:
            return g, mod.coord_index[label], None
        x = {label: F(1)}
        ys = [{l: F(1)} for l in COORD_LABELS]
        first = [mod.so7.bracket(x, y) for y in ys]
        if g == 0:
            return g, mod._chi(x), tuple(mod._y_coords(b) for b in first)
        second = tuple(
            tuple(
                tuple((k, self.HALF * c) for k, c in mod._y_coords(mod.so7.bracket(b, y)))
                for y in ys
            )
            for b in first
        )
        return g, tuple(mod._chi(b) for b in first), second

    def integer_table(self, label, lam):
        table = self.memo[label]
        g, chi, brackets = table
        if g == -1:
            return table, 1
        chis = [c(lam) for c in ((chi,) if g == 0 else chi)]
        cells = brackets if g == 0 else [cell for row in brackets for cell in row]
        den = math.lcm(*(q.denominator for q in chis),
                       *(c.denominator for cell in cells for _, c in cell))

        def up(q):
            return q.numerator * (den // q.denominator)

        def up_cell(cell):
            return tuple((k, up(c)) for k, c in cell)

        if g == 0:
            return (g, up(chis[0]), tuple(up_cell(cell) for cell in brackets)), den
        return (g, tuple(up(q) for q in chis),
                tuple(tuple(up_cell(cell) for cell in row) for row in brackets)), den

    def integer_action(self, x, lam):
        scaled = []
        for l, c in x.items():
            if c:
                table, den = self.integer_table(l, lam)
                scaled.append((table, F(c), den))
        common = math.lcm(*(c.denominator * den for _, c, den in scaled))
        return [
            (table, c.numerator * (common // (c.denominator * den)))
            for table, c, den in scaled
        ], common

    @staticmethod
    def act_into(out, table, m, coeff):
        def shifted(m, i, step):
            return m[:i] + (m[i] + step,) + m[i + 1:]

        def add_term(m, c):
            prev = out.get(m)
            out[m] = c if prev is None else prev + c

        g, chi, brackets = table
        if g == -1:
            add_term(shifted(m, chi, 1), coeff)
        elif g == 0:
            if chi:
                add_term(m, coeff * chi)
            for i, mi in enumerate(m):
                if mi:
                    base = shifted(m, i, -1)
                    for j, c in brackets[i]:
                        add_term(shifted(base, j, 1), coeff * (mi * c))
        else:
            for i, mi in enumerate(m):
                if not mi:
                    continue
                mi_m = shifted(m, i, -1)
                if chi[i]:
                    add_term(mi_m, coeff * (chi[i] * mi))
                for j, mj in enumerate(mi_m):
                    if mj:
                        base = shifted(mi_m, j, -1)
                        for k, c in brackets[i][j]:
                            add_term(shifted(base, k, 1), coeff * (mi * mj * c))

    def act(self, x, v, lam=None):
        if lam is None:
            out = {}
            for l, c in x.items():
                if c == 0:
                    continue
                for m, coeff in v.terms.items():
                    self.act_into(out, self.memo[l], m, coeff * c)
            return VermaVector(out)
        values = [(m, c(lam)) for m, c in v.terms.items()]
        dv = math.lcm(*(q.denominator for _, q in values))
        action, den = self.integer_action(x, lam)
        sums = {}
        for table, k in action:
            for m, q in values:
                self.act_into(sums, table, m, q.numerator * (dv // q.denominator) * k)
        den *= dv
        return VermaVector({m: F(n, den) for m, n in sums.items()})


@pytest.fixture(scope="module")
def reference(module, so7):
    return ReferenceAction(module, so7)


def test_compiled_action_matches_reference_on_every_label_and_small_monomial(module, so7, reference):
    monomials = [m for d in range(5) for m in module.monomials_of_degree(d)]
    for label in so7.labels:
        for m in monomials:
            expected = reference.act({label: F(1)}, VermaVector.monomial(m))
            assert module.act({label: F(1)}, VermaVector.monomial(m)) == expected, (label, m)


def test_compiled_action_matches_reference_at_a_parameter_value(module, so7, reference):
    rng = random.Random(8)
    labels = so7.labels
    for _ in range(200):
        x = {rng.choice(labels): F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
             for _ in range(rng.randint(1, 4))}
        terms = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(0, 12)
            cuts = sorted(rng.randint(0, d) for _ in range(NVARS - 1))
            m = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
            terms[m] = LambdaPoly([F(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                                   F(rng.randint(-3, 3), rng.choice((1, 2)))])
        v = VermaVector(terms)
        lam = F(rng.randint(-15, 15), rng.choice((1, 2, 3, 4)))
        assert module.act(x, v, lam=lam) == reference.act(x, v, lam=lam)
        assert module.act(x, v) == reference.act(x, v)


def test_compiled_action_widens_its_fields_past_exponent_4096(module, so7, reference):
    v = VermaVector({(4097, 3, 0, 5000, 1): LambdaPoly([2, F(1, 3)]),
                     (0, 9000, 4096, 0, 2): LambdaPoly.const(F(-5, 2))})
    for label in so7.labels:
        x = {label: F(1)}
        assert module.act(x, v) == reference.act(x, v), label
        assert module.act(x, v, lam=F(7, 2)) == reference.act(x, v, lam=F(7, 2)), label


def test_annihilates_tells_apart_elements_on_the_same_labels(module):
    # on y1 v at lambda = 1, h1 + h2 acts by zero and h1 + 2 h2 does not
    v, lam = VermaVector.monomial((1, 0, 0, 0, 0)), F(1)
    elements = [{"h1": F(1), "h2": F(1)}, {"h1": F(1), "h2": F(2)}, {"h2": F(1), "h1": F(1)},
                {"h1": F(1), "h2": F(1), "h3": F(0)}]
    alone = [module.act(x, v, lam=lam).is_zero() for x in elements]
    assert alone == [True, False, True, True]
    assert module.annihilates(elements, v, lam) == alone


# -- the slab kernel against the symbolic route ------------------------------


def _mixed_vector(rng, wide: bool) -> VermaVector:
    """Terms of degrees 0..12 (two more past exponent 4096 when ``wide``),
    with parameter-dependent, negative and fractional values."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        d = rng.randint(0, 12)
        cuts = sorted(rng.randint(0, d) for _ in range(NVARS - 1))
        terms[tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))] = LambdaPoly(
            [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))), F(rng.randint(-3, 3), rng.choice((1, 4)))])
    if wide:
        terms[(4097, rng.randint(0, 3), 0, rng.randint(0, 5000), 1)] = LambdaPoly.const(F(-7, 3))
        terms[(rng.randint(0, 2), 0, 4096, 1, rng.randint(0, 9000))] = LambdaPoly([F(1, 2), -1])
    return VermaVector(terms)


def _mixed_element(rng, so7):
    """An element with a label of each grade -1, 0, +1 and fractional coefficients."""
    grade = _first_root_grading(so7)
    x = {}
    for g in (-1, 0, 1):
        for _ in range(rng.randint(1, 2)):
            x[rng.choice([l for l in so7.labels if grade[l] == g])] = F(rng.randint(-6, 6) or 1, rng.choice((1, 2, 3)))
    return x


def test_slab_kernel_matches_the_symbolic_action_on_mixed_vectors(module, so7):
    rng = random.Random(14)
    for trial in range(80):
        v = _mixed_vector(rng, wide=trial % 4 == 0)
        elements = [_mixed_element(rng, so7) for _ in range(2)] + [{rng.choice(so7.labels): F(1)}]
        lam = F(rng.randint(-15, 15), rng.choice((1, 2, 3, 4)))
        images = [module.act(x, v).evaluate_lambda(lam) for x in elements]
        for x, image in zip(elements, images):
            assert module.act(x, v, lam=lam) == image, (trial, x)
        assert module.annihilates(elements, v, lam) == [image.is_zero() for image in images], trial


def test_slab_kernel_verdicts_match_the_symbolic_action_on_certificates(ctx):
    # certificates are killed at their parameter value and mostly not at the
    # next one; a term of higher x1 exponent than all others has its image in
    # the last output slabs only, which the kernel must still test
    module = ctx.module
    elements = pprime_annihilators(ctx.emb) + pprime_full_annihilators(ctx.emb) + borel_annihilators(ctx.emb)
    for N in range(1, 9):
        cert = solve_even(ctx, N, verify=False)
        v = cert.verma_vector
        tail = v + VermaVector.monomial((N + 1, 0, 2, 0, 1), F(-3, 2))
        for vector, lam in ((v, cert.lam), (v, cert.lam + 1), (tail, cert.lam)):
            images = [module.act(x, vector).evaluate_lambda(lam) for x in elements]
            verdicts = module.annihilates(elements, vector, lam)
            assert verdicts == [image.is_zero() for image in images], (N, lam)
            for x, image in zip(elements, images):
                assert module.act(x, vector, lam=lam) == image, (N, lam, x)
        assert all(module.annihilates(elements, v, cert.lam)), N
        assert not all(module.annihilates(elements, tail, cert.lam)), N


def test_annihilates_live_peak_on_the_certificate_at_homogeneity_240(ctx):
    # the slab window holds a few output slabs; summing a whole degree of an
    # image at once peaked at 1.04 MB here
    module = ctx.module
    elements = pprime_annihilators(ctx.emb) + pprime_full_annihilators(ctx.emb) + borel_annihilators(ctx.emb)
    cert = solve_even(ctx, 120, verify=False)
    module.annihilates(elements, cert.verma_vector, cert.lam)      # warm the free lists
    gc.disable()
    try:
        tracemalloc.start()
        kills = module.annihilates(elements, cert.verma_vector, cert.lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(kills)
    assert peak <= 0.9e6, peak
