import random
from fractions import Fraction

import dataclasses

import pytest

from g2fmethod.polynomials import NVARS
from g2fmethod.scalars import LAMBDA, LambdaPoly
from g2fmethod.solver import pprime_annihilators
from g2fmethod.verma import COORD_LABELS, VermaModule, VermaVector, parse_verma

F = Fraction


@pytest.fixture(scope="module")
def module(so7):
    return VermaModule(so7)


def test_coordinate_order():
    assert COORD_LABELS == (-1, -8, -6, -9, -4)


def test_highest_weight_identities(module):
    v = VermaVector.highest_weight()
    # the first simple raising generator pairs to the parameter
    y1v = VermaVector.monomial((1, 0, 0, 0, 0))
    assert module.act({1: F(1)}, y1v) == v.scale(LAMBDA)
    # Levi coroot kills the scalar-type vector
    assert module.act({"h2": F(1)}, v).is_zero()
    # nilradical kills it
    assert module.act({1: F(1)}, v).is_zero()


def test_action_multiplies_by_nilradical(module):
    v = VermaVector.highest_weight()
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
            out = VermaVector.monomial(m).shift(COORD_LABELS.index(label))
        else:
            k = next((i for i, e in enumerate(m) if e > 0), None)
            if k is None:
                out = VermaVector({(0,) * NVARS: module._char[label]})
            else:
                rest = list(m)
                rest[k] -= 1
                rest_m = tuple(rest)
                out = act(label, rest_m).shift(k)
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
            assert module.act_basis(label, m) == reference(label, m), (label, m)
            pairs += 1
    assert pairs == 9702
    assert len(module._memo) == len(so7.labels)


def test_act_keeps_the_parameter_symbolic(module):
    out = module.act_basis(1, (2, 0, 1, 0, 0))
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
    assert module.weight_of(VermaVector.highest_weight()).coords[0] == LAMBDA
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


def test_verma_grammar_roundtrip(module):
    vec = (
        VermaVector.monomial((1, 0, 0, 1, 0), 4)
        + VermaVector.monomial((0, 0, 2, 0, 0), F(-1, 2))
        + VermaVector.highest_weight().scale(LAMBDA + 1)
    )
    s = str(vec)
    assert parse_verma(s) == vec
    assert str(parse_verma("4*g_-1*g_-9*v + 4*g_-8*g_-4*v + g_-6^2*v")) == (
        "4*g_-1*g_-9*v + 4*g_-8*g_-4*v + g_-6^2*v"
    )


def test_verma_grammar_requires_cyclic_vector():
    with pytest.raises(ValueError):
        parse_verma("g_-1")
