"""Acceptance criteria, one test per criterion, exact tolerances.

Each criterion is one suite of ``g2fmethod.suites``, the same code that
``g2fmethod verify`` runs; a test runs its suite under its runtime budget.
Each test prints a single PASS/FAIL line with the suite's detail (run with
``pytest -s`` to see them inline); all comparisons are exact equalities of
rational or symbolic data.
"""

import time
from fractions import Fraction

from g2fmethod.liealg import alpha_weight, build_g2_root_data, g2_psi, reflect
from g2fmethod.scalars import LAMBDA
from g2fmethod.solver import PRINTED_G2_DIFFERENCE, nonstandard_verdict, symbolic_g2_difference
from g2fmethod.suites import SUITES

F = Fraction
SUITE = dict(SUITES)


class Stopwatch:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        detail = f"; {self.detail}" if self.detail else ""
        print(
            f"ACCEPTANCE {self.name}: {status} in {dt:.2f}s "
            f"(budget {self.budget}s){detail}"
        )
        if exc_type is None:
            assert dt < self.budget, f"{self.name} exceeded {self.budget}s ({dt:.2f}s)"
        return False


def test_c1_structure_suite(ctx):
    with Stopwatch("1 structure", 5) as sw:
        sw.detail = SUITE["structure"](ctx)


def test_c2_lattice_suite(ctx):
    with Stopwatch("2 lattice", 5) as sw:
        sw.detail = SUITE["lattice"](ctx)


def test_c3_operator_regression(ctx):
    with Stopwatch("3 operator", 10) as sw:
        sw.detail = SUITE["operator"](ctx)


def test_c4_hilbert_suite(ctx):
    with Stopwatch("4 hilbert", 30) as sw:
        sw.detail = SUITE["hilbert"](ctx)


def test_c5_theorem_suite(ctx):
    with Stopwatch("5 theorem", 60) as sw:
        sw.detail = SUITE["theorem"](ctx)


def test_c6_oracle_equivalence(ctx):
    with Stopwatch("6 oracle", 120) as sw:
        sw.detail = SUITE["oracle"](ctx)


def test_c7_weights_and_homomorphisms(ctx):
    with Stopwatch("7 weights", 5) as sw:
        sw.detail = SUITE["weights"](ctx)


def test_c7_g2_difference_matches_printed_display():
    """The displayed rank-2 difference, (2 lam + 6) alpha2 + (4 lam + 16) alpha1.

    Neither admissible reflection reproduces it: the difference of the two
    shifted weights is (2 lam + 5) psi1 - c(lam) root, and matching the
    displayed value would force the root to be proportional to
    6 alpha1 + alpha2, which is not a root.  The computed differences are
    (4 lam + 10) alpha1 + (2 lam + 4) alpha2 for the Levi-root reflection and
    (3 lam + 23/2) alpha1 + (2 lam + 5) alpha2 for the crossed-root one.

    The test pins the displayed value, both computed differences and every
    verdict's comparison, checks the argument above over all six positive
    roots, and prints both sides on its ACCEPTANCE line.
    """
    with Stopwatch("7b printed rank-2 difference", 5) as sw:
        computed = {
            "levi_reflection": symbolic_g2_difference(2),
            "crossed_reflection": symbolic_g2_difference(1),
        }
        sw.detail = (
            f"printed {PRINTED_G2_DIFFERENCE} vs computed "
            + ", ".join(f"{k} {d}" for k, d in computed.items())
        )
        assert PRINTED_G2_DIFFERENCE == alpha_weight(
            (4 * LAMBDA + 16, 2 * LAMBDA + 6)
        )
        assert computed == {
            "levi_reflection": alpha_weight((4 * LAMBDA + 10, 2 * LAMBDA + 4)),
            "crossed_reflection": alpha_weight(
                (3 * LAMBDA + F(23, 2), 2 * LAMBDA + 5)
            ),
        }

        # s_beta(lam psi1 + rho_l) - ((-lam-5) psi1 + rho_l)
        #   = (2 lam + 5) psi1 - c(lam) beta
        psi1 = g2_psi(1)
        rho_l = alpha_weight((F(0), F(1, 2)))
        source = psi1.scale(LAMBDA) + rho_l
        target = psi1.scale(-LAMBDA - 5) + rho_l
        common = psi1.scale(2 * LAMBDA + 5)
        residue = PRINTED_G2_DIFFERENCE - common
        assert all(c.is_constant() for c in residue.coords)
        r1, r2 = (c.constant_value() for c in residue.coords)
        assert (r1, r2) == (6, 1)
        datum = build_g2_root_data()
        for b1, b2 in datum.positive:
            beta = alpha_weight((b1, b2))
            diff = reflect(source, beta) - target
            d1, d2 = (diff - common).coords
            assert (d1 * b2 - d2 * b1).is_zero(), (b1, b2)
            assert r1 * b2 - r2 * b1 != 0, (b1, b2)
            assert diff != PRINTED_G2_DIFFERENCE, (b1, b2)

        for k in range(5):
            v = nonstandard_verdict(F(2 * k - 3, 2))
            assert v.in_regime
            assert v.printed_g2_matches == {
                "levi_reflection": False,
                "crossed_reflection": False,
            }


def test_c8_property_suite(ctx):
    with Stopwatch("8 properties", 60) as sw:
        sw.detail = SUITE["properties"](ctx)


def test_every_suite_has_its_acceptance_test():
    """The suites the tests above run are exactly ``SUITES``: a new suite
    needs its criterion here."""
    tests = [fn for name, fn in globals().items() if name.startswith("test_c")]
    run = [c for fn in tests for c in fn.__code__.co_consts if c in SUITE]
    assert sorted(run) == sorted(SUITE)
