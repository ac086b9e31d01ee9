import gc
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from g2fmethod.liealg import alpha_weight, eps_weight
from g2fmethod.linsolve import evaluate_matrix, kernel_basis, param_solve
from g2fmethod.operators import DiffOperator, op_apply
from g2fmethod.polynomials import parse_xi_polynomial, term_sort_key
from g2fmethod.scalars import LAMBDA, LambdaPoly
from g2fmethod.solver import (
    I1,
    LAPLACE_DUAL,
    X3,
    SolverContext,
    _collect_system,
    chain_rule_data,
    hilbert_closed_form,
    hilbert_multiplicity,
    hilbert_series_check,
    invariant_monomial_basis,
    invariants_of_degree,
    nonstandard_verdict,
    borel_annihilators,
    oracle_matches_certificate,
    pprime_annihilators,
    pprime_full_annihilators,
    run_certificate_checks,
    solve_even,
    solve_odd,
    symbolic_g2_difference,
    symbolic_so7_difference,
    verify_so7_singular,
)
from g2fmethod.verma import VermaVector, parse_verma

F = Fraction


# -- invariants --------------------------------------------------------------


def test_invariants_dimensions(ctx):
    assert invariants_of_degree(ctx, 0).dimension == 1
    assert invariants_of_degree(ctx, 2).dimension == 2
    assert invariants_of_degree(ctx, 5).dimension == 3
    basis = invariants_of_degree(ctx, 2).basis
    assert basis[0] == X3 * X3
    assert basis[1] == I1


def test_laplace_dual_form():
    assert LAPLACE_DUAL == parse_xi_polynomial("4*x1*x4 + 4*x2*x5 + x3^2")


# -- Hilbert multiplicities ----------------------------------------------------


def test_hilbert_examples():
    assert hilbert_multiplicity(2, 0) == 2
    assert hilbert_multiplicity(2, 2) == 3
    assert hilbert_multiplicity(3, 1) == 4
    assert hilbert_multiplicity(0, 0) == 1


def test_hilbert_closed_forms_match_counts():
    for l in range(7):
        for t in range(l + 1):
            assert hilbert_closed_form(l, t) == hilbert_multiplicity(l, t), (l, t)


def test_hilbert_invariant_count():
    for l in range(9):
        assert hilbert_multiplicity(l, 0) == 1 + l // 2


def test_hilbert_series_check():
    report = hilbert_series_check(6)
    assert report.all_match
    table = {(l, t): b for (l, t, b) in report.entries}
    assert table[(2, 0)] == 2
    assert table[(5, 0)] == 3
    payload = report.to_json()
    assert payload["series_match"] is True


def test_hilbert_series_reconstruction():
    # each degree slice is sum_t b(l,t) (x^t - x^(-t-2))
    from g2fmethod.solver import _series_coefficients

    slices = _series_coefficients(5)
    for l, sl in enumerate(slices):
        recon = {}
        for t in range(l + 1):
            b = hilbert_multiplicity(l, t)
            if b:
                recon[t] = recon.get(t, 0) + b
                recon[-t - 2] = recon.get(-t - 2, 0) - b
        recon = {k: F(v) for k, v in recon.items() if v}
        assert recon == sl, l


# -- the main solver ------------------------------------------------------------


def test_solve_even_first_three(ctx):
    for N, lam in ((1, F(-3, 2)), (2, F(-1, 2)), (3, F(1, 2))):
        cert = solve_even(ctx, N)
        assert cert is not None
        assert cert.lam == lam
        assert cert.coefficients == [F(4 ** s * math.comb(N, s)) for s in range(N + 1)]
        assert cert.xi_polynomial == LAPLACE_DUAL ** N
        assert cert.checks["p_prime_singular"] is True
        assert cert.checks["so7_singular"] is True


def test_solve_even_homogeneity_32_closed_forms(ctx):
    cert = solve_even(ctx, 16, verify=True)
    assert cert is not None
    assert cert.lam == F(27, 2)
    assert cert.coefficients == [F(4 ** s * math.comb(16, s)) for s in range(17)]
    assert cert.xi_polynomial == LAPLACE_DUAL ** 16
    bools = {k: v for k, v in cert.checks.items() if isinstance(v, bool)}
    assert set(bools) >= {"p_prime_singular", "so7_singular", "weight_matches_reflection_law",
                          "nonstandard_so7", "nonstandard_g2"}
    assert all(bools.values()), bools
    # the module keeps one action table per so(7) basis label, whatever N reached
    assert len(ctx.module._memo) <= 21


def test_solve_even_homogeneity_48_frontier(ctx):
    cert = solve_even(ctx, 24, verify=True)
    assert cert is not None
    assert cert.lam == F(43, 2)
    assert cert.coefficients == [F(4 ** s * math.comb(24, s)) for s in range(25)]
    assert cert.xi_polynomial == LAPLACE_DUAL ** 24
    bools = {k: v for k, v in cert.checks.items() if isinstance(v, bool)}
    assert len(bools) == 5 and all(bools.values()), bools


def test_verdict_witnesses_at_homogeneity_80():
    verdict = nonstandard_verdict(F(75, 2))
    assert verdict.so7_witness == {4: 1, 6: 79}
    assert verdict.g2_witness == {4: 2, 5: 27, 6: 25}
    assert verdict.nonstandard_so7 and verdict.nonstandard_g2


def test_solve_even_certificate_json(ctx):
    cert = solve_even(ctx, 2)
    doc = cert.to_json()
    assert doc["N"] == 2
    assert doc["lambda"] == "-1/2"
    assert doc["coefficients"] == ["1", "8", "16"]
    assert parse_xi_polynomial(doc["xi_polynomial"]) == cert.xi_polynomial
    assert parse_verma(doc["verma_vector"]) == cert.verma_vector
    json.dumps(doc)   # serializable


def test_solve_even_rejects_bad_N(ctx):
    with pytest.raises(ValueError):
        solve_even(ctx, 0)


def test_solve_odd_empty(ctx):
    for N in range(0, 3):
        rep = solve_odd(ctx, N)
        assert rep.empty_for_all_lambda
        assert rep.rational_candidates == []
        assert rep.unresolved == []


def test_verify_so7_singular_accepts_and_rejects(ctx):
    cert = solve_even(ctx, 1)
    assert verify_so7_singular(ctx, cert) is True
    # corrupt one coefficient: no longer annihilated
    from g2fmethod.solver import SingularCertificate
    from g2fmethod.fourier import verma_from_xi

    bad_poly = I1 * 5 + X3 * X3   # 5 instead of 4
    bad = SingularCertificate(
        homogeneity_half=1,
        lam=cert.lam,
        coefficients=[F(1), F(5)],
        xi_polynomial=bad_poly,
        verma_vector=verma_from_xi(bad_poly),
        checks={},
    )
    assert verify_so7_singular(ctx, bad) is False


def test_oracle_equivalence(ctx):
    for N in (1, 2):
        cert = solve_even(ctx, N, verify=False)
        assert oracle_matches_certificate(ctx, cert)


def test_full_nilradical_annihilates(ctx):
    cert = solve_even(ctx, 2, verify=False)
    for ann in pprime_full_annihilators(ctx.emb):
        assert ctx.module.act(ann, cert.verma_vector).evaluate_lambda(cert.lam).is_zero()


def test_oracle_off_parameter_empty(ctx):
    anns = pprime_annihilators(ctx.emb)
    for lam in (F(0), F(1), F(-2), F(1, 3)):
        for d in (1, 2, 3, 4):
            assert ctx.module.singular_search(d, lam, anns) == []


@seed(20250)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.one_of(
    st.just(F(d - 5, 2)), st.integers(-9, 20).map(lambda k: F(k, 2)), st.fractions(-6, 6, max_denominator=9)))))
def test_the_two_routes_agree_on_the_kernel_dimension_at_every_parameter_value(ctx, case):
    """For d <= 8 and lambda among the half-integers and small fractions,
    the chain-rule system at lambda and the PBW search with the p' set have
    kernels of one dimension.  A third of the draws take the special value
    (d - 5)/2 itself, where even degrees have a kernel.  Seed 20250, 200
    examples."""
    d, lam = case
    matrix, _ = _collect_system(ctx, d)
    system = len(kernel_basis(evaluate_matrix(matrix, lam)))
    oracle = len(ctx.module.singular_search(d, lam, pprime_annihilators(ctx.emb)))
    assert system == oracle, f"d={d}, lambda={lam}: chain-rule kernel {system}, PBW kernel {oracle}"


def test_certificate_weight(ctx):
    for N in (1, 2):
        cert = solve_even(ctx, N, verify=False)
        w = ctx.module.weight_of(cert.verma_vector)
        assert w.coords[0](cert.lam) == -cert.lam - 5
        assert w.coords[1].is_zero() and w.coords[2].is_zero()


# -- reflections and the verdicts -----------------------------------------------


def test_symbolic_so7_difference():
    assert symbolic_so7_difference() == eps_weight(
        (2 * LAMBDA + 5, LambdaPoly(), LambdaPoly([-1]))
    )


def test_symbolic_g2_differences():
    levi = symbolic_g2_difference(2)
    assert levi == alpha_weight((4 * LAMBDA + 10, 2 * LAMBDA + 4))
    crossed = symbolic_g2_difference(1)
    assert crossed == alpha_weight((3 * LAMBDA + F(23, 2), 2 * LAMBDA + 5))


def test_verdict_in_regime(ctx):
    for k in range(5):
        lam = F(2 * k - 3, 2)
        v = nonstandard_verdict(lam)
        assert v.in_regime
        assert v.so7_difference.coords == (2 * lam + 5, 0, -1)
        assert v.so7_witness is not None
        assert v.g2_witness is not None
        assert v.nonstandard_so7 and v.nonstandard_g2


def test_verdict_out_of_regime():
    v = nonstandard_verdict(F(-3))
    assert not v.in_regime
    assert not v.nonstandard_so7
    v2 = nonstandard_verdict(F(1))
    assert not v2.in_regime


def test_verdict_records_printed_comparison():
    v = nonstandard_verdict(F(-1, 2))
    # neither reflection reproduces the published rank-2 difference
    assert v.printed_g2_matches == {
        "levi_reflection": False,
        "crossed_reflection": False,
    }
    doc = v.to_json()
    assert doc["lambda"] == "-1/2"
    assert doc["printed_g2_matches"] == v.printed_g2_matches
    assert doc["g2_difference"] == "8*alpha1 + 3*alpha2"
    assert doc["g2_difference_other_reflection"] == "10*alpha1 + 4*alpha2"


def test_solver_scan_pattern(ctx):
    # homogeneity d even: parameter d/2 - 5/2; odd: nothing
    for d in range(1, 9):
        if d % 2 == 0:
            cert = solve_even(ctx, d // 2, verify=False)
            assert cert is not None and cert.lam == F(d, 2) - F(5, 2)
        else:
            assert solve_odd(ctx, (d - 1) // 2).empty_for_all_lambda


# -- the reduced even and odd systems --------------------------------------------


def _full_system(ctx, basis):
    """Every monomial's row of the lowered images, duplicates included."""
    images = [op_apply(ctx.lowering_op, p) for p in basis]
    monomials = sorted({m for img in images for m in img.terms}, key=term_sort_key, reverse=True)
    return [[img.coefficient(m) for img in images] for m in monomials]


def test_invariant_basis_matches_powers():
    for d in range(0, 21):
        assert invariant_monomial_basis(d) == [(I1 ** k) * (X3 ** (d - 2 * k)) for k in range(d // 2 + 1)]


def test_even_system_keeps_2N_rows(ctx):
    for N in range(1, 13):
        matrix, labels = _collect_system(ctx, 2 * N)
        assert len(matrix) == len(labels) == 2 * N
        assert len(_full_system(ctx, invariant_monomial_basis(2 * N))) == N * (N + 1)
        assert all(len(row) == N + 1 for row in matrix)


def test_reduced_system_solves_like_the_full_one(ctx):
    for d in range(1, 41):
        reduced, _ = _collect_system(ctx, d)
        full = _full_system(ctx, invariant_monomial_basis(d))
        a, b = param_solve(reduced), param_solve(full)
        assert a.solutions == b.solutions, d
        assert a.identically_singular == b.identically_singular, d
        assert a.unresolved_factors == b.unresolved_factors, d
        assert a.lambdas == ([F(d - 5, 2)] if d % 2 == 0 else [])


def test_solve_even_homogeneity_80_checks(ctx):
    cert = solve_even(ctx, 40, verify=True)
    assert cert is not None
    assert cert.lam == F(75, 2)
    assert cert.coefficients == [F(4 ** s * math.comb(40, s)) for s in range(41)]
    assert cert.xi_polynomial == LAPLACE_DUAL ** 40
    bools = {k: v for k, v in cert.checks.items() if isinstance(v, bool)}
    assert set(bools) == {"p_prime_singular", "so7_singular", "weight_matches_reflection_law",
                          "nonstandard_so7", "nonstandard_g2"}
    assert all(bools.values()), bools


# -- the chain-rule system against the monomial collection ------------------------


def _reference_collect(ctx, basis):
    """The system as collected from monomials: every image over
    ``LambdaPoly`` through ``op_apply``, one row per monomial, each row
    kept unless it repeats an earlier one up to a rational factor (keyed by
    its entries divided by the leading coefficient of its first entry)."""
    sparse = {}
    for j, p in enumerate(basis):
        for m, c in op_apply(ctx.lowering_op, p).terms.items():
            sparse.setdefault(m, {})[j] = c
    seen = set()
    matrix, monomials = [], []
    for m in sorted(sparse, key=term_sort_key, reverse=True):
        row = sparse[m]
        lead = next(iter(row.values())).leading()
        key = tuple((j, tuple(x / lead for x in c.coeffs)) for j, c in row.items())
        if key in seen:
            continue
        seen.add(key)
        matrix.append([row.get(j, LambdaPoly()) for j in range(len(basis))])
        monomials.append(m)
    return matrix, monomials


def _proportional(u, v):
    """Whether the nonzero rows u and v are rational multiples of each other."""
    j = next(j for j, c in enumerate(u) if c)
    if not v[j]:
        return False
    r = v[j].leading() / u[j].leading()
    return all(b == a * r for a, b in zip(u, v))


def _rows_match_reference(ctx, d):
    """Every chain-rule row is a rational multiple of a row of the monomial
    collection, and every row of the collection one of a chain-rule row."""
    rows, _ = _collect_system(ctx, d)
    reference, _ = _reference_collect(ctx, invariant_monomial_basis(d))
    return (all(any(_proportional(r, s) for s in reference) for r in rows)
            and all(any(_proportional(s, r) for r in rows) for s in reference))


def test_chain_rule_rows_match_the_monomial_collection(ctx):
    for d in range(1, 41):
        assert _rows_match_reference(ctx, d), d


def test_chain_rule_polynomials_pinned(ctx):
    # D(I1) = -x3 x5 + (L+1) x4,  D(x3) = 2 x5,  G(I1,I1) = -I1 x4,
    # G(I1,x3) = -x3 x4 / 2,  G(x3,x3) = x4
    assert ctx.chain_rule == (
        {(4, 0, 0): LAMBDA + 1, (5, 0, 1): LambdaPoly.const(-1)},
        {(5, 0, 0): LambdaPoly.const(2)},
        {(4, 1, 0): LambdaPoly.const(-1)},
        {(4, 0, 1): LambdaPoly.const(F(-1, 2))},
        {(4, 0, 0): LambdaPoly.const(1)},
    )
    assert chain_rule_data(ctx.lowering_op) == ctx.chain_rule


def test_scaled_chain_rule_coefficient_is_caught(ctx, monkeypatch):
    data = ctx.chain_rule
    for n, poly in enumerate(data):
        for key in poly:
            scaled = [dict(p) for p in data]
            scaled[n][key] = poly[key] * 2
            monkeypatch.setattr(ctx, "chain_rule", tuple(scaled))
            assert not all(_rows_match_reference(ctx, d) for d in range(1, 9)), (n, key)
    monkeypatch.undo()
    assert ctx.chain_rule is data


@pytest.mark.parametrize("op, message", [
    (DiffOperator.constant(1), "D(1) = 1 is not zero"),
    (DiffOperator.term((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
     "D(I1) = x1*x4 lies outside x4*Q[L][I1,x3] + x5*Q[L][I1,x3]"),
], ids=["constant", "x1*d1"])
def test_operator_outside_the_invariant_form_is_refused(ctx, op, message):
    stand_in = SolverContext(ctx.emb)
    stand_in.lowering_op = op
    with pytest.raises(ValueError) as exc:
        _collect_system(stand_in, 4)
    assert str(exc.value) == message


# -- perturbed certificates fail the deduplicated checks --------------------------


def test_perturbed_certificates_fail_the_annihilator_checks(ctx):
    import dataclasses

    cert = solve_even(ctx, 6, verify=True)
    assert cert.checks["p_prime_singular"] and cert.checks["so7_singular"]
    terms = dict(cert.verma_vector.terms)
    m = next(iter(terms))
    terms[m] = terms[m] + 1
    variants = [
        dataclasses.replace(cert, verma_vector=VermaVector(terms), checks={}),
        dataclasses.replace(cert, lam=cert.lam + 1, checks={}),
    ]
    for bad in variants:
        run_certificate_checks(ctx, bad)
        assert bad.checks["p_prime_singular"] is False
        assert bad.checks["so7_singular"] is False
        assert verify_so7_singular(ctx, bad) is False
        # each verdict is the one an action with that element alone gives
        elements = (pprime_annihilators(ctx.emb) + pprime_full_annihilators(ctx.emb)
                    + borel_annihilators(ctx.emb))
        assert len(elements) == 13
        assert len({frozenset(x.items()) for x in elements}) == 9
        alone = [ctx.module.act(x, bad.verma_vector, lam=bad.lam).is_zero() for x in elements]
        assert ctx.module.annihilates(elements, bad.verma_vector, bad.lam) == alone
        assert not all(alone)



# -- one object per distinct certificate coefficient ---------------------------


def test_certificate_shares_its_term_dict_and_equal_coefficients(ctx):
    N = 12
    cert = solve_even(ctx, N, verify=False)
    assert cert.verma_vector.terms is cert.xi_polynomial.terms
    terms = cert.xi_polynomial.terms
    for k in range(N + 1):
        for i in range(k + 1):
            m = (i, k - i, 2 * N - 2 * k, i, k - i)
            assert terms[m] is terms[(k - i, i, 2 * N - 2 * k, k - i, i)], m
    by_value = {}
    for c in terms.values():
        assert by_value.setdefault(c.coeffs, c) is c
    # the invariant basis shares its binomial coefficients across all elements
    by_value = {}
    for b in invariant_monomial_basis(2 * N):
        for c in b.terms.values():
            assert by_value.setdefault(c.coeffs, c) is c


def test_frontier_operation_live_peak_at_homogeneity_120(ctx):
    # one frontier operation: a checked certificate, then the benchmark's
    # closed-form power held beside it; 1.33 MB before the coefficients were
    # shared and the power ran on integer layers
    # The warm-up also fills the interpreter's free lists, so tuples reused
    # from them inside the window are not counted.  A full collection empties
    # those lists, and whether one falls inside the window depends on what
    # the tests before this one left alive; so no collection runs from the
    # warm-up to the end of the window.
    N = 60
    gc.disable()
    try:
        solve_even(ctx, N)                  # warm: compiled operator and action tables
        tracemalloc.start()
        cert = solve_even(ctx, N)
        power = LAPLACE_DUAL ** N
        assert cert.xi_polynomial == power
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(cert.checks[k] for k in ("p_prime_singular", "so7_singular"))
    assert peak <= 1.1e6, peak
