"""The four workloads: set-up, the timed operation list, and the answer checks.

Every answer is compared with the paper's closed forms on mathematical
fields (parameter values, coefficients, polynomials, dimensions, check
booleans), never with serialized bytes, so provenance fields added to the
engine's outputs later do not read as failures.

All engine calls go through module attributes (``solver.solve_even``, not a
name bound at import), so the traced run's wrappers see them.

* ``certify``  -- the parametric-solve path on a warm ``SolverContext``:
  verified even certificates N=1..6, the PBW oracle against N=1..3, and the
  odd searches N=0..5 (``scalars``, ``linsolve``, ``operators``, ``solver``).
* ``frontier`` -- an ascending sweep of verified even certificates N=1,2,...
  cut by a deadline from outside the engine: the ROADMAP headline.  Past the
  seed's root blow-up the work is Bareiss over parameter polynomials, system
  collection and certificate checks, which ``certify`` never reaches.
* ``oracle``   -- PBW straightening on a fresh module (cold memo) with
  kernel searches at degrees 1..D, three parameter values per degree, and
  the Borel set on the top degrees: ``verma`` and ``linsolve.kernel_basis``
  with no parametric solve.
* ``build``    -- so(2n+1) for n=2..4 with structure checks, the embedding
  and the inclusion lattice: the ``liealg``/``embedding`` construction layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional

from g2fmethod import embedding, liealg, solver, verma
from g2fmethod.fourier import verma_from_xi

# operation sizes; ``smoke`` is the small mode the benchmark's own tests use
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "certify_even": 6, "certify_oracle": 3, "certify_odd": 5,
        "frontier_prefix": 6, "oracle_degree": 10, "borel_degrees": 2,
        "build_ranks": (2, 3, 4),
    },
    "smoke": {
        "certify_even": 3, "certify_oracle": 2, "certify_odd": 2,
        "frontier_prefix": 2, "oracle_degree": 4, "borel_degrees": 1,
        "build_ranks": (2, 3),
    },
}

# StructureTable.checksum() at the seed, the byte-level regression oracle
EXPECTED_CHECKSUMS: Dict[str, str] = {
    "so5": "c1e470481498e4fd",
    "so7": "65d4936435232e96",
    "so9": "f5116c3a4b3be3d2",
    "g2": "22534bb87aa086bd",
}

# the Boolean entries every verified certificate carries
CERTIFICATE_CHECKS = (
    "p_prime_singular",
    "so7_singular",
    "weight_matches_reflection_law",
    "nonstandard_so7",
    "nonstandard_g2",
)


class WrongAnswer(Exception):
    """An engine answer that disagrees with the closed form."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Op:
    """One checked operation; ``run`` raises ``WrongAnswer`` on a wrong answer.

    ``homogeneity`` is the 2N (or module degree) at which a verified
    singular vector is produced, when the operation produces one.
    """

    name: str
    run: Callable[[], None]
    homogeneity: int = 0


# ---------------------------------------------------------------------------
# closed-form checks
# ---------------------------------------------------------------------------


def check_even_certificate(cert, N: int) -> None:
    require(cert is not None, f"N={N}: no certificate")
    require(cert.lam == Fraction(2 * N - 5, 2), f"N={N}: lambda {cert.lam}")
    expected = [Fraction(4 ** s * math.comb(N, s)) for s in range(N + 1)]
    require(cert.coefficients == expected, f"N={N}: coefficients {cert.coefficients}")
    require(cert.xi_polynomial == solver.LAPLACE_DUAL ** N, f"N={N}: polynomial differs")
    missing = [k for k in CERTIFICATE_CHECKS if k not in cert.checks]
    require(not missing, f"N={N}: checks missing {missing}")
    failed = [k for k, v in cert.checks.items() if isinstance(v, bool) and not v]
    require(not failed, f"N={N}: checks false {failed}")


def check_odd_report(report, N: int) -> None:
    require(report.empty_for_all_lambda, f"odd N={N}: not empty")
    require(not report.rational_candidates, f"odd N={N}: candidates {report.rational_candidates}")
    require(not report.unresolved, f"odd N={N}: unresolved {report.unresolved}")


def check_kernel(kernel, degree: int, special: bool) -> None:
    """Dimension 1 and proportional to LAPLACE_DUAL^(d/2) at the special
    value of an even degree; dimension 0 everywhere else."""
    if not (special and degree % 2 == 0):
        require(len(kernel) == 0, f"d={degree}: kernel dimension {len(kernel)}, expected 0")
        return
    require(len(kernel) == 1, f"d={degree}: kernel dimension {len(kernel)}, expected 1")
    target = verma_from_xi(solver.LAPLACE_DUAL ** (degree // 2))
    found = kernel[0]
    require(set(found.terms) == set(target.terms), f"d={degree}: support differs")
    ratios = {target.terms[m].constant_value() / c.constant_value() for m, c in found.terms.items()}
    require(len(ratios) == 1, f"d={degree}: vector not proportional")


def off_parameter_values(rng: random.Random, count: int) -> List[Fraction]:
    """Distinct values with exact denominator 3 or 4, so never (2N-5)/2."""
    out: List[Fraction] = []
    while len(out) < count:
        q = rng.choice((3, 4))
        p = rng.randint(-6 * q, 6 * q)
        lam = Fraction(p, q)
        if lam.denominator == q and lam not in out:
            out.append(lam)
    return out


# ---------------------------------------------------------------------------
# workloads: set-up returns state, ops(state) yields checked operations
# ---------------------------------------------------------------------------


def setup_solver() -> solver.SolverContext:
    ctx = solver.SolverContext()
    ctx.lowering_op
    ctx.sl2_ops
    return ctx


def even_op(ctx, N: int, certs: Optional[Dict[int, object]] = None) -> Op:
    def run() -> None:
        cert = solver.solve_even(ctx, N, verify=True)
        check_even_certificate(cert, N)
        if certs is not None:
            certs[N] = cert

    return Op(f"even N={N}", run, homogeneity=2 * N)


def certify_ops(ctx, size, rng) -> Iterator[Op]:
    certs: Dict[int, object] = {}
    for N in range(1, size["certify_even"] + 1):
        yield even_op(ctx, N, certs)
    for N in range(1, size["certify_oracle"] + 1):
        def run(N=N) -> None:
            require(N in certs, f"oracle N={N}: no certificate to compare")
            require(solver.oracle_matches_certificate(ctx, certs[N]), f"oracle N={N}: mismatch")
        yield Op(f"oracle N={N}", run)
    for N in range(0, size["certify_odd"] + 1):
        def run(N=N) -> None:
            check_odd_report(solver.solve_odd(ctx, N), N)
        yield Op(f"odd N={N}", run)


def frontier_ops(ctx, size, rng) -> Iterator[Op]:
    N = 1
    while True:
        yield even_op(ctx, N)
        N += 1


def setup_oracle():
    so7 = liealg.build_so_odd(3)
    emb = embedding.embed_g2(so7)
    return verma.VermaModule(so7), emb


def oracle_ops(state, size, rng) -> Iterator[Op]:
    module, emb = state
    pprime = solver.pprime_annihilators(emb)
    borel = solver.borel_annihilators(emb)
    top = size["oracle_degree"]
    for d in range(1, top + 1):
        special = Fraction(d - 5, 2)
        for lam in [special] + off_parameter_values(rng, 2):
            def run(d=d, lam=lam) -> None:
                check_kernel(module.singular_search(d, lam, pprime), d, lam == special)
            yield Op(f"p' d={d} lambda={lam}", run,
                     homogeneity=d if lam == special and d % 2 == 0 else 0)
    for d in range(top - size["borel_degrees"] + 1, top + 1):
        def run(d=d) -> None:
            check_kernel(module.singular_search(d, Fraction(d - 5, 2), borel), d, True)
        yield Op(f"borel d={d}", run, homogeneity=d if d % 2 == 0 else 0)


def build_ops(state, size, rng) -> Iterator[Op]:
    tables: Dict[int, object] = {}
    for n in size["build_ranks"]:
        def run(n=n) -> None:
            table = liealg.build_so_odd(n)
            require(table.dimension == n * (2 * n + 1), f"so({2 * n + 1}): dimension {table.dimension}")
            require(table.antisymmetry_check(), f"so({2 * n + 1}): antisymmetry")
            require(table.eigenvector_check(), f"so({2 * n + 1}): eigenvectors")
            require(table.jacobi_check(), f"so({2 * n + 1}): Jacobi")
            require(table.checksum() == EXPECTED_CHECKSUMS[table.name], f"{table.name}: checksum")
            tables[n] = table
        yield Op(f"build so({2 * n + 1})", run)

    emb_box: List[object] = []

    def run_embed() -> None:
        require(3 in tables, "embedding: no so(7) table")
        emb = embedding.embed_g2(tables[3])
        require(emb.g2.dimension == 14, f"embedding: dimension {emb.g2.dimension}")
        require(emb.g2.jacobi_check(), "embedding: Jacobi")
        require(emb.g2.checksum() == EXPECTED_CHECKSUMS["g2"], "embedding: checksum")
        emb_box.append(emb)

    yield Op("embed", run_embed)

    def run_lattice() -> None:
        require(bool(emb_box), "lattice: no embedding")
        lat = embedding.inclusion_lattice(emb_box[0])
        require(lat.arrows == embedding.EXPECTED_ARROWS, "lattice: arrows differ")

    yield Op("lattice", run_lattice)

    def run_module() -> None:
        # the freshly built tables carry the smallest singular vector
        require(bool(emb_box), "module: no embedding")
        emb = emb_box[0]
        module = verma.VermaModule(emb.so7)
        check_kernel(module.singular_search(2, Fraction(-3, 2), solver.pprime_annihilators(emb)), 2, True)

    yield Op("module d=2", run_module, homogeneity=2)


@dataclass
class Workload:
    setup: Callable[[], object]
    ops: Callable[[object, dict, random.Random], Iterator[Op]]
    module_of: Callable[[object], object]
    budgeted: bool = False      # the op list is cut by the deadline


REGISTRY: Dict[str, Workload] = {
    "certify": Workload(setup_solver, certify_ops, lambda ctx: ctx.module),
    "frontier": Workload(setup_solver, frontier_ops, lambda ctx: ctx.module, budgeted=True),
    "oracle": Workload(setup_oracle, oracle_ops, lambda state: state[0]),
    "build": Workload(lambda: None, build_ops, lambda state: None),
}

