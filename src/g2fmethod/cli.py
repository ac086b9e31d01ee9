"""Command-line surface: every pipeline stage with deterministic output.

Exit codes: 0 success, 1 no result in this regime (a valid mathematical
answer), 2 internal verification failure, 64 a malformed request.
Rationals cross the boundary as strings 'p/q'; there is no randomness on
any user-facing path.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

from .embedding import (
    EXPECTED_ARROWS,
    Embedding,
    embed_g2,
    inclusion_lattice,
    intersect_parabolic,
    parabolic,
)
from .fourier import GR_WEIGHTS
from .liealg import (
    WeightVec,
    alpha_to_psi,
    build_g2_root_data,
    build_so_odd,
    eps_weight,
    signed_sum,
)
from .operators import op_apply, parse_operator
from .polynomials import XiPolynomial
from .scalars import LambdaPoly, rational_from_string, rational_to_string
from .solver import (
    SolverContext,
    borel_annihilators,
    hilbert_multiplicity,
    hilbert_series_check,
    nonstandard_verdict,
    oracle_matches_certificate,
    pprime_annihilators,
    solve_even,
    solve_odd,
    symbolic_so7_difference,
    verify_so7_singular,
)
EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64     # EX_USAGE: the command line itself is malformed


def _reject(message: str) -> NoReturn:
    """Refuse the request: ``message`` on one stderr line, exit code 64."""
    sys.stderr.write(f"{message}\n")
    raise SystemExit(EXIT_USAGE)


def _require_form(args, *forms: str) -> None:
    """Refuse a ``--format`` outside ``forms`` before any work is done, as
    ``_emit`` would after it."""
    fmt = getattr(args, "format", "text")
    if fmt not in forms:
        _reject(f"no {fmt} form for this command")


def _emit(args, text: Callable[[], str], payload: Optional[Callable[[], dict]] = None,
          latex: Optional[Callable[[], str]] = None, dot: Optional[Callable[[], str]] = None) -> None:
    """Write the one form ``--format`` asks for to stdout or ``--out``.

    Every form is a zero-argument callable, so only the requested one is built.
    """
    fmt = getattr(args, "format", "text")
    render = {"text": text, "json": payload, "latex": latex, "dot": dot}[fmt]
    if render is None:
        _reject(f"no {fmt} form for this command")
    body = render()
    if fmt == "json":
        body = json.dumps(body, indent=2, sort_keys=True)
    body += "\n"
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            _reject(f"cannot write {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# weight strings
# ---------------------------------------------------------------------------

_WEIGHT_NAMES: Dict[str, Tuple[str, Tuple[Fraction, ...]]] = {
    "eps1": ("eps", (Fraction(1), Fraction(0), Fraction(0))),
    "eps2": ("eps", (Fraction(0), Fraction(1), Fraction(0))),
    "eps3": ("eps", (Fraction(0), Fraction(0), Fraction(1))),
    "eta1": ("eps", (Fraction(1), Fraction(-1), Fraction(0))),
    "eta2": ("eps", (Fraction(0), Fraction(1), Fraction(-1))),
    "eta3": ("eps", (Fraction(0), Fraction(0), Fraction(1))),
    "omega1": ("eps", (Fraction(1), Fraction(0), Fraction(0))),
    "omega2": ("eps", (Fraction(1), Fraction(1), Fraction(0))),
    "omega3": ("eps", (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
    "alpha1": ("alpha", (Fraction(1), Fraction(0))),
    "alpha2": ("alpha", (Fraction(0), Fraction(1))),
    "psi1": ("alpha", (Fraction(2), Fraction(1))),
    "psi2": ("alpha", (Fraction(3), Fraction(2))),
}


_WEIGHT_TERM = re.compile(r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>[0-9]+(?:/[0-9]+)?)\s*\*?\s*)?(?P<name>[a-z]+[0-9]+)\s*")


def parse_weight(s: str) -> WeightVec:
    """Parse linear combinations like '2*alpha1 + alpha2' or '1/2*eps1 - eps3'.

    Each term is  [sign] [coef [*]] symbol,  and each term after the first
    carries one sign.  Raises ``ValueError`` on anything else.
    """
    if not s.strip():
        raise ValueError(f"no weight symbols in {s!r}")
    basis = None
    coords: List[Fraction] = []
    pos = 0
    while pos < len(s):
        m = _WEIGHT_TERM.match(s, pos)
        if not m or (pos and not m.group("sign")):
            raise ValueError(f"cannot parse weight {s!r}")
        pos = m.end()
        name = m.group("name")
        if name not in _WEIGHT_NAMES:
            raise ValueError(f"unknown weight symbol {name!r}")
        b, vec = _WEIGHT_NAMES[name]
        if basis is None:
            basis, coords = b, [Fraction(0)] * len(vec)
        elif basis != b:
            raise ValueError("weight mixes the two coordinate families")
        try:
            c = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in weight {s!r}") from None
        if m.group("sign") == "-":
            c = -c
        coords = [x + c * v for x, v in zip(coords, vec)]
    return WeightVec(tuple(coords), basis)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_algebra(args) -> int:
    try:
        table = build_so_odd(args.n)
    except ValueError as exc:
        _reject(str(exc))
    checks_ok = table.antisymmetry_check() and table.eigenvector_check() and table.jacobi_check()
    lines = [
        f"dim {table.dimension}, positive roots {len(table.positive_root_labels)}, "
        f"Jacobi {'OK' if checks_ok else 'FAILED'}",
        f"bracket-table checksum: {table.checksum()}",
    ]
    if args.n == 3:
        datum = build_g2_root_data()
        lines.append(
            f"rank-2 exceptional datum: {datum.root_count} roots, "
            f"highest root {datum.highest()}"
        )
    _emit(args, lambda: "\n".join(lines), payload=table.to_json)
    return EXIT_OK if checks_ok else EXIT_CHECK_FAILED


def cmd_embedding(args) -> int:
    if args.action in ("project", "inject"):
        if args.weight is None:
            _reject(f"embedding {args.action} requires --weight")
        try:
            w = parse_weight(args.weight)
        except ValueError as exc:
            _reject(str(exc))
    if args.action != "lattice":
        _require_form(args, "text", "json")
    if args.action == "project":
        from .embedding import project_weight

        try:
            out = project_weight(w)
        except ValueError as exc:
            _reject(f"embedding project: {exc}")
        psi = signed_sum(alpha_to_psi(out), ("psi1", "psi2"))
        _emit(args, lambda: psi, payload=lambda: {"weight": str(out), "psi": psi})
        return EXIT_OK
    if args.action == "inject":
        from .embedding import inject_weight

        try:
            out = inject_weight(w)
        except ValueError as exc:
            _reject(f"embedding inject: {exc}")
        _emit(args, lambda: str(out), payload=lambda: {"weight": str(out)})
        return EXIT_OK

    try:
        emb = embed_g2()
    except ValueError as exc:
        _emit(args, lambda: f"FAILED: {exc}")
        return EXIT_CHECK_FAILED
    lat = inclusion_lattice(emb)

    if args.action == "lattice":
        _emit(args, lambda: "\n".join(f"{a} -> {b}" for a, b in lat.arrows), payload=lat.to_json,
              dot=lat.to_dot)
        return EXIT_OK

    lattice_ok = lat.arrows == EXPECTED_ARROWS
    intersect_ok = _meets_match_inclusions(emb, lat)
    jac = emb.g2.jacobi_check()
    ok = lattice_ok and intersect_ok and jac
    h1 = ", ".join(f"{v}*{k}" for k, v in sorted(emb.gen("h1").items()))
    h2 = ", ".join(f"{v}*{k}" for k, v in sorted(emb.gen("h2").items()))
    text = (
        f"image dim {emb.g2.dimension}, homomorphism OK, Jacobi "
        f"{'OK' if jac else 'FAILED'}, lattice "
        f"{'matches (20 arrows)' if lattice_ok else 'MISMATCH'}\n"
        f"cartan images: h'1 -> {h1}; h'2 -> {h2}"
    )
    payload = {
        "image_dimension": emb.g2.dimension,
        "homomorphism_ok": True,
        "lattice_matches": lattice_ok,
        "cartan_images": {"h'1": h1, "h'2": h2},
    }
    _emit(args, lambda: text, payload=lambda: payload)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_parabolic(args) -> int:
    try:
        mask = tuple(int(x) for x in args.mask.split(","))
    except ValueError:
        _reject(f"cannot parse mask {args.mask!r}")
    so7 = build_so_odd(3)
    table = so7 if args.algebra == "so7" else embed_g2(so7).g2
    try:
        p = parabolic(table, mask)
    except ValueError as exc:
        _reject(str(exc))
    text = (
        f"levi roots: {', '.join(str(l) for l in p.levi_root_labels)}\n"
        f"nilradical: {', '.join(str(l) for l in p.nilradical_labels)}\n"
        f"opposite:   {', '.join(str(l) for l in p.opposite_labels)}"
    )
    _emit(args, lambda: text, payload=p.to_json)
    return EXIT_OK


def cmd_hilbert(args) -> int:
    L = args.max_degree
    if L < 0:
        _reject("max-degree must be non-negative")
    if args.t is not None and args.t < 0:
        _reject("t must be non-negative")
    if L == 0:
        text = "b(0,0) = 1"
        payload = {
            "max_degree": 0,
            "entries": [{"l": 0, "t": 0, "b": 1}],
            "series_match": True,
            "mismatches": [],
        }
        _emit(args, lambda: text, payload=lambda: payload)
        return EXIT_OK
    report = hilbert_series_check(L)
    if args.t is not None:
        wanted = [(l, t, b) for (l, t, b) in report.entries if t == args.t]
        lines = [f"b({l},{t}) = {b}" for (l, t, b) in wanted]
    else:
        lines = [f"b({l},{t}) = {b}" for (l, t, b) in report.entries]
    lines.append(
        "series vs closed form: " + ("MATCH" if report.all_match else "MISMATCH")
    )
    _emit(args, lambda: "\n".join(lines), payload=report.to_json)
    return EXIT_OK if report.all_match else EXIT_CHECK_FAILED


def cmd_singular(args) -> int:
    if args.show_operator:
        op = SolverContext().lowering_op
        _emit(args, lambda: str(op), payload=lambda: {"operator": str(op)}, latex=op.to_latex)
        return EXIT_OK
    if args.scan:
        if not args.max_degree:
            _reject("--scan requires --max-degree")
        if args.max_degree < 0:
            _reject("max-degree must be positive")
        _require_form(args, "text", "json")
        ctx = SolverContext()
        rows = []
        for d in range(1, args.max_degree + 1):
            if d % 2 == 0:
                cert = solve_even(ctx, d // 2, verify=False)
                lams = [cert.lam] if cert else []
            else:
                rep = solve_odd(ctx, (d - 1) // 2)
                lams = rep.rational_candidates if not rep.empty_for_all_lambda else []
            rows.append((d, lams))
        text = "\n".join(
            f"homogeneity {d}: "
            + (", ".join(rational_to_string(l) for l in lams) if lams else "none")
            for d, lams in rows
        )
        payload = {
            "max_degree": args.max_degree,
            "rows": [
                {"homogeneity": d, "lambdas": [rational_to_string(l) for l in lams]}
                for d, lams in rows
            ],
        }
        _emit(args, lambda: text, payload=lambda: payload)
        return EXIT_OK
    if args.homogeneity is None:
        _reject("one of --homogeneity, --scan, --show-operator is required")
    d = args.homogeneity
    if d < 1:
        _reject("homogeneity must be positive")
    if d % 2 == 1:
        _require_form(args, "text", "json")
        rep = solve_odd(SolverContext(), (d - 1) // 2)
        if rep.empty_for_all_lambda:
            _emit(
                args,
                lambda: f"no singular vector of homogeneity {d} for any parameter value "
                "(odd homogeneity regime)",
                payload=rep.to_json,
            )
            return EXIT_NO_RESULT
        _emit(args, lambda: "unexpected odd-homogeneity solution candidates", payload=rep.to_json)
        return EXIT_CHECK_FAILED
    cert = solve_even(SolverContext(), d // 2)
    if cert is None:
        _emit(args, lambda: f"no singular vector of homogeneity {d}")
        return EXIT_NO_RESULT
    _emit(
        args,
        lambda: f"homogeneity {d}: lambda = {rational_to_string(cert.lam)}\n"
        f"coefficients: {', '.join(rational_to_string(c) for c in cert.coefficients)}\n"
        f"xi polynomial: {cert.xi_polynomial}\n"
        f"module vector: {cert.verma_vector}\n"
        f"checks: {json.dumps(cert.checks, sort_keys=True)}",
        payload=cert.to_json,
        latex=cert.to_latex,
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.degree < 0:
        _reject("degree must be non-negative")
    try:
        lam = rational_from_string(getattr(args, "lambda"))
    except ValueError as exc:
        _reject(str(exc))
    ctx = SolverContext()
    anns = (
        pprime_annihilators(ctx.emb)
        if args.annihilators == "pprime"
        else borel_annihilators(ctx.emb)
    )
    kernel = ctx.module.singular_search(args.degree, lam, anns)
    text_lines = [f"kernel dimension {len(kernel)}"]
    text_lines += [f"  {v}" for v in kernel]
    payload = {
        "degree": args.degree,
        "lambda": rational_to_string(lam),
        "annihilators": args.annihilators,
        "dimension": len(kernel),
        "basis": [str(v) for v in kernel],
    }
    _emit(args, lambda: "\n".join(text_lines), payload=lambda: payload)
    return EXIT_OK if kernel else EXIT_NO_RESULT


# ---------------------------------------------------------------------------
# the verification pipeline
# ---------------------------------------------------------------------------


def _meets_match_inclusions(emb, lat) -> bool:
    """The meet with each so(7) parabolic is the largest included one.

    For every so(7) parabolic p: the meet q has its image inside p, and any
    smaller-family parabolic whose image lies in p is contained in q.
    """
    ok = True
    for name, p in lat.parabolics.items():
        if p.algebra != "so7":
            continue
        q = intersect_parabolic(emb, p)
        qname = q.name
        if (qname, name) not in lat.inclusions:
            ok = False
        for oname, other in lat.parabolics.items():
            if other.algebra != "g2" or oname == qname:
                continue
            if (oname, name) in lat.inclusions and (oname, qname) not in lat.inclusions:
                ok = False
    return ok


def _suite_structure() -> Tuple[bool, str]:
    so7 = build_so_odd(3)
    ok = (
        so7.dimension == 21
        and len(so7.positive_root_labels) == 9
        and so7.antisymmetry_check()
        and so7.eigenvector_check()
        and so7.jacobi_check()
        and build_so_odd(2).dimension == 10
    )
    emb = embed_g2(so7)
    ok = ok and emb.g2.dimension == 14 and emb.g2.jacobi_check()
    return ok, "so(7) dim 21, 9 positive roots, Jacobi OK; image dim 14"


def _suite_lattice(emb: Embedding) -> Tuple[bool, str]:
    lat = inclusion_lattice(emb)
    ok = lat.arrows == EXPECTED_ARROWS and _meets_match_inclusions(emb, lat)
    # the drawn cross arrows realize the meet exactly
    for qname, name in lat.arrows:
        if qname.startswith("p'") and name.startswith("p("):
            p = lat.parabolics[name]
            if intersect_parabolic(emb, p).mask != lat.parabolics[qname].mask:
                ok = False
    return ok, f"{len(lat.arrows)} covering arrows; meets match inclusions"


def _suite_operator(ctx: SolverContext) -> Tuple[bool, str]:
    from .solver import I1, X3

    P = ctx.lowering_op
    expected = parse_operator(
        "-x1*d1^2 - x3*d2 + (L)*d1 + x4*d3^2 + 2*x5*d3 - x5*d1*d5 "
        "+ x4*d2*d5 - x2*d1*d2 - x3*d1*d3"
    )
    ok = P == expected
    ok = ok and op_apply(P, X3) == XiPolynomial.variable(5) * 2
    x4 = XiPolynomial.variable(4)
    x3x5 = X3 * XiPolynomial.variable(5)
    for b1 in range(6):
        for b2 in range(6):
            lhs = op_apply(P, (I1 ** b1) * ((X3 * X3) ** b2))
            rhs = XiPolynomial.zero()
            if b2 >= 1:
                rhs = rhs + (
                    x4 * (2 * b2 * (2 * b2 - 1)) + x3x5 * (4 * b2)
                ) * (I1 ** b1) * ((X3 * X3) ** (b2 - 1))
            if b1 >= 1:
                rhs = rhs + (
                    x4 * (LambdaPoly([2 - b1 - 2 * b2, 1]) * b1) - x3x5 * b1
                ) * (I1 ** (b1 - 1)) * ((X3 * X3) ** b2)
            if lhs != rhs:
                ok = False
    gr_ok = all(
        sum(e * w for e, w in zip(xm, GR_WEIGHTS)) - sum(e * w for e, w in zip(dm, GR_WEIGHTS)) == 1
        for (xm, dm) in P.terms
    )
    return ok and gr_ok, "nine-term operator exact; invariant action law holds; grading +1"


def _suite_hilbert() -> Tuple[bool, str]:
    report = hilbert_series_check(8)
    ok = report.all_match
    for l in range(9):
        if hilbert_multiplicity(l, 0) != 1 + l // 2:
            ok = False
    return ok, "series, weight counts and closed forms agree to degree 8"


def _suite_theorem(ctx: SolverContext) -> Tuple[bool, str]:
    from .solver import I1, X3

    ok = True
    import math

    for N in range(1, 7):
        cert = solve_even(ctx, N, verify=False)
        if cert is None or cert.lam != Fraction(2 * N - 5, 2):
            ok = False
            continue
        if cert.coefficients != [Fraction(4 ** s * math.comb(N, s)) for s in range(N + 1)]:
            ok = False
        if cert.xi_polynomial != (I1 * 4 + X3 * X3) ** N:
            ok = False
    for N in range(0, 5):
        if not solve_odd(ctx, N).empty_for_all_lambda:
            ok = False
    return ok, "even certificates 1..6 exact; odd searches 0..4 empty"


def _suite_oracle(ctx: SolverContext) -> Tuple[bool, str]:
    import random

    ok = True
    for N in (1, 2, 3):
        cert = solve_even(ctx, N, verify=False)
        if not oracle_matches_certificate(ctx, cert):
            ok = False
        if not verify_so7_singular(ctx, cert):
            ok = False
    rng = random.Random(20260809)
    special = {Fraction(2 * N - 5, 2) for N in range(0, 8)}
    tried = set()
    anns = pprime_annihilators(ctx.emb)
    while len(tried) < 10:
        lam = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if lam in special or lam in tried:
            continue
        tried.add(lam)
        for d in range(1, 7):
            if ctx.module.singular_search(d, lam, anns):
                ok = False
    return ok, "module kernels match certificates; 10 off-parameter values empty"


def _suite_weights(ctx: SolverContext) -> Tuple[bool, str]:
    ok = True
    notes = []
    for N in (1, 2, 3):
        cert = solve_even(ctx, N, verify=False)
        w = ctx.module.weight_of(cert.verma_vector)
        if w.coords[0](cert.lam) != -cert.lam - 5:
            ok = False
    sym = symbolic_so7_difference()
    expect = eps_weight((LambdaPoly([5, 2]), LambdaPoly(), LambdaPoly([-1])))
    if sym != expect:
        ok = False
    for k in range(5):
        lam = Fraction(2 * k - 3, 2)
        v = nonstandard_verdict(lam)
        if not (v.in_regime and v.nonstandard_so7 and v.nonstandard_g2):
            ok = False
        if not (v.so7_witness and v.g2_witness):
            ok = False
        if not any(v.printed_g2_matches.values()):
            notes.append("printed rank-2 difference not reproduced")
    note = "; ".join(sorted(set(notes))) if notes else "all reflection data reproduced"
    return ok, f"weights and verdicts exact; {note}"


def _suite_properties(ctx: SolverContext) -> Tuple[bool, str]:
    import random

    from .operators import DiffOperator, op_compose
    from .verma import VermaVector

    rng = random.Random(97)
    so7 = ctx.emb.so7
    labels = so7.labels
    ok = True
    for _ in range(60):
        x = {rng.choice(labels): Fraction(rng.randint(-2, 2))}
        y = {rng.choice(labels): Fraction(rng.randint(-2, 2))}
        m = tuple(rng.randint(0, 1) for _ in range(5))
        v = VermaVector.monomial(m)
        lhs = ctx.module.act(so7.bracket(x, y), v)
        rhs = ctx.module.act(x, ctx.module.act(y, v)) - ctx.module.act(
            y, ctx.module.act(x, v)
        )
        if lhs != rhs:
            ok = False
    # composition agrees with sequential application on random small data
    for _ in range(20):
        def rand_op():
            terms = {}
            for _ in range(2):
                xm = tuple(rng.randint(0, 1) for _ in range(5))
                dm = tuple(rng.randint(0, 1) for _ in range(5))
                terms[(xm, dm)] = LambdaPoly.const(rng.randint(-3, 3))
            return DiffOperator(terms)

        d1, d2 = rand_op(), rand_op()
        m = tuple(rng.randint(0, 2) for _ in range(5))
        p = XiPolynomial.monomial(m)
        if op_apply(op_compose(d1, d2), p) != op_apply(d1, op_apply(d2, p)):
            ok = False
    return ok, "representation and composition properties hold on samples"


def cmd_verify(args) -> int:
    ctx = SolverContext()
    suites = [
        ("structure", lambda: _suite_structure()),
        ("lattice", lambda: _suite_lattice(ctx.emb)),
        ("operator", lambda: _suite_operator(ctx)),
        ("hilbert", lambda: _suite_hilbert()),
        ("theorem", lambda: _suite_theorem(ctx)),
        ("oracle", lambda: _suite_oracle(ctx)),
        ("weights", lambda: _suite_weights(ctx)),
        ("properties", lambda: _suite_properties(ctx)),
    ]
    results = []
    lines = []
    for name, fn in suites:
        t0 = time.time()
        ok, detail = fn()
        dt = time.time() - t0
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<10} {detail} ({dt:.1f}s)")
    all_ok = all(r["passed"] for r in results)
    lines.append("all suites passed" if all_ok else "FAILURES present")
    _emit(args, lambda: "\n".join(lines), payload=lambda: {"suites": results, "all_passed": all_ok})
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, formats=("text", "json")):
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to a file instead of stdout")


# The largest request each size flag admits: the largest allowed request
# finishes within a minute on one core (README, "CLI").
CAPS = {
    "algebra --n": 8,
    "hilbert --max-degree": 40,
    "singular --homogeneity": 600,
    "singular --max-degree": 200,
    "oracle --degree": 40,
}


def _capped(flag: str):
    """An ``int`` argument type rejecting values above the cap of ``flag``."""
    cap = CAPS[flag]

    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"at most {cap} is allowed, got {value}")
        return value

    parse.__name__ = "int"          # argparse names the type in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 64, keeping
    argparse's code 2 from reading as a failed verification."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="g2fmethod",
        description="exact singular-vector engine for the exceptional embedding into so(7)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build so(2n+1) and run structural checks")
    p.add_argument("--n", type=_capped("algebra --n"), default=3, help="rank (defining size 2n+1)")
    _add_common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("embedding", help="the 14-dimensional subalgebra and its lattice")
    p.add_argument("action", choices=["verify", "lattice", "project", "inject"])
    p.add_argument("--weight", help="weight string for project/inject")
    _add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=cmd_embedding)

    p = sub.add_parser("parabolic", help="Levi/nilradical split for a crossed mask")
    p.add_argument("--algebra", choices=["so7", "g2"], default="so7")
    p.add_argument("--mask", required=True, help="comma-separated 0/1 mask")
    _add_common(p)
    p.set_defaults(func=cmd_parabolic)

    p = sub.add_parser("hilbert", help="invariant multiplicity table and series check")
    p.add_argument("--max-degree", type=_capped("hilbert --max-degree"), required=True)
    p.add_argument("--t", type=int, default=None, help="restrict to one highest weight")
    _add_common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("singular", help="singular vector certificates")
    p.add_argument("--homogeneity", type=_capped("singular --homogeneity"), default=None)
    p.add_argument("--scan", action="store_true")
    p.add_argument("--max-degree", type=_capped("singular --max-degree"), default=None)
    p.add_argument("--show-operator", action="store_true")
    _add_common(p, formats=("text", "json", "latex"))
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("oracle", help="module kernel search at a fixed parameter")
    p.add_argument("--degree", type=_capped("oracle --degree"), required=True)
    p.add_argument("--lambda", required=True, help="rational parameter value p/q")
    p.add_argument(
        "--annihilators", choices=["pprime", "borel"], default="pprime"
    )
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the complete verification pipeline")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
