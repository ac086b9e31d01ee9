"""Command-line surface: every pipeline stage with deterministic output.

Exit codes: 0 success, 1 no result in this regime (a valid mathematical
answer), 2 internal verification failure, 64 a malformed request.
Rationals cross the boundary as strings 'p/q'; there is no randomness on
any user-facing path.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

from .embedding import (
    EXPECTED_ARROWS,
    embed_g2,
    inclusion_lattice,
    meets_match_inclusions,
    parabolic,
)
from .liealg import (
    WeightVec,
    alpha_to_psi,
    build_g2_root_data,
    build_so_odd,
    signed_sum,
)
from .scalars import rational_from_string, rational_to_string
from .solver import (
    SolverContext,
    borel_annihilators,
    hilbert_series_check,
    pprime_annihilators,
    solve_even,
    solve_odd,
)
from .suites import SUITES

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
    checks = (("antisymmetry", table.antisymmetry_check), ("eigenvector", table.eigenvector_check),
              ("Jacobi", table.jacobi_check))
    failed = next((name for name, check in checks if not check()), None)
    lines = [
        f"dim {table.dimension}, positive roots {len(table.positive_root_labels)}, "
        f"{'Jacobi OK' if failed is None else failed + ' FAILED'}",
        f"bracket-table checksum: {table.checksum()}",
    ]
    if args.n == 3:
        datum = build_g2_root_data()
        lines.append(
            f"rank-2 exceptional datum: {datum.root_count} roots, "
            f"highest root {datum.highest()}"
        )
    _emit(args, lambda: "\n".join(lines), payload=table.to_json)
    return EXIT_OK if failed is None else EXIT_CHECK_FAILED


def cmd_embedding(args) -> int:
    if args.action in ("project", "inject"):
        if args.weight is None:
            _reject(f"embedding {args.action} requires --weight")
        try:
            w = parse_weight(args.weight)
        except ValueError as exc:
            _reject(str(exc))
    elif args.weight is not None:
        _reject(f"embedding {args.action} takes no --weight")
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
    intersect_ok = meets_match_inclusions(emb, lat)
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
        "jacobi_ok": jac,
        "lattice_matches": lattice_ok,
        "intersections_match": intersect_ok,
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
    # the three modes exclude each other in the parser
    if not (args.show_operator or args.scan or args.homogeneity is not None):
        _reject("one of --homogeneity, --scan, --show-operator is required")
    if args.max_degree is not None and not args.scan:
        _reject("--max-degree is only for --scan")
    if args.show_operator:
        op = SolverContext().lowering_op
        _emit(args, lambda: str(op), payload=lambda: {"operator": str(op)}, latex=op.to_latex)
        return EXIT_OK
    if args.scan:
        if args.max_degree is None:
            _reject("--scan requires --max-degree")
        if args.max_degree < 1:
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


def cmd_verify(args) -> int:
    """Run every suite on one context; a suite that raises is a FAIL line
    naming the failed check, and the remaining suites still run."""
    ctx = SolverContext()
    results = []
    lines = []
    for name, suite in SUITES:
        t0 = time.time()
        try:
            ok, detail = True, suite(ctx)
        except Exception as exc:
            ok = False
            detail = str(exc) if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
        dt = time.time() - t0
        results.append({"name": name, "passed": ok, "detail": detail})
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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--homogeneity", type=_capped("singular --homogeneity"), default=None)
    mode.add_argument("--scan", action="store_true")
    mode.add_argument("--show-operator", action="store_true")
    p.add_argument("--max-degree", type=_capped("singular --max-degree"), default=None)
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


def _check_out(out: str) -> None:
    """Refuse an ``--out`` target that cannot be opened for writing, before
    any work and without creating or truncating it.  ``_emit`` still reports
    what only the write itself can show."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    _reject(f"cannot write {out}: {os.strerror(code)}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None):
        _check_out(args.out)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
