"""Command-line interface.

Subcommands: minimize (SDP bound + minimizer), oracle (algebraic eigenvalue
method), psatz (infeasibility witness search), handelman (polytope LP
bounds), bench (benchmark plans), sizes (matrix-size and critical-count
tables).  Exit codes: 0 success, 2 input error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import BenchmarkPlan, run_benchmark
from .groebner import (
    CHARPOLY_EXACT_CAP,
    GroebnerBasis,
    MuCapExceededError,
    NoRealCriticalPointsError,
    NotGroebnerError,
    characteristic_polynomial,
    critical_ideal_generators,
    is_groebner,
    minimize_by_eigenvalues,
    multiplication_matrix,
    standard_monomials,
)
from .handelman import (
    HandelmanColumnCapError,
    HandelmanInfeasibleError,
    PolytopeDescription,
    UnboundedPolytopeError,
    handelman_bound,
    handelman_ladder,
)
from .poly import PolyParseError, Polynomial, parse
from .psatz import (
    NotFoundAtDegree,
    SemialgebraicSystem,
    find_witness,
    verify_witness,
)
from .sdp import SdpFailure
from .sos import (
    MINUS_INFINITY,
    OddDegreeError,
    higher_degree_bound,
    minimize,
    size_tables,
    sos_lower_bound,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _read_poly(args) -> Polynomial:
    if getattr(args, "poly", None):
        text = args.poly
    elif getattr(args, "file", None):
        with open(args.file) as fh:
            text = fh.read().strip()
        if text.lstrip().startswith("{"):
            return Polynomial.from_json(text)
    else:
        raise PolyParseError("one of --poly or --file is required", 0)
    n = getattr(args, "n", None)
    return parse(text, n)


def _emit(args, payload: dict, human: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def cmd_minimize(args) -> int:
    f = _read_poly(args)
    t0 = time.perf_counter()
    k = args.higher_degree
    if k and args.extract:
        raise ValueError("--extract is not available with --higher-degree")
    res = higher_degree_bound(f, k) if k else minimize(f) if args.extract else sos_lower_bound(f)
    payload = res.to_json_dict()
    what = "bound"
    if k:
        payload["multiplier_power"] = k
        what = f"bound (multiplier power {k})"
    lines = [f"{what}: {payload['f_sos']}  (status {payload['status']})"]
    if res.extraction is not None and res.extraction.found:
        pt = ", ".join(f"{v:.9g}" for v in res.extraction.point)
        lines.append(f"minimizer: ({pt})  value {res.extraction.upper_bound:.12g}")
    elif args.extract and res.bound != MINUS_INFINITY:
        lines.append("minimizer: not extracted (lower bound only, possibly strict)")
    payload["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_oracle(args) -> int:
    f = _read_poly(args)
    t0 = time.perf_counter()
    if args.charpoly:
        # refuse an oversized exact characteristic polynomial before the
        # oracle runs; generators the oracle refuses are left to it
        fe = f.to_fraction() if not f.is_exact() else f
        gens = critical_ideal_generators(fe)
        if is_groebner(gens):
            G = GroebnerBasis.from_generators(gens)
            B = standard_monomials(G, mu_cap=args.mu_cap)
            if B.mu > CHARPOLY_EXACT_CAP:
                raise MuCapExceededError(
                    f"mu={B.mu} exceeds exact characteristic cap {CHARPOLY_EXACT_CAP}")
    res = minimize_by_eigenvalues(f, mu_cap=args.mu_cap)
    payload = {
        "f_star": res.fstar,
        "mu": res.mu,
        "points": [list(p) for p in res.points],
        "real_eigenvalues": res.eigen.real_values,
        "real_multiplicities": res.eigen.real_multiplicities,
        "tf_nonzeros": res.tf_nnz,
        "timings": {"total_s": round(time.perf_counter() - t0, 6)},
    }
    lines = [f"f* = {res.fstar:.12g}   (mu = {res.mu}, {res.tf_nnz} nonzeros)"]
    for p in res.points:
        lines.append("minimizer: (" + ", ".join(f"{v:.9g}" for v in p) + ")")
    if args.charpoly:
        coeffs = characteristic_polynomial(multiplication_matrix(fe, G, B))
        payload["charpoly"] = [str(c) for c in coeffs]
        lines.append(f"characteristic polynomial degree: {len(coeffs) - 1}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_psatz(args) -> int:
    with open(args.system) as fh:
        sys_ = SemialgebraicSystem.from_json_dict(json.load(fh))
    res = find_witness(sys_, args.degree)
    if isinstance(res, NotFoundAtDegree):
        _emit(args, {"found": False, "degree": args.degree},
              f"no witness at degree {args.degree}")
        return EXIT_OK
    mode = "exact" if args.verify_exact else "float"
    report = verify_witness(sys_, res, exact=args.verify_exact)
    fell_back = False
    if args.verify_exact and not report.ok:
        # rationalizing a floating-point witness rarely cancels the identity
        # exactly; fall back to float verification and flag it
        float_report = verify_witness(sys_, res, exact=False)
        if float_report.ok:
            report, mode, fell_back = float_report, "float", True
    res.verified_exact = bool(mode == "exact" and report.ok)
    payload = res.to_json_dict()
    payload["found"] = True
    payload["verification"] = {
        "mode": mode,
        "ok": report.ok,
        "max_residual": report.max_residual,
        "fell_back_to_float": fell_back,
    }
    note = " (exact verification unavailable, float fallback)" if fell_back else ""
    _emit(args, payload,
          f"witness found at degree {args.degree}; {mode} verification "
          f"{'passed' if report.ok else 'FAILED'} "
          f"(residual {report.max_residual:.3g}){note}")
    return EXIT_OK if report.ok else EXIT_SOLVER


def cmd_handelman(args) -> int:
    f = _read_poly(args)
    with open(args.polytope) as fh:
        P = PolytopeDescription.from_json(fh.read(), n=f.n)
    if args.ladder:
        bounds = handelman_ladder(f, P, args.degree)
        payload = {"ladder": [b.to_json_dict() for b in bounds]}
        text = "\n".join(f"degree {b.D}: {b.value:.12g}" for b in bounds)
    else:
        b = handelman_bound(f, P, args.degree)
        payload = b.to_json_dict()
        text = f"degree {b.D} bound: {b.value:.12g}"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_bench(args) -> int:
    with open(args.plan) as fh:
        plan = BenchmarkPlan.from_json_dict(json.load(fh))
    report = run_benchmark(plan)
    report.write_csv(args.csv)
    report.write_json(args.json_out)
    total = sum(c.instances for c in report.cells)
    agree = sum(c.agreement for c in report.cells)
    print(f"ran {total} instances over {len(report.cells)} cells; "
          f"agreement {agree}, reports: {args.csv}, {args.json_out}")
    return EXIT_OK


def cmd_sizes(args) -> int:
    tables = size_tables(args.max_n, args.max_2d)
    if args.json:
        payload = {
            "matrix_size": {
                f"{two_d}": {str(n): N for n, N, _ in cells}
                for two_d, cells in tables.rows()
            },
            "critical_points": {
                f"{two_d}": {str(n): mu for n, _, mu in cells}
                for two_d, cells in tables.rows()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(tables.format_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polymin",
        description="Global polynomial minimization: SDP bounds, an exact "
                    "algebraic oracle, infeasibility witnesses and polytope bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def poly_opts(p):
        p.add_argument("--poly", help="polynomial text over x1..xn")
        p.add_argument("--file", help="file with polynomial text or JSON")
        p.add_argument("--n", type=int, help="variable count (default: inferred)")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("minimize", help="sum-of-squares bound and minimizer")
    poly_opts(p)
    p.add_argument("--extract", action="store_true", help="extract a minimizer")
    p.add_argument("--higher-degree", type=int, default=0, metavar="K",
                   help="use the positive multiplier of power 2K (bound only: no --extract)")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("oracle", help="algebraic eigenvalue method (exact Groebner check)")
    poly_opts(p)
    p.add_argument("--charpoly", action="store_true",
                   help="also compute the exact characteristic polynomial")
    p.add_argument("--mu-cap", type=int, default=3000)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("psatz", help="infeasibility witness search")
    p.add_argument("--system", required=True, help="JSON system file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--verify-exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_psatz)

    p = sub.add_parser("handelman", help="LP bound over a polytope")
    poly_opts(p)
    p.add_argument("--polytope", required=True, help="JSON list of facet functionals")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ladder", action="store_true", help="all degrees up to --degree")
    p.set_defaults(func=cmd_handelman)

    p = sub.add_parser("bench", help="run a benchmark plan")
    p.add_argument("--plan", required=True, help="JSON plan file")
    p.add_argument("--csv", default="bench_report.csv")
    p.add_argument("--json-out", default="bench_report.json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sizes", help="matrix-size and critical-count tables")
    p.add_argument("--max-n", type=int, default=15)
    p.add_argument("--max-2d", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sizes)
    return ap


INPUT_ERRORS = (PolyParseError, OddDegreeError, UnboundedPolytopeError,
                HandelmanColumnCapError, ValueError, OSError,
                json.JSONDecodeError, KeyError)
SOLVER_ERRORS = (SdpFailure, NotGroebnerError,
                 NoRealCriticalPointsError, HandelmanInfeasibleError)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
