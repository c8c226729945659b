"""Command-line front door: parse the parameter, dispatch, emit text/JSON/CSV.

Exit codes: 0 success, 1 usage or invalid argument, 2 inadmissible parameter,
3 precision cap reached, 4 resource budget exceeded, 5 oracle mismatch.  All
JSON numerals are decimal strings, and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .degrees import e_sequence, lambda2, series_identity_check
from .diophantine import (
    badly_approximable_diagnostics,
    cf_expand,
    irregular_indices,
    theta_interval,
)
from .errors import AdmissibilityError, PrecisionError, ResourceExhausted
from .gaussian import GaussianInt, IntMatrix2x2, d_sequence, parse_gaussian
from .oracle import compose, g_map, monomial_map
from .solver import solve_lambda

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_PRECISION = 3
EXIT_RESOURCES = 4
EXIT_MISMATCH = 5


class _Parser(argparse.ArgumentParser):
    """A malformed command line exits 1 with one `error:` line; 2 means an inadmissible zeta."""

    def error(self, message):
        raise SystemExit(f"error: {message}")


def _build_parser():
    parser = _Parser(
        prog="dyndeg",
        description="Degree growth of the plane rational maps built from a "
        "Gaussian-integer monomial map composed with a quadratic involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--zeta", required=True, help="Gaussian integer, e.g. 1+2i")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("degrees", help="inner/composed degree sequences")
    common(p)
    p.add_argument("--count", type=int, default=200)

    p = sub.add_parser("lambda", help="certified enclosure of the dynamical degree")
    common(p)
    p.add_argument("--digits", type=int, default=12)

    p = sub.add_parser("oracle", help="symbolic iterate degrees vs the recursion")
    common(p)
    p.add_argument("--max-iter", type=int, default=3)
    p.add_argument("--fault", choices=("skip-reduce",), default=None, help="test hook")

    p = sub.add_parser("cf", help="continued fraction of the rotation number")
    common(p)
    p.add_argument("--precision-bits", type=int, default=128, help="rotation-number precision")
    p.add_argument("--depth", type=int, default=20)

    p = sub.add_parser("irregular", help="lag-n irregular indices and beta table")
    common(p)
    p.add_argument("--precision-bits", type=int, default=128, help="rotation-number precision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, default=5, help="window end as a multiple of n")

    p = sub.add_parser("report", help="combined JSON report")
    common(p)
    p.add_argument("--precision-bits", type=int, default=128, help="rotation-number precision")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--digits", type=int, default=12)
    p.add_argument("--depth", type=int, default=12)

    return parser


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_zeta(raw: str) -> GaussianInt:
    try:
        return parse_gaussian(raw)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _at_least(value: int, flag: str, low: int) -> int:
    if value < low:
        raise SystemExit(f"error: {flag} must be >= {low}")
    return value


def cmd_degrees(args) -> int:
    zeta = _parse_zeta(args.zeta)
    n = _at_least(args.count, "--count", 0)
    d = d_sequence(zeta, n)
    e = e_sequence(d, n)
    rows = [(j, d[j], str(d.gammas[j - 1]), e[j]) for j in range(1, n + 1)]
    if args.format == "json":
        obj = {
            "zeta": str(zeta),
            "rows": [
                {"j": str(j), "d": str(dj), "gamma": g, "e": str(ej)}
                for (j, dj, g, ej) in rows
            ],
        }
        _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        lines = ["j,d,gamma,e"] + [f"{j},{dj},{g},{ej}" for (j, dj, g, ej) in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"degree data for zeta = {zeta}", f"{'j':>4} {'d_j':>16} {'gamma(j)':>10} {'e_j':>24}"]
        lines += [f"{j:>4} {dj:>16} {g:>10} {ej:>24}" for (j, dj, g, ej) in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_lambda(args) -> int:
    zeta = _parse_zeta(args.zeta)
    _at_least(args.digits, "--digits", 0)
    enclosure = solve_lambda(zeta, Fraction(1, 10**args.digits))
    digits = args.digits + 4
    if args.format == "json":
        _emit(enclosure.to_json_text(digits) + "\n", args.out)
    elif args.format == "csv":
        obj = enclosure.to_json_obj(digits)
        keys = ["zeta", "lambda_lo", "lambda_hi", "width", "N_used", "precision_bits"]
        lines = [",".join(keys), ",".join(obj[k] for k in keys)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        obj = enclosure.to_json_obj(digits)
        lines = [
            f"dynamical degree of the composed map, zeta = {zeta}",
            f"  lambda in [{obj['lambda_lo']}, {obj['lambda_hi']}]",
            f"  width: {obj['width']} (requested <= 1e-{args.digits})",
            f"  series terms used: {enclosure.n_terms}",
            f"  working precision: {enclosure.precision_bits} fractional bits",
            f"  topological degree lambda_2 = {lambda2(zeta)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    zeta = _parse_zeta(args.zeta)
    n_max = _at_least(args.max_iter, "--max-iter", 0)
    d = d_sequence(zeta, n_max)
    e = e_sequence(d, n_max)
    rows = []
    all_match = True
    if n_max > 0:  # f alone may exceed the degree budget
        f = compose(g_map(), monomial_map(IntMatrix2x2.from_zeta(zeta)))
        for n in range(1, n_max + 1):
            if args.fault == "skip-reduce":
                oracle_deg = f.degree**n  # raw composition degree, no reduction
            else:
                iterate = f if n == 1 else compose(f, iterate)
                oracle_deg = iterate.degree
            match = oracle_deg == e[n]
            all_match = all_match and match
            rows.append((n, e[n], oracle_deg, match))
    if args.format == "json":
        obj = {
            "zeta": str(zeta),
            "rows": [
                {"n": str(n), "recursion": str(en), "oracle": str(on), "match": m}
                for (n, en, on, m) in rows
            ],
            "all_match": all_match,
        }
        _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        lines = ["n,recursion,oracle,match"]
        lines += [f"{n},{en},{on},{str(m).lower()}" for (n, en, on, m) in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"iterate degrees for f = g o h, zeta = {zeta}",
                 f"{'n':>3} {'recursion':>16} {'oracle':>16} match"]
        lines += [f"{n:>3} {en:>16} {on:>16} {'yes' if m else 'NO'}" for (n, en, on, m) in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_match else EXIT_MISMATCH


def cmd_cf(args) -> int:
    zeta = _parse_zeta(args.zeta)
    _at_least(args.depth, "--depth", 0)
    ctx = theta_interval(zeta, _at_least(args.precision_bits, "--precision-bits", 8))
    cf = cf_expand(ctx, args.depth)
    diag = badly_approximable_diagnostics(cf) if cf.depth >= 2 else None
    if args.format == "json":
        obj = cf.to_json_obj()
        if diag is not None:
            obj["diagnostics"] = diag.to_json_obj()
        _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        lines = ["i,a,m,n"]
        for i, a in enumerate(cf.coefficients):
            m, n = cf.convergents[i]
            lines.append(f"{i},{a},{m},{n}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        coeffs = ";".join(str(a) for a in cf.coefficients)
        lines = [
            f"rotation number continued fraction, zeta = {zeta}",
            f"  coefficients: [{coeffs}]",
            "  convergents: " + " ".join(f"{m}/{n}" for (m, n) in cf.convergents),
            f"  certified at {cf.precision_bits} bits",
        ]
        if diag is not None:
            lines += [
                f"  max coefficient: {diag.max_coefficient}",
                f"  kappa statistic >= {diag.kappa.lo.decimal_str(12, 'floor')}",
                f"  max denominator ratio: {diag.max_denominator_ratio}",
            ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_irregular(args) -> int:
    zeta = _parse_zeta(args.zeta)
    if args.n < 1 or args.window < 2:
        raise SystemExit("error: need --n >= 1 and --window >= 2")
    ctx = theta_interval(zeta, _at_least(args.precision_bits, "--precision-bits", 8))
    rep = irregular_indices(ctx, args.n, args.window * args.n)
    if args.format == "json":
        _emit(json.dumps(rep.to_json_obj(), sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _emit(rep.beta_csv_text(), args.out)
    else:
        lines = [
            f"lag-{rep.n} irregular indices in ({rep.n}, {rep.window_end}], zeta = {zeta}",
            f"  irregular: {list(rep.irregular)}",
            f"  min excess over n: {rep.min_excess}",
            f"  min pairwise gap: {rep.min_pair_gap}",
            f"  min shifted gap |j-j'-n|: {rep.min_shifted_gap}",
            f"  nonzero beta entries: {len(rep.beta)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    zeta = _parse_zeta(args.zeta)
    count = _at_least(args.count, "--count", 0)
    _at_least(args.digits, "--digits", 0)
    _at_least(args.depth, "--depth", 0)
    bits = _at_least(args.precision_bits, "--precision-bits", 8)
    d = d_sequence(zeta, count)
    e = e_sequence(d, count)
    enclosure = solve_lambda(zeta, Fraction(1, 10**args.digits))
    cf = cf_expand(theta_interval(zeta, bits), args.depth)
    obj = {
        "zeta": str(zeta),
        "lambda": enclosure.to_json_obj(args.digits + 4),
        "lambda_2": str(lambda2(zeta)),
        "degrees": {
            "d": [str(d[j]) for j in range(1, count + 1)],
            "e": [str(e[j]) for j in range(0, count + 1)],
            "series_identity_verified_order": str(series_identity_check(d, e, count)),
        },
        "continued_fraction": cf.to_json_obj(),
    }
    if cf.depth >= 2:
        obj["diagnostics"] = badly_approximable_diagnostics(cf).to_json_obj()
    _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
    return EXIT_OK


_DISPATCH = {
    "degrees": cmd_degrees,
    "lambda": cmd_lambda,
    "oracle": cmd_oracle,
    "cf": cmd_cf,
    "irregular": cmd_irregular,
    "report": cmd_report,
}


def _glue_zeta(argv):
    """Join '--zeta -3+4i' into '--zeta=-3+4i' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--zeta" and i + 1 < len(argv):
            out.append(f"--zeta={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_glue_zeta(list(argv)))
    try:
        return _DISPATCH[args.command](args)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":
    sys.exit(main())
