"""Command-line front door: parse the parameter, dispatch, emit text/JSON/CSV.

Exit codes: 0 success, 1 usage or invalid argument, 2 inadmissible parameter,
3 precision cap reached, 4 resource budget exceeded or memory exhausted,
5 oracle mismatch.  All JSON numerals are decimal strings, and identical
invocations produce byte-identical output.

Each policy lives in one place: the parser is built once per process, `main`
parses `--zeta`, reads DYNDEG_PRECISION_CAP and checks the `_BOUNDS` table
before a command runs, `_EXIT_CODES` maps the errors a command raises to
exit codes, and `ORACLE_DEGREE_CAP` bounds the compositions `oracle` takes.
`main` also lifts Python's limit on int <-> str conversion (4300 digits by
default) while a command runs and restores it afterwards, since exact
values such as `e_n` can be longer.  A command takes the parsed
arguments and zeta and returns its output text and exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from .degrees import e_sequence, lambda2, series_identity_check
from .diophantine import (
    badly_approximable_diagnostics,
    cf_expand,
    irregular_indices,
    theta_interval,
)
from .errors import AdmissibilityError, PrecisionError, ResourceExhausted
from .gaussian import IntMatrix2x2, _require_admissible, d_sequence, parse_gaussian
from .oracle import compose, g_map, monomial_map
from .solver import digits_goal, precision_cap, solve_lambda

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_PRECISION = 3
EXIT_RESOURCES = 4
EXIT_MISMATCH = 5

# largest product of degrees `oracle` composes: compose(f, f^n) is refused
# when e_1 * e_n exceeds it (iterate 4 of 1+2i: 10 * 454 = 4540)
ORACLE_DEGREE_CAP = 1000

# (dest, flag, low) of every bounded integer flag, checked in this order
_BOUNDS = (
    ("count", "--count", 0),
    ("max_iter", "--max-iter", 0),
    ("digits", "--digits", 0),
    ("depth", "--depth", 0),
    ("n", "--n", 1),
    ("window", "--window", 2),
    ("precision_bits", "--precision-bits", 8),
)

# error a command raises -> exit code; the message is one `error:` line on stderr
_EXIT_CODES = {
    AdmissibilityError: EXIT_INADMISSIBLE,
    PrecisionError: EXIT_PRECISION,
    ResourceExhausted: EXIT_RESOURCES,
    MemoryError: EXIT_RESOURCES,  # str(MemoryError()) is empty, so it has a message of its own
    OSError: EXIT_USAGE,  # an unwritable --out
}


class _Parser(argparse.ArgumentParser):
    """A malformed command line exits 1 with one `error:` line; 2 means an inadmissible zeta."""

    def error(self, message):
        raise SystemExit(f"error: {message}")


def cmd_degrees(args, zeta):
    n = args.count
    d = d_sequence(zeta, n)
    e = e_sequence(d, n)
    rows = [(j, d[j], str(d.gammas[j - 1]), e[j]) for j in range(1, n + 1)]
    if args.format == "json":
        json_rows = [{"j": str(j), "d": str(dj), "gamma": g, "e": str(ej)} for (j, dj, g, ej) in rows]
        return json.dumps({"zeta": str(zeta), "rows": json_rows}, sort_keys=True) + "\n", EXIT_OK
    if args.format == "csv":
        lines = ["j,d,gamma,e"] + [f"{j},{dj},{g},{ej}" for (j, dj, g, ej) in rows]
    else:
        lines = [f"degree data for zeta = {zeta}", f"{'j':>4} {'d_j':>16} {'gamma(j)':>10} {'e_j':>24}"]
        lines += [f"{j:>4} {dj:>16} {g:>10} {ej:>24}" for (j, dj, g, ej) in rows]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_lambda(args, zeta):
    enclosure = solve_lambda(zeta, digits_goal(zeta, args.digits))
    digits = args.digits + 4
    if args.format == "json":
        return enclosure.to_json_text(digits) + "\n", EXIT_OK
    obj = enclosure.to_json_obj(digits)
    if args.format == "csv":
        keys = ["zeta", "lambda_lo", "lambda_hi", "width", "N_used", "precision_bits"]
        lines = [",".join(keys), ",".join(obj[k] for k in keys)]
    else:
        lines = [
            f"dynamical degree of the composed map, zeta = {zeta}",
            f"  lambda in [{obj['lambda_lo']}, {obj['lambda_hi']}]",
            f"  width: {obj['width']} (requested <= 1e-{args.digits})",
            f"  series terms used: {enclosure.n_terms}",
            f"  working precision: {enclosure.precision_bits} fractional bits",
            f"  topological degree lambda_2 = {lambda2(zeta)}",
        ]
    return "\n".join(lines) + "\n", EXIT_OK


def _capped_compose(outer, inner):
    """compose(outer, inner), refused with ResourceExhausted when the product of the degrees exceeds the cap."""
    degree = outer.degree * inner.degree
    if degree > ORACLE_DEGREE_CAP:
        raise ResourceExhausted(f"degree {degree} exceeds cap {ORACLE_DEGREE_CAP}")
    return compose(outer, inner)


def cmd_oracle(args, zeta):
    n_max = args.max_iter
    _require_admissible(zeta)
    degrees = []
    if n_max > 0:  # f alone may exceed the degree cap
        f = _capped_compose(g_map(), monomial_map(IntMatrix2x2.from_zeta(zeta)))
        for n in range(1, n_max + 1):
            iterate = f if n == 1 else _capped_compose(f, iterate)
            degrees.append(iterate.degree)
    # the recursion only after the cap let every iterate through: at a large
    # --max-iter, e_1..e_N take far longer than the iterates the cap allows
    e = e_sequence(d_sequence(zeta, n_max), n_max)
    rows = [(n, e[n], on, on == e[n]) for n, on in enumerate(degrees, 1)]
    all_match = all(m for (_, _, _, m) in rows)
    if args.format == "json":
        obj = {
            "zeta": str(zeta),
            "rows": [
                {"n": str(n), "recursion": str(en), "oracle": str(on), "match": m}
                for (n, en, on, m) in rows
            ],
            "all_match": all_match,
        }
        text = json.dumps(obj, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["n,recursion,oracle,match"]
        lines += [f"{n},{en},{on},{str(m).lower()}" for (n, en, on, m) in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"iterate degrees for f = g o h, zeta = {zeta}",
                 f"{'n':>3} {'recursion':>16} {'oracle':>16} match"]
        lines += [f"{n:>3} {en:>16} {on:>16} {'yes' if m else 'NO'}" for (n, en, on, m) in rows]
        text = "\n".join(lines) + "\n"
    return text, EXIT_OK if all_match else EXIT_MISMATCH


def cmd_cf(args, zeta):
    cf = cf_expand(theta_interval(zeta, args.precision_bits), args.depth)
    diag = badly_approximable_diagnostics(cf) if cf.depth >= 2 else None
    if args.format == "json":
        obj = cf.to_json_obj()
        if diag is not None:
            obj["diagnostics"] = diag.to_json_obj()
        return json.dumps(obj, sort_keys=True) + "\n", EXIT_OK
    if args.format == "csv":
        lines = ["i,a,m,n"]
        lines += [f"{i},{a},{m},{n}" for i, (a, (m, n)) in enumerate(zip(cf.coefficients, cf.convergents))]
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
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_irregular(args, zeta):
    rep = irregular_indices(zeta, args.n, args.window * args.n)
    if args.format == "json":
        return json.dumps(rep.to_json_obj(), sort_keys=True) + "\n", EXIT_OK
    if args.format == "csv":
        return rep.beta_csv_text(), EXIT_OK
    lines = [
        f"lag-{rep.n} irregular indices in ({rep.n}, {rep.window_end}], zeta = {zeta}",
        f"  irregular: {list(rep.irregular)}",
        f"  min excess over n: {rep.min_excess}",
        f"  min pairwise gap: {rep.min_pair_gap}",
        f"  min shifted gap |j-j'-n|: {rep.min_shifted_gap}",
        f"  nonzero beta entries: {4 * len(rep.irregular)}",
    ]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_report(args, zeta):
    count = args.count
    d = d_sequence(zeta, count)
    e = e_sequence(d, count)
    enclosure = solve_lambda(zeta, digits_goal(zeta, args.digits))
    cf = cf_expand(theta_interval(zeta, args.precision_bits), args.depth)
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
    return json.dumps(obj, sort_keys=True) + "\n", EXIT_OK


def _build_parser():
    parser = _Parser(
        prog="dyndeg",
        description="Degree growth of the plane rational maps built from a "
        "Gaussian-integer monomial map composed with a quadratic involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--zeta", required=True, help="Gaussian integer, e.g. 1+2i")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")
        return p

    def precision_bits(p):
        p.add_argument("--precision-bits", type=int, default=128, help="rotation-number precision")

    p = command("degrees", cmd_degrees, "inner/composed degree sequences")
    p.add_argument("--count", type=int, default=200)

    p = command("lambda", cmd_lambda, "certified enclosure of the dynamical degree")
    p.add_argument("--digits", type=int, default=12)

    p = command("oracle", cmd_oracle, "symbolic iterate degrees vs the recursion")
    p.add_argument("--max-iter", type=int, default=3)

    p = command("cf", cmd_cf, "continued fraction of the rotation number")
    precision_bits(p)
    p.add_argument("--depth", type=int, default=20)

    p = command("irregular", cmd_irregular, "lag-n irregular indices and beta table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, default=5, help="window end as a multiple of n")

    p = command("report", cmd_report, "combined JSON report")
    precision_bits(p)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--digits", type=int, default=12)
    p.add_argument("--depth", type=int, default=12)

    return parser


_PARSER = _build_parser()  # each parse_args call fills a fresh namespace


def _glue_zeta(argv):
    """Join '--zeta -3+4i' into '--zeta=-3+4i' so argparse keeps the value.

    argparse turns a value of '--' into [], so '--zeta --' and '--zeta=--'
    are passed apart and read as a missing value.
    """
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--zeta=--":
            out += ["--zeta", "--"]
        elif argv[i] == "--zeta" and i + 1 < len(argv) and argv[i + 1] != "--":
            out.append(f"--zeta={argv[i + 1]}")
            i += 1
        else:
            out.append(argv[i])
        i += 1
    return out


def main(argv=None) -> int:
    get_limit = getattr(sys, "get_int_max_str_digits", None)  # before CPython 3.10.7: no limit
    if get_limit is None:
        return _main(argv)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = _PARSER.parse_args(_glue_zeta(sys.argv[1:] if argv is None else list(argv)))
    try:
        zeta = parse_gaussian(args.zeta)
        precision_cap()  # a malformed DYNDEG_PRECISION_CAP stops every subcommand
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    for dest, flag, low in _BOUNDS:
        if getattr(args, dest, low) < low:
            raise SystemExit(f"error: {flag} must be >= {low}")
    try:
        text, code = args.run(args, zeta)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
