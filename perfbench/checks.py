"""Independent references and the per-op checks of the dyndeg benchmark.

Nothing here calls dyndeg.  Degree data is recomputed with plain integers,
and lambda, theta and continued fractions come from mpmath.  A check reads
the raw fields of the program's results (dyadic mantissas and exponents, CLI
stdout), so it adds no calls to the traced layers.  Checks run outside the
timed part of each op.
"""

from __future__ import annotations

import json
import math

import mpmath

import workloads

# maximizer candidates gamma, and their text in the CLI output
GAMMAS = ((-2, 0), (0, 2), (0, -2), (1, 2), (1, -2))
GAMMA_TEXT = {(-2, 0): "-2", (0, 2): "2i", (0, -2): "-2i", (1, 2): "1+2i", (1, -2): "1-2i"}

SURVEY_COUNT = 200  # default --count of the degrees and report subcommands
REPORT_DEPTH = 12  # default --depth of report


def degree_data(zeta, n):
    """Lists d, g with d[j] = max Re(gamma * zeta^j) over GAMMAS and g[j] its maximizer, j = 1..n."""
    re, im = zeta
    d, g = [None], [None]
    wr, wi = 1, 0  # zeta^j
    for _ in range(n):
        wr, wi = wr * re - wi * im, wr * im + wi * re
        values = [(gr * wr - gi * wi, (gr, gi)) for gr, gi in GAMMAS]
        best = max(v for v, _ in values)
        winners = [gam for v, gam in values if v == best]
        if len(winners) != 1:
            raise ValueError(f"maximizer tie at {zeta}^{len(d)}")
        d.append(best)
        g.append(winners[0])
    return d, g


def e_recursion(d, n):
    """e_0 = 1, e_k = d_k + sum_{j<k} e_j d_{k-j}."""
    e = [1]
    for k in range(1, n + 1):
        e.append(d[k] + sum(e[j] * d[k - j] for j in range(k)))
    return e


def lambda_root(zeta, digits):
    """lambda(f) to about `digits` digits: Newton on sum_j d_j t^j = 1, t = 1/lambda.

    A float bisection in x = |zeta| t, on the scaled terms d_j / |zeta|^j,
    starts Newton.  The series is cut where sqrt(5) x^(N+1) / (1 - x) bounds
    its tail (d_j <= sqrt(5) |zeta|^j) below 10^-(digits+10).
    """
    log_r = math.log(math.hypot(*zeta))
    n = 64
    while True:
        d, _ = degree_data(zeta, n)
        scaled = [math.exp(math.log(dj) - j * log_r) for j, dj in enumerate(d[1:], 1)]
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            total = 0.0
            for c in reversed(scaled):
                total = (total + c) * mid
            lo, hi = (lo, mid) if total > 1 else (mid, hi)
        need = math.ceil(((digits + 10) * math.log(10) + math.log(math.sqrt(5) / (1 - hi))) / -math.log(hi))
        if need <= n:
            break
        n = need
    with mpmath.workdps(digits + 20):
        t = mpmath.mpf(hi) / mpmath.sqrt(zeta[0] ** 2 + zeta[1] ** 2)
        for _ in range(100):
            value, slope = _series(d, t)
            step = (value - 1) / slope
            t -= step
            if abs(step) < t * mpmath.mpf(10) ** -(digits + 15):
                return 1 / t
    raise ArithmeticError(f"reference Newton did not converge for {zeta}")


def _series(d, t):
    """(sum d_j t^j, its derivative) by Horner."""
    value, slope = mpmath.mpf(0), mpmath.mpf(0)
    for c in reversed(d[1:]):
        slope = slope * t + value + c
        value = (value + c) * t
    return value, slope


def cf_coefficients(zeta, depth):
    """a_0..a_depth of theta = Arg(zeta)/(2 pi) mod 1, at 400 digits."""
    with mpmath.workdps(400):
        x = mpmath.atan2(zeta[1], zeta[0]) / (2 * mpmath.pi)
        if x < 0:
            x += 1
        coeffs = []
        for _ in range(depth + 1):
            a = int(mpmath.floor(x))
            coeffs.append(a)
            x = 1 / (x - a)
    return coeffs


def convergents(coeffs):
    ms, ns = [1, coeffs[0]], [0, 1]
    for a in coeffs[1:]:
        ms.append(a * ms[-1] + ms[-2])
        ns.append(a * ns[-1] + ns[-2])
    return list(zip(ms[1:], ns[1:]))


def _mpf(dy):
    """Exact mpf of a dyadic endpoint, read from its fields."""
    return mpmath.ldexp(mpmath.mpf(dy.man), dy.exp)


class Checker:
    """Checks op outputs against references computed once per parameter."""

    def __init__(self):
        self._zeta = None
        self._ref = {}

    def check(self, op, out):
        """None if the op's output is right, else a one-line reason."""
        if op.zeta != self._zeta:
            self._zeta, self._ref = op.zeta, {}
        try:
            with mpmath.workprec(2400):
                return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, out)
        except _Failed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:  # includes malformed JSON
            return f"malformed output: {exc!r}"

    def _reference(self, key, compute):
        if key not in self._ref:
            self._ref[key] = compute()
        return self._ref[key]

    def _degrees(self, n):
        return self._reference(("d", n), lambda: degree_data(self._zeta, n))

    def _e(self, n):
        return self._reference(("e", n), lambda: e_recursion(self._degrees(n)[0], n))

    def _cli_json(self, out):
        if out["rc"] != 0:
            raise _Failed(f"exit {out['rc']}: {out['stderr'].strip()}")
        return json.loads(out["stdout"])

    # -- lambda-deep ----------------------------------------------------------

    def _check_lambda_deep(self, op, out):
        lam = self._reference("lambda", lambda: lambda_root(op.zeta, 170))
        enc = out["enclosure"]
        lo, hi = _mpf(enc.interval.lo), _mpf(enc.interval.hi)
        if not lo < lam < hi:
            return f"reference lambda {mpmath.nstr(lam, 20)} outside the enclosure"
        if hi - lo > mpmath.mpf(10) ** -150:
            return "enclosure wider than 1e-150"
        alpha = mpmath.mpc(op.zeta[0], op.zeta[1]) / lam
        if not _near_box(alpha, out["alpha"], mpmath.mpf(10) ** -140):
            return "alpha box misses zeta / lambda"
        phi_n, psi_n = _periodic_reference(alpha, self._degrees)
        if not _near_box(phi_n, out["phi_n"], mpmath.mpf(10) ** -140):
            return "Phi_n box misses the reference value"
        psi = out["psi_n"]
        lo, hi = _mpf(psi.lo), _mpf(psi.hi)
        slack = mpmath.mpf(10) ** -112
        if not (lo - slack <= psi_n <= hi + slack):
            return f"Psi_n box misses the reference value {mpmath.nstr(psi_n, 10)}"
        if not (hi > 0 and lo < 1):
            return "Psi_n box outside (0, 1)"
        return None

    # -- oracle-iterates ------------------------------------------------------

    def _check_oracle(self, op, out):
        n = workloads.ORACLE_ITER
        e = self._e(n)
        obj = self._cli_json(out)
        rows = [(r["n"], r["recursion"], r["oracle"], r["match"]) for r in obj["rows"]]
        want = [(str(k), str(e[k]), str(e[k]), True) for k in range(1, n + 1)]
        if rows != want or obj["all_match"] is not True:
            return f"oracle rows {rows} differ from the recursion {[w[1] for w in want]}"
        if out["line_degree"] != e[n]:
            return f"line degree {out['line_degree']} != e_{n} = {e[n]}"
        return None

    # -- survey ---------------------------------------------------------------

    def _check_degrees(self, op, out):
        n = SURVEY_COUNT
        (d, g), e = self._degrees(n), self._e(n)
        rows = self._cli_json(out)["rows"]
        want = [{"j": str(j), "d": str(d[j]), "gamma": GAMMA_TEXT[g[j]], "e": str(e[j])} for j in range(1, n + 1)]
        return None if rows == want else "degree rows differ from the reference"

    def _lambda_bracket(self, obj):
        lam = self._reference("lambda30", lambda: lambda_root(self._zeta, 30))
        if not mpmath.mpf(obj["lambda_lo"]) < lam < mpmath.mpf(obj["lambda_hi"]):
            return f"reference lambda {mpmath.nstr(lam, 20)} outside [{obj['lambda_lo']}, {obj['lambda_hi']}]"
        return None

    def _check_lambda(self, op, out):
        return self._lambda_bracket(self._cli_json(out))

    def _cf(self, obj, depth):
        coeffs = self._reference("cf", lambda: cf_coefficients(self._zeta, 20))[: depth + 1]
        if obj["coefficients"] != [str(a) for a in coeffs]:
            return f"continued fraction {obj['coefficients']} != reference {coeffs}"
        if obj["convergents"] != [[str(m), str(n)] for m, n in convergents(coeffs)]:
            return "convergents differ from the reference"
        return None

    def _check_cf(self, op, out):
        return self._cf(self._cli_json(out), 20)

    def _check_irregular(self, op, out):
        n, end = 210, 5 * 210
        _, g = self._degrees(end)
        want = [str(j) for j in range(n + 1, end + 1) if g[j] != g[j - n]]
        got = self._cli_json(out)["irregular"]
        return None if got == want else f"irregular indices {got} != reference {want}"

    def _check_report(self, op, out):
        n = SURVEY_COUNT
        d, e = self._degrees(n)[0], self._e(n)
        obj = self._cli_json(out)
        deg = obj["degrees"]
        if deg["d"] != [str(d[j]) for j in range(1, n + 1)] or deg["e"] != [str(v) for v in e]:
            return "report degree data differs from the reference"
        if deg["series_identity_verified_order"] != str(n):
            return "series identity not verified to full order"
        return self._lambda_bracket(obj["lambda"]) or self._cf(obj["continued_fraction"], REPORT_DEPTH)

    def _check_sweep(self, op, out):
        if out["mismatches"]:
            return f"octant route differs from argmax at j = {out['mismatches'][:5]}"
        _, g = self._degrees(workloads.SWEEP_J)
        return None if out["argmax"] == g[1:] else "argmax route differs from the reference maximizers"


class _Failed(Exception):
    pass


def _periodic_reference(alpha, degrees):
    """(Phi_n, Psi_n) at alpha: Phi_n = sum_{j<=n} gamma_j alpha^j / (1 - alpha^n) and
    Psi_n = 2 |1 - alpha^n|^2 Re(Phi - Phi_n), with Phi = sum_j gamma_j alpha^j cut
    where its tail is below 10^-120."""
    n = workloads.PERIOD_N
    terms = n + math.ceil(125 * math.log(10) / -math.log(float(abs(alpha))))
    _, g = degrees(terms)
    phi, power = mpmath.mpc(0), mpmath.mpc(1)
    for j in range(1, terms + 1):
        power *= alpha
        phi += mpmath.mpc(*g[j]) * power
        if j == n:
            alpha_n, phi_n = power, phi / (1 - power)
    return phi_n, 2 * abs(1 - alpha_n) ** 2 * (phi - phi_n).real


def _near_box(value, box, slack):
    """value lies in the complex box widened by slack on every side."""
    return (
        _mpf(box.re.lo) - slack <= value.real <= _mpf(box.re.hi) + slack
        and _mpf(box.im.lo) - slack <= value.imag <= _mpf(box.im.hi) + slack
    )
