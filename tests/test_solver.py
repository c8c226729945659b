import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, floor

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from dyndeg import solver
from dyndeg.errors import AdmissibilityError, PrecisionError
from dyndeg.gaussian import GaussianInt, d_sequence
from dyndeg.intervals import ComplexInterval, Dyadic, RealInterval, abs_sq
from dyndeg.solver import (
    LambdaEnclosure,
    _series_table,
    alpha_of,
    digits_goal,
    phi_eval,
    precision_cap,
    solve_lambda,
)

Z = GaussianInt
ZETA = Z(1, 2)
W9 = Fraction(1, 10**9)


def contains(iv, x) -> bool:
    return iv.lo.to_fraction() <= x <= iv.hi.to_fraction()


def modulus_sq(alpha):
    """|alpha|^2 over the box alpha, as Fractions (lo, hi)."""
    ends, p = alpha.fixed()
    return tuple(Fraction(e, 1 << 2 * p) for e in abs_sq(ends))


def mp_lambda_oracle(zeta, dps=60, terms=400):
    """Independent floating bisection of the degree series equation at high dps."""
    mpmath.mp.dps = dps
    ds = d_sequence(zeta, terms)

    def f(t):
        return mpmath.fsum(ds[j] * t**j for j in range(1, terms + 1)) - 1

    lo = mpmath.mpf("1e-6")
    hi = (1 - mpmath.mpf("1e-9")) / mpmath.sqrt(zeta.norm_sq())
    for _ in range(dps * 4):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 1 / mid


# SHA-256 of to_json_text(160) for (zeta, width exponent), recorded from the
# Dyadic-object bisection that evaluated every midpoint; the integer kernel
# and the certified brackets must reproduce it bit for bit.
ENCLOSURE_DIGESTS = {
    (Z(1, 2), 10): "bf6632cb31aae7f05452ea71968f7d4d371b22afee08b71c9b38264fe1bf4f8d",
    (Z(1, 2), 50): "36005482264f1f091f38e90559fa948ed633c541ee0d7de37e6fa18e3220ff46",
    (Z(1, 2), 150): "7d70d8525fd8a53ae28bdca9c7c7d8dd584b357573775af63959783414408d0a",
    (Z(-3, 4), 10): "1107ca024997df84bfb820988894f0d83561a77eafa4bd4d2d5ea639bf3f7cf5",
    (Z(-3, 4), 150): "fa74c18fa5b697bc143cf1fd791a872ff5525307e6df6f128f75b700351e8d98",
    (Z(-11, -8), 50): "aaa1122769bd75bf50bda0667473820ed8d0686feaf1d9278b8a32e4871f8422",
    (Z(42, -45), 10): "20c344b61c460a464a776b1a0655e6f2dfc4e051a6f3b30b58c083ee029f4551",
    (Z(42, -45), 150): "c7554567417a07a04a389ee1983d0df705e501fc6aac2d6c13da0164b9b75626",
    # recorded from the solver whose certified brackets could leave a side
    # uncertified at a term count (the BRACKET_CASES below)
    (Z(-42, 13), 150): "ca59eb828c2196665f5eec5dbb3007ea176a03120aa2fd7cb502b867c41baff5",
    (Z(27, 11), 150): "87adcb61632b2657f257dfb27d3f65fde4acf0329f27919a0c9c2677f9b66af1",
    (Z(-45, -5), 150): "d7ea6f49cd2c4f7ff08b60cd963351b300ad9858f21c95f72f5351c48829fc18",
    (Z(17, -37), 150): "0fb641d59ee54115e10d1655d96606b926d12a571d744a0edd5f9cac422f0b3c",
    (Z(1, 2), 1250): "7296edba8afbf14eb3dfaede64e3054e646fb8b35967ef04440abe4f06d7aaea",
    (Z(4, 5), 600): "def4eb1bc89d66de61262faf74177daf5de3d87ff0739e66c3de3db2a38aa096",
}

# Solves in which Newton's root alone left the lo side of a certified bracket
# uncertified at the last term count, so that every later midpoint below the
# root was evaluated: 101 to 129 kernel calls at N = 512 for the four
# 150-digit ones, 817 at N = 4096 for 1+2i at 1250 digits and 334 at N = 2048
# for 4+5i at 600 digits.  The last one also needs the side that certified
# at the first root tried again at the corrected one: kept at the first root,
# its point leaves 19 calls at N = 2048.
BRACKET_CASES = [
    (Z(-42, 13), 150),
    (Z(27, 11), 150),
    (Z(-45, -5), 150),
    (Z(17, -37), 150),
    (Z(1, 2), 1250),
    (Z(4, 5), 600),
]


def _near_powers_of_two(top_bits):
    """Positive ints, half of them 2^k - 1, 2^k or 2^k + 1, where bit-length bounds are tightest."""
    k = st.integers(0, top_bits)
    return st.one_of(
        st.integers(1, 1 << top_bits),
        st.builds(lambda k, d: max(1, (1 << k) + d), k, st.integers(-1, 1)),
    )


@given(_near_powers_of_two(300), _near_powers_of_two(300), st.integers(0, 200), _near_powers_of_two(80), _near_powers_of_two(300))
@example(0, 1, 0, 1, 1)  # a = 0: the right side vanishes
@example((1 << 10) - 1, 1 << 10, 0, 1, 1)
def test_width_test_by_bit_lengths_matches_products(a, b, s, goal_num, goal_den):
    a, b = sorted((a, b))
    if a == b:
        a -= 1
    assert solver._wider_than_goal(a, b, s, goal_num, goal_den) == (
        (2 * goal_den * (b - a)) << s > goal_num * a * b
    )


def test_width_test_by_bit_lengths_exhaustive_small():
    # every small case, where powers of two and all-ones values meet the bit-length bounds exactly
    for b in range(1, 16):
        for a in range(b):
            for goal_num in range(1, 9):
                for goal_den in range(1, 9):
                    for s in range(13):
                        assert solver._wider_than_goal(a, b, s, goal_num, goal_den) == (
                            (2 * goal_den * (b - a)) << s > goal_num * a * b
                        )


class TestSolveLambda:
    @pytest.mark.parametrize(
        "zeta, exponent", list(ENCLOSURE_DIGESTS), ids=[f"{z}-1e-{e}" for z, e in ENCLOSURE_DIGESTS]
    )
    def test_enclosure_bit_identical(self, zeta, exponent):
        enc = solve_lambda(zeta, Fraction(1, 10**exponent))
        digest = hashlib.sha256(enc.to_json_text(160).encode()).hexdigest()
        assert digest == ENCLOSURE_DIGESTS[(zeta, exponent)]

    @pytest.mark.parametrize("zeta, exponent", BRACKET_CASES, ids=[f"{z}-1e-{e}" for z, e in BRACKET_CASES])
    def test_both_bracket_sides_certify_at_every_term_count(self, zeta, exponent, monkeypatch):
        brackets, calls = [], Counter()
        bracket = solver._certified_bracket

        def counted_bracket(sums, m, s, q):
            lo, hi = bracket(sums, m, s, q)
            brackets.append((sums.n_terms, lo, hi))
            return lo, hi

        monkeypatch.setattr(solver, "_certified_bracket", counted_bracket)
        for name in ("lower", "upper"):
            kernel = getattr(solver._PartialSums, name)

            def counted(sums, m, s, kernel=kernel):
                calls[sums.prec, sums.n_terms] += 1
                return kernel(sums, m, s)

            monkeypatch.setattr(solver._PartialSums, name, counted)
        enc = solve_lambda(zeta, Fraction(1, 10**exponent))
        assert all(lo is not None and hi is not None for _, lo, hi in brackets)
        assert enc.n_terms in {n for n, _, _ in brackets}
        # the initial bracket, the tries of each side and the few midpoints
        # between the certified points: 4 to 8 calls per term count here
        assert max(calls.values()) <= 12

    def test_300_digits_contains_findroot(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**300))
        assert enc.width() <= Fraction(1, 10**300)
        terms = 1100  # tail below 5 * 0.33^1101 < 1e-530
        ds = d_sequence(ZETA, terms)
        coeffs = [ds[j] for j in range(terms, 0, -1)] + [0]
        with mpmath.workdps(330):
            t = mpmath.findroot(lambda x: mpmath.polyval(coeffs, x) - 1, mpmath.mpf(1) / 6.8575574)
            lam = 1 / t
            lam_fr = Fraction(int(lam.man)) * Fraction(2) ** int(lam.exp)
        slack = Fraction(1, 10**320)  # findroot works in floating point at 330 digits
        assert enc.lo.to_fraction() - slack <= lam_fr <= enc.hi.to_fraction() + slack

    def test_1000_digits_contains_findroot(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**1000))
        assert enc.width() <= Fraction(1, 10**1000)
        terms = 2200  # tail below 5 * 0.33^2201 < 1e-1059
        ds = d_sequence(ZETA, terms)
        coeffs = [ds[j] for j in range(terms, 0, -1)] + [0]
        with mpmath.workdps(1030):
            t = mpmath.findroot(lambda x: mpmath.polyval(coeffs, x) - 1, mpmath.mpf(1) / 6.8575574)
            lam = 1 / t
            lam_fr = Fraction(int(lam.man)) * Fraction(2) ** int(lam.exp)
        slack = Fraction(1, 10**1020)  # findroot works in floating point at 1030 digits
        assert enc.lo.to_fraction() - slack <= lam_fr <= enc.hi.to_fraction() + slack

    def test_reference_digits_small_topological_degree(self):
        enc = solve_lambda(ZETA, W9)
        assert enc.width() <= W9
        v = Fraction("6.8575574092")
        assert enc.lo.to_fraction() <= v + Fraction(1, 10**10)
        assert enc.hi.to_fraction() >= v

    def test_reference_digits_large_topological_degree(self):
        enc = solve_lambda(Z(-3, 4), W9)
        assert enc.width() <= W9
        v = Fraction("13.4496076817")
        assert enc.lo.to_fraction() <= v + Fraction(1, 10**10)
        assert enc.hi.to_fraction() >= v

    @pytest.mark.parametrize("zeta", [Z(1, 2), Z(-3, 4), Z(2, 1), Z(3, 2), Z(5, -3)])
    def test_against_independent_bisection(self, zeta):
        enc = solve_lambda(zeta, Fraction(1, 10**20))
        oracle = mp_lambda_oracle(zeta)
        oracle_fr = Fraction(mpmath.nstr(oracle, 40, strip_zeros=False))
        slack = Fraction(1, 10**18)  # oracle is floating point, give it room
        assert enc.lo.to_fraction() - slack <= oracle_fr <= enc.hi.to_fraction() + slack

    def test_tight_width(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**30))
        assert enc.width() <= Fraction(1, 10**30)

    def test_nesting_when_width_halves(self):
        wide = solve_lambda(ZETA, Fraction(1, 10**6))
        narrow = solve_lambda(ZETA, Fraction(1, 2 * 10**6))
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi

    def test_above_modulus(self):
        for zeta in (ZETA, Z(3, 2)):
            enc = solve_lambda(zeta, W9)
            assert enc.lo.to_fraction() ** 2 > zeta.norm_sq()

    def test_determinism(self):
        a = solve_lambda(ZETA, W9)
        b = solve_lambda(ZETA, W9)
        assert a.interval == b.interval and a.n_terms == b.n_terms

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            solve_lambda(Z(2, 0), W9)

    def test_root_bracketing_property(self):
        # partial sum + tail stays < 1 left of the interval, > 1 right of it
        enc = solve_lambda(ZETA, Fraction(1, 10**12))
        ds = d_sequence(ZETA, 200)
        t_left = 1 / (enc.hi.to_fraction() + Fraction(1, 10**6))
        t_right = 1 / (enc.lo.to_fraction() - Fraction(1, 10**6))
        tail_const = Fraction(2236068, 10**6)  # > sqrt(5)
        for t, expect_low in ((t_left, True), (t_right, False)):
            partial = sum(ds[j] * t**j for j in range(1, 201))
            x = Fraction(2236068, 10**6) * t  # > |zeta| * t
            tail = tail_const * x**201 / (1 - x)
            if expect_low:
                assert partial + tail < 1
            else:
                assert partial > 1

    def test_json_schema(self):
        enc = solve_lambda(ZETA, W9)
        obj = json.loads(enc.to_json_text())
        assert set(obj) == {"zeta", "lambda_lo", "lambda_hi", "width", "N_used", "precision_bits"}
        assert all(isinstance(v, str) for v in obj.values())
        assert obj["zeta"] == "1+2i"


class TestTailBoundAtItsPrecisionFloor:
    # At 88 bits the tail bound of 10^20 + 7i at an undecided midpoint stays at
    # 5 units of 2^-88 from N = 128 on; doubling N anyway, the solve ran out of
    # memory.  It now takes the next rung of the precision ladder.
    ZETA = "100000000000000000000+7i"
    LIMIT = 3 << 29  # bytes of address space: 1.5 GiB

    def run_limited(self, *argv):
        resource = pytest.importorskip("resource")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT)),
        )

    def test_solve_takes_the_next_rung(self):
        code = (
            "from fractions import Fraction\n"
            "from dyndeg.gaussian import parse_gaussian\n"
            "from dyndeg.solver import solve_lambda\n"
            f"enc = solve_lambda(parse_gaussian({self.ZETA!r}), Fraction(1, 10**12))\n"
            "print(enc.n_terms, enc.precision_bits, enc.lo.to_fraction() <= 2 * 10**20 + 28 <= enc.hi.to_fraction())\n"
        )
        done = self.run_limited("-c", code)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "128 176 True\n"

    @pytest.mark.parametrize("argv", [["lambda"], ["report", "--count", "250"]], ids=["lambda", "report"])
    def test_cli_within_the_limit(self, argv):
        done = self.run_limited("-m", "dyndeg.cli", argv[0], "--zeta", self.ZETA, *argv[1:])
        assert (done.returncode, done.stderr) == (0, "")
        assert "176" in done.stdout


class TestDigitsGoal:
    @pytest.mark.parametrize("cap, digits", [(None, range(19690, 19740)), ("1000", range(270, 300))])
    def test_refuses_exactly_past_the_first_rung(self, monkeypatch, cap, digits):
        # the early refusal matches the ladder's first rung, bit_length(10^D) + 48,
        # digit by digit across the boundary
        if cap is not None:
            monkeypatch.setenv("DYNDEG_PRECISION_CAP", cap)
        limit = precision_cap()
        for d in digits:
            if (10**d).bit_length() + 48 > limit:
                with pytest.raises(PrecisionError, match=f"needed more than {limit} fractional bits"):
                    digits_goal(ZETA, d)
            else:
                assert digits_goal(ZETA, d) == Fraction(1, 10**d)


class TestAlpha:
    def test_modulus_small_topological_degree(self):
        enc = solve_lambda(ZETA, W9)
        alpha = alpha_of(ZETA, enc)
        # |alpha| = sqrt(5)/lambda ~ 0.3260735, squared ~ 0.1063239
        lo, hi = modulus_sq(alpha)
        assert lo < Fraction("0.10632394942864") < hi
        assert hi < 1

    def test_modulus_large_topological_degree(self):
        enc = solve_lambda(Z(-3, 4), W9)
        alpha = alpha_of(Z(-3, 4), enc)
        lo, hi = modulus_sq(alpha)
        # |alpha| = 5/lambda ~ 0.3717581, squared ~ 0.1382041
        assert lo < Fraction("0.13820405188516") < hi

    def test_argument_preserved(self):
        # alpha is a positive real multiple of zeta: im/re ratios match exactly
        enc = solve_lambda(ZETA, Fraction(1, 10**15))
        alpha = alpha_of(ZETA, enc)
        # im/re = 2/1
        ratio_lo = alpha.im.lo.to_fraction() / alpha.re.hi.to_fraction()
        ratio_hi = alpha.im.hi.to_fraction() / alpha.re.lo.to_fraction()
        assert ratio_lo <= 2 <= ratio_hi


class TestPhi:
    def test_real_part_near_one(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**25))
        alpha = alpha_of(ZETA, enc)
        tol = Fraction(1, 10**20)
        box = phi_eval(ZETA, alpha, tol)
        w = box.re.width().to_fraction() + tol
        assert box.re.lo.to_fraction() <= 1 + w
        assert box.re.hi.to_fraction() >= 1 - w
        assert contains(box.re, 1)

    def test_partial_sums_match_degree_series(self):
        # Re of the j-th term equals d_j * lambda^-j; check at N=5 (~0.9969)
        enc = solve_lambda(ZETA, Fraction(1, 10**15))
        ds = d_sequence(ZETA, 5)
        t = 1 / enc.lo.to_fraction()
        partial = sum(ds[j] * t**j for j in range(1, 6))
        assert Fraction("0.99685") < partial < Fraction("0.99695")

    def test_trivial_truncation_bound(self):
        # with a huge tolerance the budget collapses to the full tail bound
        enc = solve_lambda(ZETA, W9)
        alpha = alpha_of(ZETA, enc)
        box = phi_eval(ZETA, alpha, Fraction(1, 4))
        assert contains(box.re, 1)

    def test_tightens_with_tolerance(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**25))
        alpha = alpha_of(ZETA, enc)
        loose = phi_eval(ZETA, alpha, Fraction(1, 10**6))
        tight = phi_eval(ZETA, alpha, Fraction(1, 10**12))
        assert loose.re.width().to_fraction() > tight.re.width().to_fraction()


def reference_series_table(gammas, alpha, prec):
    """The powers and partial sums of _series_table, in exact Fraction interval arithmetic.

    Every part of a product is the min and max of its four corner products;
    each power is then rounded outward to 2^-prec and kept as ints.
    """

    def hull(xs, ys):
        products = [x * y for x in xs for y in ys]
        return min(products), max(products)

    a = [d.to_fraction() for d in (alpha.re.lo, alpha.re.hi, alpha.im.lo, alpha.im.hi)]
    power = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    total = (0, 0, 0, 0)
    powers, sums = [], []
    for g in gammas:
        p, q = hull(power[:2], a[:2]), hull(power[2:], a[2:])
        u, v = hull(power[:2], a[2:]), hull(power[2:], a[:2])
        exact = (p[0] - q[1], p[1] - q[0], u[0] + v[0], u[1] + v[1])
        ints = tuple(ceil(e * 2**prec) if i & 1 else floor(e * 2**prec) for i, e in enumerate(exact))
        power = tuple(Fraction(e, 1 << prec) for e in ints)
        p, q = hull(ints[:2], [g.re]), hull(ints[2:], [g.im])
        u, v = hull(ints[:2], [g.im]), hull(ints[2:], [g.re])
        total = tuple(t + e for t, e in zip(total, (p[0] - q[1], p[1] - q[0], u[0] + v[0], u[1] + v[1])))
        powers.append(ints)
        sums.append(total)
    return powers, sums


# endpoints in (-1, 1) with exponents from -90 to -1, so a box may straddle
# either axis and its endpoints may differ in exponent
unit_dyadics = st.integers(1, 90).flatmap(
    lambda k: st.builds(Dyadic.make, st.integers(-(1 << k) + 1, (1 << k) - 1), st.just(-k))
)
unit_intervals = st.builds(lambda a, b: RealInterval(min(a, b), max(a, b)), unit_dyadics, unit_dyadics)
boxes = st.builds(ComplexInterval, unit_intervals, unit_intervals)
gaussians = st.builds(GaussianInt, st.integers(-3, 3), st.integers(-3, 3))


def _box(re_lo, re_hi, im_lo, im_hi):
    return ComplexInterval(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))


class TestSeriesTable:
    @given(boxes, st.lists(gaussians, min_size=1, max_size=12), st.integers(1, 120))
    @example(  # straddles both axes, prec below alpha's exponent
        _box(Dyadic.make(-3, -70), Dyadic.make(5, -3), Dyadic.make(-1, -2), Dyadic.make(7, -80)),
        [GaussianInt(-2, 0), GaussianInt(1, -2), GaussianInt(0, 2)],
        40,
    )
    @example(  # straddles the real axis, prec above alpha's exponent
        _box(Dyadic.make(-11, -4), Dyadic.make(-5, -3), Dyadic.make(-1, -9), Dyadic.make(1, -7)),
        [GaussianInt(1, 2), GaussianInt(-2, -3)] * 4,
        100,
    )
    def test_matches_interval_arithmetic(self, alpha, gammas, prec):
        assert _series_table(gammas, *alpha.fixed(), prec) == reference_series_table(gammas, alpha, prec)
