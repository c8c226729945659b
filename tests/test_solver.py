import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, floor, isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dyndeg import solver
from dyndeg.errors import AdmissibilityError, PrecisionError
from dyndeg.gaussian import DegreeCache, GaussianInt, d_sequence, is_admissible
from dyndeg.intervals import ComplexInterval, Dyadic, RealInterval, abs_sq, box_product, gaussian_product
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

# Solves whose Newton ladders are compared across term doublings
RESTART_CASES = [(Z(1, 2), 150), (Z(-42, 13), 150), (Z(1, 2), 1250)]


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

    @pytest.mark.parametrize(
        "zeta", [z for z, e in ENCLOSURE_DIGESTS if e == 150], ids=[str(z) for z, e in ENCLOSURE_DIGESTS if e == 150]
    )
    def test_enclosure_does_not_depend_on_newton(self, zeta, monkeypatch):
        # Newton only places the points that the kernels certify: a step that
        # overshoots by 2^20 units at the top rung moves them, not the enclosure
        tops, brackets, overshoots = set(), [], []
        step, bracket = solver._newton_step, solver._certified_bracket

        def overshooting_step(ds, r, p):
            correction, slope = step(ds, r, p)
            if p in tops:
                overshoots.append(p)
                correction += 1 << 20
            return correction, slope

        def recorded_bracket(sums, m, s, q):
            tops.add(q)
            lo, hi = bracket(sums, m, s, q)
            brackets.append((lo, hi))
            return lo, hi

        monkeypatch.setattr(solver, "_newton_step", overshooting_step)
        monkeypatch.setattr(solver, "_certified_bracket", recorded_bracket)
        enc = solve_lambda(zeta, Fraction(1, 10**150))
        assert hashlib.sha256(enc.to_json_text(160).encode()).hexdigest() == ENCLOSURE_DIGESTS[(zeta, 150)]
        assert len(overshoots) >= len(brackets) > 0
        assert all(lo is not None and hi is not None for lo, hi in brackets)

    @pytest.mark.parametrize(
        "zeta, exponent", RESTART_CASES, ids=[f"{z}-1e-{e}" for z, e in RESTART_CASES]
    )
    def test_newton_restarts_from_the_last_root(self, zeta, exponent, monkeypatch):
        # after a term doubling the ladder starts above the last count's
        # lowest rung, and at the last count it is the one step at q
        rungs = []
        step, bracket = solver._newton_step, solver._certified_bracket

        def recorded_step(ds, r, p):
            rungs[-1][1].append(p)
            return step(ds, r, p)

        def recorded_bracket(sums, m, s, q):
            rungs.append((q, []))
            return bracket(sums, m, s, q)

        monkeypatch.setattr(solver, "_newton_step", recorded_step)
        monkeypatch.setattr(solver, "_certified_bracket", recorded_bracket)
        solve_lambda(zeta, Fraction(1, 10**exponent))
        lowest = [min(ps) for _, ps in rungs]
        assert len(rungs) >= 4
        assert all(a < b for a, b in zip(lowest[1:], lowest[2:]))
        assert rungs[-1][1] == [rungs[-1][0]]

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


def exact_newton_correction(ds, r, p):
    """(S(t) - 1) / S'(t) over 2^p as a Fraction, and whether S(t) <= 2, at t = r 2^-p.

    ds is d_N first, as the solver keeps it.  With T = 2^p, P = S(t) T^N and
    Q = S'(t) T^(N-1) are integers, and the correction over 2^p is (P - T^N) / Q.
    """
    n = len(ds)
    value = slope = 0
    for i, d in enumerate(ds):  # d = d_j, j = n - i
        value = value * r + (d << (p * i))
        slope = slope * r + ((n - i) * d << (p * i))
    value *= r
    return Fraction(value - (1 << (p * n)), slope), value <= 2 << (p * n)


def partial_sum_root(ds, p):
    """The root of sum_j d_j t^j = 1, rounded to 2^-p, by Newton in mpmath at p + 32 bits."""
    coeffs = list(ds) + [-1]  # polyval takes the leading coefficient first
    with mpmath.workprec(p + 32):
        t = mpmath.mpf(1) / ds[-1]  # d_1 t >= 1 there, so the root lies below
        for _ in range(400):
            value, slope = mpmath.polyval(coeffs, t, derivative=True)
            t -= value / slope
            if abs(value) < mpmath.ldexp(1, -p - 16):
                break
        return int(mpmath.nint(mpmath.ldexp(t, p)))


admissible_zetas = st.one_of(
    st.builds(GaussianInt, st.integers(-50, 50), st.integers(-50, 50)).filter(is_admissible),
    st.just(GaussianInt(10**20, 7)),  # bit lengths of d_j grow by 66 or 67 a term, near the lowest rungs
)


@settings(max_examples=60, deadline=None)
@given(admissible_zetas, st.integers(1, 512), st.integers(64, 1200), st.integers(0, 1210), st.integers(-(1 << 16), 1 << 16))
@example(GaussianInt(-42, 13), 512, 579, 579, 3)
@example(GaussianInt(1, 2), 32, 73, 20, 1 << 16)
@example(GaussianInt(10**20, 7), 8, 64, 64, -5)
def test_rung_sized_newton_step_matches_exact_correction(zeta, n_terms, p, distance_bits, numerator):
    # r lies numerator * 2^-(distance_bits + 16) from the partial sum's root
    ds = DegreeCache(zeta).extend_to(n_terms).values[::-1]
    r = partial_sum_root(ds, p) + ((numerator << p) >> (distance_bits + 16))
    assume(r > 0)
    exact, near = exact_newton_correction(ds, r, p)
    assume(near)
    step, slope = solver._newton_step(ds, r, p)
    assert abs(step - exact) < 4


def exact_partial_sum(ds, m, s):
    """S_N(t) 2^(s N) as an int at t = m 2^-s, ds d_N first: sum_j d_j m^j 2^(s (N - j))."""
    value = 0
    for i, d in enumerate(ds):  # d = d_j, j = N - i
        value = value * m + (d << (s * i))
    return value * m


@settings(max_examples=60, deadline=None)
@given(
    admissible_zetas,
    st.integers(1, 200),
    st.integers(64, 700),
    st.integers(0, 800),
    st.integers(1, (1 << 16) - 1),
)
@example(GaussianInt(10**20, 7), 8, 69, 0, 52429)  # |zeta| just below 2^(prec - 2), t near 1 / |zeta|
@example(GaussianInt(1, 2), 4, 64, 0, 40000)  # every d_j narrower than its grid
@example(GaussianInt(3, 2), 1, 100, 50, 60000)  # N = 1
def test_directed_partial_sums_bracket_the_exact_sum(zeta, n_terms, prec, extra, fraction):
    # t = m 2^-s, at least 2^-s and at most 5 / (4 |zeta|), with s >= prec and
    # |zeta| < 2^(prec - 2) as at every point the solve evaluates
    assume(zeta.norm_sq() < 1 << 2 * (prec - 2))
    s, n = prec + extra, n_terms
    m = max(1, (fraction * ((5 << s) // (4 * isqrt(zeta.norm_sq())))) >> 16)
    sums = solver._PartialSums(DegreeCache(zeta), prec)
    sums.resize(n)
    lower = sums.lower(m, s)
    ceiled = -solver._horner_floor(sums.ceils, m, s)
    exact = exact_partial_sum(sums.ds, m, s)  # S_N(t) over 2^(s N)
    assert lower << (s * n) <= exact << prec <= ceiled << (s * n)
    # ceiled - lower < 2 + 8 S_N(t) 2^-_GUARD units of 2^-prec, as _PartialSums states
    assert (ceiled - lower - 2) << (s * n + solver._GUARD) < 8 * exact
    # the tail is at least sqrt(5) x^(N+1) / (1 - x), x = |zeta| t rounded up onto 2^-prec
    x = -((-sums.abs_hi * m) >> s)
    upper = sums.upper(m, s)
    if upper is None:
        assert x >= 1 << prec
        return
    tail = sums.tail
    assert upper - tail == ceiled
    assert (tail * ((1 << prec) - x) << (prec * n)) ** 2 >= 5 * x ** (2 * n + 2)


@pytest.mark.parametrize("zeta", [Z(1, 2), Z(517, -263), Z(10**20, 7)], ids=str)
@pytest.mark.parametrize("prec", [64, 547])
def test_resize_extends_the_table_as_a_fresh_build(zeta, prec):
    grown = solver._PartialSums(DegreeCache(zeta), prec)
    n_terms = 32
    while n_terms <= 1024:
        grown.resize(n_terms)
        fresh = solver._PartialSums(DegreeCache(zeta), prec)
        fresh.resize(n_terms)
        assert (grown.floors, grown.ceils, grown.ds) == (fresh.floors, fresh.ceils, fresh.ds)
        n_terms *= 2
    # entry j is d_j floored (and ceiled, negated) onto 2^g_j, g_j = bits(d_j) - prec - _GUARD,
    # with the step g_(j-1) - g_j from g_0 = -prec
    previous = -prec
    for d, (lo, step), (neg_hi, step_hi) in zip(grown.ds[::-1], grown.floors, grown.ceils):
        g = d.bit_length() - prec - solver._GUARD
        assert step == step_hi == previous - g
        q, r = divmod(d << max(0, -g), 1 << max(0, g))
        assert (lo, -neg_hi) == (q, q + (r > 0))
        previous = g


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

    # From |zeta| = 2^(prec - 2) up, the first rung's t_hi = b 2^-prec keeps
    # under 2 bits (at 2^88 and up, at 12 digits, it is 0, and doubling N at
    # t = 0 ran out of memory); the solve takes the next rung instead.
    @pytest.mark.parametrize("k, digits", [(100, 12), (200, 40)], ids=["2^100+1+i-1e-12", "2^200+1+i-1e-40"])
    def test_huge_zeta_within_the_limit(self, k, digits):
        code = (
            "from fractions import Fraction\n"
            "from dyndeg.gaussian import GaussianInt\n"
            "from dyndeg.solver import solve_lambda\n"
            f"goal = Fraction(1, 10**{digits})\n"
            f"enc = solve_lambda(GaussianInt(2**{k} + 1, 1), goal)\n"
            "print(enc.n_terms, enc.lo.to_fraction(), enc.hi.to_fraction(), enc.width() <= goal)\n"
        )
        done = self.run_limited("-c", code)
        assert (done.returncode, done.stderr) == (0, "")
        n_terms, lo, hi, within = done.stdout.split()
        assert within == "True"
        assert_brackets_the_root(Z(2**k + 1, 1), Fraction(lo), Fraction(hi), int(n_terms))

    def test_huge_zeta_cli_within_the_limit(self):
        done = self.run_limited("-m", "dyndeg.cli", "lambda", "--zeta", "1267650600228229401496703205377+i", "--format", "json")
        assert (done.returncode, done.stderr) == (0, "")
        obj = json.loads(done.stdout)
        # the printed decimals round outward, so they bracket the root too
        assert_brackets_the_root(Z(2**100 + 1, 1), Fraction(obj["lambda_lo"]), Fraction(obj["lambda_hi"]), int(obj["N_used"]))

    @pytest.mark.parametrize("k", [120, 150])
    def test_newton_steps_at_huge_zeta(self, k, monkeypatch):
        # Newton's lowest rung keeps 48 bits of its start point; at 64 bits
        # the start was 0 or a few bits, and Newton ran to its step cap
        steps = []
        step = solver._newton_step

        def counted(ds, r, p):
            steps.append(p)
            return step(ds, r, p)

        monkeypatch.setattr(solver, "_newton_step", counted)
        solve_lambda(Z(2**k + 1, 1), Fraction(1, 10**40))
        assert len(steps) <= 100


def assert_brackets_the_root(zeta, lo, hi, n_terms):
    """Check with n_terms terms, rounding outward on a 2^-4096 grid, that 1/lambda lies in [1/hi, 1/lo].

    At t = 1/lo a lower bound of the partial sum exceeds 1; at t = 1/hi an
    upper bound of it plus sqrt(5) x^(N+1) / (1 - x), x = |zeta| t, stays
    below 1.  The series is increasing in t, so its root lies between.
    """
    k = 4096
    one = 1 << k
    ds = DegreeCache(zeta).extend_to(n_terms).values[::-1]  # d_N first
    m = one // lo  # 1/lo rounded down, over 2^k
    acc = 0
    for d in ds:
        acc = (d << k) + (acc * m >> k)
    assert acc * m >> k > one
    m = -(-one // hi)  # 1/hi rounded up
    acc = 0
    for d in ds:
        acc = (d << k) + -(-acc * m >> k)
    upper = -(-acc * m >> k)
    x = -(-(isqrt(zeta.norm_sq() << 128) + 1) * m >> 64)  # |zeta| / hi rounded up
    power = x
    for _ in range(n_terms):
        power = -(-power * x >> k)
    sqrt5 = isqrt(5 << 128) + 1  # over 2^64
    assert x < one and upper - ((-sqrt5 * power << k) // ((one - x) << 64)) < one
    assert lo * lo > zeta.norm_sq()


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


def plain_series_table(gammas, a, pa, prec):
    """_series_table as one box product per power, with no reuse of a settled power."""
    power = (1 << prec, 1 << prec, 0, 0)
    total = (0, 0, 0, 0)
    powers, sums = [], []
    for g in gammas:
        power = box_product(power, a, pa)
        total = tuple(t + e for t, e in zip(total, gaussian_product(power, g)))
        powers.append(power)
        sums.append(total)
    return powers, sums


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

    @pytest.mark.parametrize("settles", [True, False], ids=["settles", "never-settles"])
    def test_reused_settled_power_matches_plain_loop(self, settles):
        if settles:  # alpha of 1+2i decays below 2^-96 by j = 60, then stays an ulp box around 0
            a, pa = alpha_of(ZETA, solve_lambda(ZETA, W9)).fixed()
        else:  # a box around 3/5 + 4i/5, of modulus about 1: no power rounds back to the one before
            a, pa = ((3 << 40) // 5, -(-3 << 40) // 5, (4 << 40) // 5, -(-4 << 40) // 5), 40
        gammas = DegreeCache(ZETA).extend_to(200).gammas
        powers, sums = _series_table(gammas, a, pa, 96)
        assert (powers, sums) == plain_series_table(gammas, a, pa, 96)
        assert (powers[-1] == powers[-2]) is settles
        assert all(x != y for x, y in zip(powers, powers[1:])) is not settles
