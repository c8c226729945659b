import random

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg import gaussian
from dyndeg.errors import AdmissibilityError, DegenerateMatrix
from dyndeg.gaussian import (
    GAMMA0,
    DegreeCache,
    GaussianInt,
    IntMatrix2x2,
    _abs_up,
    _cursor_fill,
    d_sequence,
    gamma_argmax,
    gamma_sequence,
    gi_pow,
    is_admissible,
    monomial_degree,
    parse_gaussian,
    psi,
    _support_argmax,
)

Z = GaussianInt
ZETA = Z(1, 2)

gaussians = st.builds(Z, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
small_ints = st.integers(-5, 5)

# admissible parameters of several sizes and one inadmissible parameter
CURSOR_ZETAS = (Z(1, 2), Z(-3, 4), Z(503, 64), Z(999, -998), Z(6, 6))
# parameters whose argument lies within 2^-60 and 2^-200 of the real axis
WIDE_ZETAS = (Z(10**20, 7), Z(2**200 + 1, 1))
admissible_zetas = st.builds(Z, st.integers(-10**3, 10**3), st.integers(-10**3, 10**3)).filter(is_admissible)


def check_sign_rule(re, im):
    """_support_argmax agrees with the five values Re(gamma*z), first maximizer and tie."""
    values = [(g * Z(re, im)).re for g in GAMMA0]
    best = max(values)
    assert _support_argmax(re, im) == (values.index(best), values.count(best) > 1)


def reference_argmax(zeta, j):
    """First maximizer of Re(gamma * zeta^j) in GAMMA0 from GaussianInt products; None on a tie."""
    power = Z(1, 0)
    for _ in range(j):
        power = power * zeta
    values = [(g * power).re for g in GAMMA0]
    best = max(values)
    return None if values.count(best) > 1 else GAMMA0[values.index(best)]


class TestGiPow:
    def test_square_of_running_example(self):
        assert gi_pow(ZETA, 2) == Z(-3, 4)

    def test_zeroth_power_is_one(self):
        assert gi_pow(ZETA, 0) == Z(1, 0)

    def test_cube(self):
        # repeated exact multiplication: (1+2i)^3 = (-3+4i)(1+2i)
        assert gi_pow(ZETA, 3) == Z(-3, 4) * ZETA == Z(-11, -2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gi_pow(ZETA, -1)

    @given(gaussians, st.integers(0, 12), st.integers(0, 12))
    def test_exponent_addition(self, z, m, n):
        assert gi_pow(z, m) * gi_pow(z, n) == gi_pow(z, m + n)


class TestPsi:
    def test_zero(self):
        assert psi(Z(0, 0)) == 0

    def test_i(self):
        # enumerate GAMMA0 by hand: -2i and 1-2i both give 2
        assert psi(Z(0, 1)) == 2

    def test_running_example(self):
        # maximizer 1-2i: Re((1-2i)(1+2i)) = 5
        assert psi(ZETA) == 5

    @given(gaussians)
    def test_zero_iff_zero(self, z):
        assert (psi(z) == 0) == z.is_zero()

    @given(gaussians, st.integers(1, 50))
    def test_positive_scaling_homogeneity(self, z, m):
        assert psi(z * m) == m * psi(z)

    @given(gaussians)
    def test_norm_comparability(self, z):
        # |z| <= psi(z) <= sqrt(5)|z|, squared to stay in Z
        p = psi(z)
        assert z.norm_sq() <= p * p <= 5 * z.norm_sq()


class TestAdmissibility:
    def test_running_example_admissible(self):
        assert is_admissible(ZETA)

    @pytest.mark.parametrize(
        "z",
        [Z(1, 1), Z(3, 0), Z(0, 2), Z(-4, 4), Z(2, -2), Z(0, 0)],
    )
    def test_excluded_multiples(self, z):
        assert not is_admissible(z)

    @given(gaussians)
    def test_criterion_matches_direct_power_test(self, z):
        # zeta^n real for some 1 <= n <= 8 iff the finite membership test trips
        # (any real power forces one within the first eight, since the argument
        # is then a multiple of pi/4).
        power_real = False
        w = Z(1, 0)
        for _ in range(8):
            w = w * z
            if w.im == 0:
                power_real = True
                break
        assert is_admissible(z) == (not power_real)


class TestGammaArgmax:
    def test_first_indices(self):
        assert gamma_argmax(ZETA, 1) == Z(1, -2)
        assert gamma_argmax(ZETA, 2) == Z(0, -2)
        assert gamma_argmax(ZETA, 3) == Z(-2, 0)

    def test_values_live_in_gamma0(self):
        for j in range(1, 40):
            assert gamma_argmax(ZETA, j) in GAMMA0

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            gamma_argmax(Z(1, 1), 1)

    def test_tie_detected_even_without_precheck(self):
        # 2i has a real square; the tie shows up at j = 2 regardless
        with pytest.raises(AdmissibilityError):
            gamma_argmax(Z(2, 2), 1)

    @given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40))
    def test_sign_rule_matches_the_five_values(self, re, im):
        check_sign_rule(re, im)

    def test_sign_rule_on_every_tie_pattern(self):
        for re in range(-6, 7):
            for im in range(-6, 7):
                check_sign_rule(re, im)

    def test_degree_cache_reports_tie(self):
        # (1-i)^2 = -2i, where 2i and 1+2i both give Re(gamma * z) = 4
        with pytest.raises(AdmissibilityError, match=r"^argmax tie at zeta=1-i, j=2$"):
            DegreeCache(Z(1, -1)).extend_to(3)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(CURSOR_ZETAS),
                st.sampled_from(("next", "next", "next", "same", "jump")),
                st.integers(1, 150),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_any_call_sequence_matches_fresh_powers(self, calls):
        # steps of +1, repeats, jumps both ways, switches of zeta and an
        # inadmissible zeta in between, which must raise and change nothing
        j = 0
        for zeta, move, jump in calls:
            j = {"next": j + 1, "same": max(j, 1), "jump": jump}[move]
            if not is_admissible(zeta):
                with pytest.raises(AdmissibilityError):
                    gamma_argmax(zeta, j)
                continue
            assert gamma_argmax(zeta, j) == reference_argmax(zeta, j)

    def test_long_sweeps_interleaved(self):
        a, b = Z(503, 64), Z(-16, 282)
        for j in range(1, 301):
            assert gamma_argmax(a, j) == reference_argmax(a, j)
            if j % 50 == 0:
                assert gamma_argmax(b, j) == reference_argmax(b, j)


class TestGammaCursor:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(admissible_zetas, st.sampled_from(WIDE_ZETAS)), st.integers(1, 2000))
    def test_matches_degree_cache(self, zeta, n):
        assert gamma_sequence(zeta, n) == DegreeCache(zeta).extend_to(n).gammas

    def test_matches_degree_cache_to_20000(self):
        assert gamma_sequence(ZETA, 20000) == DegreeCache(ZETA).extend_to(20000).gammas

    @pytest.mark.parametrize("zeta", (ZETA, Z(517, -263), *WIDE_ZETAS), ids=("1+2i", "517-263i", "1e20+7i", "2^200+1+i"))
    def test_box_holds_the_exact_power(self, zeta):
        # |zeta^j - (R + I*i) 2^s| <= E 2^s at every j, well past the first trim
        box, power, zn = (1, 0, 0, 0), Z(1, 0), _abs_up(zeta)
        for j in range(1, 400):
            box = _cursor_fill(zeta, j - 1, box, zn, gaussian._width(zeta), [None])
            power = power * zeta
            R, I, E, s = box
            assert (power - Z(R << s, I << s)).norm_sq() <= (E << s) ** 2

    @pytest.mark.parametrize("zeta", (Z(1000, 999), Z(-3, 4), Z(517, -263)), ids=str)
    def test_step_bound_covers_every_point_of_the_box(self, zeta, monkeypatch):
        # a point within E of the centre maps within |rho| + |zeta| E of the new
        # centre, rho the rounding of the centre's product; that must be at most
        # E' 2^t, checked in integers as sqrt(x) + sqrt(y) <= A
        def no_fallback(zeta, j, w):
            raise AssertionError("a random box left a sign undecided")

        monkeypatch.setattr(gaussian, "_exact_box", no_fallback)
        rng, zn, w = random.Random(5), _abs_up(zeta), gaussian._width(zeta)
        for _ in range(2000):
            R, I = rng.choice((-1, 1)) * rng.getrandbits(w), rng.choice((-1, 1)) * rng.getrandbits(w)
            E = rng.randrange(1, 1 << 20)
            R2, I2, E2, t = _cursor_fill(zeta, 0, (R, I, E, 0), zn, w, [None])
            rho = Z(R, I) * zeta - Z(R2 << t, I2 << t)
            x, y, A = rho.norm_sq(), zeta.norm_sq() * E * E, E2 << t
            assert A * A - x - y >= 0 and (A * A - x - y) ** 2 >= 4 * x * y

    def test_narrow_boxes_fall_back_to_the_exact_power(self, monkeypatch):
        calls = []

        def counted(z, n):
            calls.append(n)
            return gi_pow(z, n)

        monkeypatch.setattr(gaussian, "_CURSOR_BITS", 2)
        monkeypatch.setattr(gaussian, "gi_pow", counted)
        for zeta in (ZETA, Z(-3, 4), Z(517, -263), WIDE_ZETAS[0]):
            assert gamma_sequence(zeta, 300) == DegreeCache(zeta).extend_to(300).gammas
        assert calls

    def test_interleaved_calls_match_single_calls(self, monkeypatch):
        # two zetas, j stepping, jumping back and jumping ahead
        rng, calls, last = random.Random(11), [], {}
        for _ in range(1500):
            zeta = rng.choice((Z(517, -263), Z(-3, 4)))
            j = last.get(zeta, 0)
            move = rng.random()
            j = j + 1 if move < 0.8 else max(1, j - rng.randint(1, 60)) if move < 0.9 else j + rng.randint(2, 60)
            last[zeta] = j
            calls.append((zeta, j))
        answers = [gamma_argmax(zeta, j) for zeta, j in calls]
        singles = []
        for zeta, j in calls:
            monkeypatch.setattr(gaussian, "_cursor", (None, 0, None, 0, 0))
            singles.append(gamma_argmax(zeta, j))
        assert answers == singles


class TestMonomialDegree:
    def test_identity(self):
        assert monomial_degree(IntMatrix2x2(1, 0, 0, 1)) == 1

    def test_matrix_of_i(self):
        assert monomial_degree(IntMatrix2x2.from_zeta(Z(0, 1))) == 2 == psi(Z(0, 1))

    def test_matrix_of_running_example(self):
        assert monomial_degree(IntMatrix2x2.from_zeta(ZETA)) == 5 == psi(ZETA)

    def test_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            monomial_degree(IntMatrix2x2(1, 2, 2, 4))

    @given(gaussians)
    def test_agrees_with_psi(self, z):
        mat = IntMatrix2x2.from_zeta(z)
        if mat.det() == 0:
            return
        assert monomial_degree(mat) == psi(z)

    @given(small_ints, small_ints, small_ints, small_ints, st.integers(1, 4))
    def test_matrix_power_of_zeta_matrix(self, a, b, c, d, n):
        mat = IntMatrix2x2(a, b, c, d)
        if mat.det() == 0:
            return
        # power of a matrix of a Gaussian integer is the matrix of the power
        z = Z(a, c)
        if IntMatrix2x2.from_zeta(z) == mat:
            assert mat**n == IntMatrix2x2.from_zeta(gi_pow(z, n))


class TestDSequence:
    def test_running_example_first_five(self):
        seq = d_sequence(ZETA, 5)
        assert tuple(seq.values) == (5, 8, 22, 48, 117)

    def test_single_entry(self):
        assert d_sequence(ZETA, 1).values == (5,)

    def test_gamma_consistency(self):
        seq = d_sequence(ZETA, 30)
        for j in seq.indices():
            g = seq.gammas[j - 1]
            zj = gi_pow(ZETA, j)
            assert seq[j] == g.re * zj.re - g.im * zj.im
            assert g == gamma_argmax(ZETA, j)

    def test_matrix_power_cross_check(self):
        # independent route: d_j = monomial degree of the j-th matrix power
        seq = d_sequence(ZETA, 12)
        mat = IntMatrix2x2.from_zeta(ZETA)
        for j in seq.indices():
            assert seq[j] == monomial_degree(mat**j)

    def test_norm_growth_bounds(self):
        for zeta in (ZETA, Z(2, 1), Z(3, 2), Z(-3, 4)):
            seq = d_sequence(zeta, 25)
            nq = zeta.norm_sq()
            for j in seq.indices():
                dj = seq[j]
                assert nq**j <= dj * dj <= 5 * nq**j

    def test_submultiplicative(self):
        seq = d_sequence(ZETA, 24)
        for m in range(1, 12):
            for n in range(1, 12):
                assert seq[m + n] <= seq[m] * seq[n]

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            d_sequence(Z(0, 3), 4)


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1+2i", Z(1, 2)),
            ("-3+4i", Z(-3, 4)),
            ("1-2i", Z(1, -2)),
            (" 7 ", Z(7, 0)),
            ("-7", Z(-7, 0)),
            ("2i", Z(0, 2)),
            ("-2i", Z(0, -2)),
            ("i", Z(0, 1)),
            ("-i", Z(0, -1)),
            ("1 + 2 i", Z(1, 2)),
            ("1+1i", Z(1, 1)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_gaussian(text) == expected

    @pytest.mark.parametrize("text", ["", "2+", "i+2", "2.5", "1+2j", "(1,2)", "2 3i"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_gaussian(text)

    def test_str_round_trip(self):
        for z in (Z(1, 2), Z(-3, 4), Z(0, -1), Z(5, 0), Z(-2, -7), Z(0, 3)):
            assert parse_gaussian(str(z)) == z
