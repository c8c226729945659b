from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from dyndeg.intervals import (
    DY_ZERO,
    ComplexInterval,
    Dyadic,
    RealInterval,
    atan2_interval,
    pi_interval,
)

dyadics = st.builds(
    Dyadic.make, st.integers(-(10**9), 10**9), st.integers(-60, 30)
)


def fr(d: Dyadic) -> Fraction:
    return d.to_fraction()


class TestDyadic:
    @given(dyadics, dyadics)
    def test_add_exact(self, a, b):
        assert fr(a + b) == fr(a) + fr(b)

    @given(dyadics, dyadics)
    def test_mul_exact(self, a, b):
        assert fr(a * b) == fr(a) * fr(b)

    @given(dyadics, dyadics)
    def test_comparison_matches_fractions(self, a, b):
        assert (a < b) == (fr(a) < fr(b))
        assert (a <= b) == (fr(a) <= fr(b))

    @given(dyadics, st.integers(0, 80))
    def test_round_directed(self, a, prec):
        lo = a.round(prec, "floor")
        hi = a.round(prec, "ceil")
        assert fr(lo) <= fr(a) <= fr(hi)
        assert fr(hi) - fr(lo) <= Fraction(1, 1 << prec)

    @given(dyadics, dyadics, st.integers(0, 80))
    def test_div_directed(self, a, b, prec):
        if b.is_zero():
            return
        lo = Dyadic.div(a, b, prec, "floor")
        hi = Dyadic.div(a, b, prec, "ceil")
        q = fr(a) / fr(b)
        assert fr(lo) <= q <= fr(hi)
        assert fr(hi) - fr(lo) <= Fraction(2, 1 << prec)

    @given(dyadics, st.integers(2, 90))
    def test_sqrt_directed(self, a, prec):
        if a.man < 0:
            a = abs(a)
        lo = Dyadic.sqrt(a, prec, "floor")
        hi = Dyadic.sqrt(a, prec, "ceil")
        assert fr(lo) * fr(lo) <= fr(a)
        assert fr(hi) * fr(hi) >= fr(a)
        assert fr(hi) - fr(lo) <= Fraction(2, 1 << prec)

    def test_sqrt_exact_square(self):
        nine = Dyadic.from_int(9)
        assert Dyadic.sqrt(nine, 30, "floor") == Dyadic.sqrt(nine, 30, "ceil") == Dyadic.from_int(3)

    @given(dyadics)
    def test_floor_int(self, a):
        f = a.floor_int()
        assert f <= fr(a) < f + 1

    def test_decimal_str(self):
        x = Dyadic.make(5, -2)  # 1.25
        assert x.decimal_str(3, "floor") == "1.250"
        third_ish = Dyadic.make(1, -5)  # 0.03125
        assert third_ish.decimal_str(3, "floor") == "0.031"
        assert third_ish.decimal_str(3, "ceil") == "0.032"
        assert Dyadic.make(-1, -5).decimal_str(3, "floor") == "-0.032"

    def test_from_fraction_directed(self):
        lo = Dyadic.from_fraction(Fraction(1, 3), 10, "floor")
        hi = Dyadic.from_fraction(Fraction(1, 3), 10, "ceil")
        assert fr(lo) <= Fraction(1, 3) <= fr(hi)
        assert fr(hi) - fr(lo) == Fraction(1, 1024)


intervals = st.builds(
    lambda a, b: RealInterval(min(a, b), max(a, b)), dyadics, dyadics
)
samples = st.fractions(min_value=-2, max_value=2)
# every sign pattern: one sign, a zero endpoint, a point (0 included), straddling 0
signed_dyadics = st.one_of(
    st.just(DY_ZERO),
    st.builds(Dyadic.make, st.integers(1, 10**9), st.integers(-60, 30)),
    st.builds(Dyadic.make, st.integers(-(10**9), -1), st.integers(-60, 30)),
)
signed_intervals = st.one_of(
    st.builds(lambda a, b: RealInterval(min(a, b), max(a, b)), signed_dyadics, signed_dyadics),
    st.builds(RealInterval.point, signed_dyadics),
)


def iv_of(lo, hi):
    return RealInterval(
        Dyadic.from_fraction(Fraction(lo), 40, "floor"),
        Dyadic.from_fraction(Fraction(hi), 40, "ceil"),
    )


class TestRealInterval:
    @given(intervals, intervals)
    def test_add_contains_sums(self, x, y):
        z = x + y
        assert fr(z.lo) == fr(x.lo) + fr(y.lo)
        assert fr(z.hi) == fr(x.hi) + fr(y.hi)

    @given(intervals, intervals)
    def test_mul_soundness_on_endpoints(self, x, y):
        z = x * y
        for a in (x.lo, x.hi):
            for b in (y.lo, y.hi):
                assert z.contains(fr(a) * fr(b))

    @given(signed_intervals, signed_intervals)
    @example(RealInterval.point(0), RealInterval.point(Dyadic.make(-3, -2)))
    @example(RealInterval(Dyadic.make(-5, -1), DY_ZERO), RealInterval(DY_ZERO, Dyadic.make(7, 3)))
    def test_mul_sign_split_matches_four_products(self, x, y):
        products = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
        assert x * y == RealInterval(min(products), max(products))

    @given(intervals)
    def test_sq_nonnegative_and_sound(self, x):
        s = x.sq()
        assert s.lo.sign() >= 0
        assert s.contains(fr(x.lo) ** 2)
        assert s.contains(fr(x.hi) ** 2)
        m = fr(x.mid())
        assert s.contains(m * m)

    def test_div_basic(self):
        x = iv_of(1, 2)
        y = iv_of(3, 4)
        q = x.div(y, 60)
        assert q.contains(Fraction(1, 3))
        assert q.contains(Fraction(2, 3))
        assert not q.contains(Fraction(3, 4))

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            iv_of(1, 2).div(iv_of(-1, 1), 30)

    @given(intervals, st.integers(4, 60))
    def test_squeeze_contains(self, x, prec):
        assert x.squeeze(prec).contains_interval(x)


class TestComplexInterval:
    @given(intervals, intervals, st.integers(0, 80))
    def test_fixed_is_squeeze(self, re, im, prec):
        box = ComplexInterval(re, im)
        assert ComplexInterval.from_fixed(box.fixed(prec), prec) == box.squeeze(prec)

    def test_mul_matches_gaussian(self):
        a = ComplexInterval.point(1, 2)
        b = ComplexInterval.point(-3, 4)
        c = a * b
        assert c.re.contains(-11) and c.im.contains(-2)
        assert fr(c.re.width()) == 0

    def test_div_roundtrip(self):
        a = ComplexInterval.point(5, -7)
        b = ComplexInterval.point(2, 3)
        q = a.div(b, 70)
        back = q * b
        assert back.re.contains(5) and back.im.contains(-7)

    def test_abs_bounds(self):
        z = ComplexInterval.point(3, 4)
        assert 5 <= fr(z.abs_sup(40)) < 5 + Fraction(1, 1 << 35)

    def test_pow(self):
        z = ComplexInterval.point(1, 2)
        w = z.pow_int(3)
        assert w.re.contains(-11) and w.im.contains(-2)


class TestTranscendental:
    def test_pi_digits(self):
        mpmath.mp.dps = 60
        p = pi_interval(150)
        truth = Fraction(str(mpmath.mp.pi))  # decimal snapshot, plenty accurate here
        assert p.contains(truth)
        assert fr(p.width()) < Fraction(1, 1 << 145)

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_pi_nesting(self, prec):
        assert pi_interval(prec).contains_interval(pi_interval(2 * prec))

    @pytest.mark.parametrize(
        "y,x",
        [(2, 1), (1, 2), (4, -3), (-2, 1), (-1, -1000), (7, 7), (1, 0), (-3, 0), (5, 3)],
    )
    def test_atan2_against_mpmath(self, y, x):
        mpmath.mp.dps = 60
        box = atan2_interval(y, x, 160)
        truth = Fraction(mpmath.nstr(mpmath.atan2(y, x), 50, strip_zeros=False))
        # the decimal snapshot itself carries ~1e-50 slack
        slack = Fraction(1, 10**45)
        assert box.lo.to_fraction() - slack <= truth <= box.hi.to_fraction() + slack
        assert fr(box.width()) < Fraction(1, 1 << 150)

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_atan2_sound(self, y, x):
        if x == 0 and y == 0:
            return
        mpmath.mp.dps = 40
        box = atan2_interval(y, x, 120)
        truth = Fraction(mpmath.nstr(mpmath.atan2(y, x), 35, strip_zeros=False))
        slack = Fraction(1, 10**30)
        assert box.lo.to_fraction() - slack <= truth <= box.hi.to_fraction() + slack
