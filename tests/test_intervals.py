from fractions import Fraction
from math import ceil, floor

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from dyndeg import intervals
from dyndeg.gaussian import GaussianInt
from dyndeg.intervals import (
    ComplexInterval,
    Dyadic,
    RealInterval,
    _pi_brackets_bits,
    abs_sq,
    abs_sup,
    atan2_brackets,
    box_power,
    box_product,
    box_quotient,
    gaussian_product,
    intersect,
    quotient,
    real_product,
    scale_int,
    squeeze,
    widen,
)
from dyndeg.powering import binary_power

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


ends = st.integers(-(10**12), 10**12)
real_boxes = st.builds(lambda a, b: (min(a, b), max(a, b)), ends, ends)
complex_boxes = st.builds(lambda x, y: x + y, real_boxes, real_boxes)
positive_boxes = st.builds(lambda a, b: (min(a, b), max(a, b)), st.integers(1, 10**12), st.integers(1, 10**12))
# every sign pattern: one sign, a zero endpoint, a point (0 included), straddling 0
signed = st.one_of(st.just(0), st.integers(1, 10**12), st.integers(-(10**12), -1))
signed_boxes = st.one_of(
    st.builds(lambda a, b: (min(a, b), max(a, b)), signed, signed),
    st.builds(lambda a: (a, a), signed),
)
shifts = st.integers(0, 80)


def hull(values):
    return min(values), max(values)


def outward(lo, hi, shift: int):
    """[lo, hi] / 2^shift, floored and ceiled: the rounding the kernel must give."""
    scale = Fraction(2) ** shift
    return floor(lo / scale), ceil(hi / scale)


def exact_box_product(x, y):
    """(re lo, re hi, im lo, im hi) of the exact interval product, every part by its four corners."""
    p, q = hull([a * b for a in x[:2] for b in y[:2]]), hull([a * b for a in x[2:] for b in y[2:]])
    u, v = hull([a * b for a in x[:2] for b in y[2:]]), hull([a * b for a in x[2:] for b in y[:2]])
    return p[0] - q[1], p[1] - q[0], u[0] + v[0], u[1] + v[1]


class TestRealInterval:
    """The real-box kernel that replaced RealInterval arithmetic, against exact products."""

    @given(real_boxes, real_boxes)
    def test_mul_soundness_on_endpoints(self, x, y):
        lo, hi = real_product(*x, *y)
        for a in x:
            for b in y:
                assert lo <= a * b <= hi

    @given(signed_boxes, signed_boxes)
    @example((0, 0), (-3, -3))
    @example((-5, 0), (0, 7))
    def test_mul_sign_split_matches_four_products(self, x, y):
        assert real_product(*x, *y) == hull([a * b for a in x for b in y])

    @given(real_boxes)
    def test_sq_nonnegative_and_sound(self, x):
        lo, hi = abs_sq(x + (0, 0))
        assert lo >= 0
        assert lo <= x[0] ** 2 <= hi and lo <= x[1] ** 2 <= hi
        m = Fraction(x[0] + x[1], 2)
        assert lo <= m * m <= hi

    def test_div_basic(self):
        lo, hi = quotient((1, 2), (3, 4), 60)
        q = (Fraction(lo, 1 << 60), Fraction(hi, 1 << 60))
        assert q[0] <= Fraction(1, 3) and Fraction(2, 3) <= q[1] < Fraction(3, 4)

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            quotient((1, 2), (-1, 1), 30)

    @given(real_boxes, st.integers(-20, 80))
    def test_squeeze_contains(self, x, shift):
        assert squeeze(x, shift) == outward(*x, shift)


class TestBoxKernel:
    @given(complex_boxes, complex_boxes, shifts)
    def test_product_is_exact_product_rounded_outward(self, x, y, shift):
        rl, rh, il, ih = exact_box_product(x, y)
        assert box_product(x, y, shift) == outward(rl, rh, shift) + outward(il, ih, shift)

    @given(complex_boxes, st.builds(GaussianInt, st.integers(-5, 5), st.integers(-5, 5)))
    def test_gaussian_product_is_point_product(self, x, g):
        assert gaussian_product(x, g) == exact_box_product(x, (g.re, g.re, g.im, g.im))

    @given(real_boxes, positive_boxes, shifts)
    def test_quotient_contains_exact_quotients(self, x, y, shift):
        quotients = [Fraction(a << shift, b) for a in x for b in y]
        assert quotient(x, y, shift) == outward(*hull(quotients), 0)

    @given(complex_boxes, complex_boxes, st.integers(0, 60))
    def test_box_quotient_contains_exact_quotients(self, x, y, shift):
        if abs_sq(y)[0] == 0:
            with pytest.raises(ZeroDivisionError):
                box_quotient(x, y, shift)
            return
        rl, rh, il, ih = box_quotient(x, y, shift)
        for a in x[:2]:
            for b in x[2:]:
                for c in y[:2]:
                    for d in y[2:]:
                        den = c * c + d * d  # (a + bi) / (c + di) = (a + bi)(c - di) / den
                        assert rl <= Fraction((a * c + b * d) << shift, den) <= rh
                        assert il <= Fraction((b * c - a * d) << shift, den) <= ih

    @given(complex_boxes, st.integers(0, 10**6), st.integers(0, 40))
    def test_widen_intersect_scale(self, x, margin, n):
        assert widen(x, margin) == (x[0] - margin, x[1] + margin, x[2] - margin, x[3] + margin)
        assert intersect(x[:2], widen(x[:2], margin)) == x[:2]
        assert intersect(x[:2], (x[1] + 1, x[1] + 2)) is None
        assert scale_int(x[:2], n) == (n * x[0], n * x[1])
        assert scale_int(x[:2], -n) == hull([-n * x[0], -n * x[1]])

    @given(complex_boxes, st.integers(0, 40), st.integers(0, 80))
    def test_abs_sup_is_ceiled_root(self, x, p, prec):
        hi = Fraction(abs_sq(x)[1], 1 << 2 * p)
        s = Fraction(abs_sup(x, p, prec), 1 << prec)
        assert s * s >= hi
        assert s == 0 or (s - Fraction(1, 1 << prec)) ** 2 < hi


def exact_power(a, pa: int, n: int, prec: int):
    """The reference: the exact box power over 2^(n pa), squeezed outward to 2^prec."""
    return squeeze(binary_power(a, n, (1, 1, 0, 0), box_product), n * pa - prec)


@st.composite
def power_cases(draw):
    """(a, pa, n, prec): a box over 2^pa of modulus up to about 3, each part a point, narrow or wide, maybe straddling 0."""
    pa = draw(st.integers(1, 64))

    def part():
        width = draw(st.one_of(st.just(0), st.integers(1, 16), st.integers(0, 2 << pa)))
        lo = draw(st.one_of(st.integers(-(2 << pa), 2 << pa), st.integers(-width, 0)))
        return lo, lo + width

    a = part() + part()
    prec = draw(st.one_of(st.integers(0, pa - 1), st.just(pa), st.integers(pa + 1, pa + 200)))
    return a, pa, draw(st.integers(0, 300)), prec


@pytest.fixture
def exact_fallbacks(monkeypatch):
    """The exponents of the exact powers (product box_product itself) that box_power forms."""
    calls = []

    def spy(x, n, one, mul):
        if mul is box_product:
            calls.append(n)
        return binary_power(x, n, one, mul)

    monkeypatch.setattr(intervals, "binary_power", spy)
    return calls


class TestBoxPower:
    @given(power_cases())
    @example(((-3, 5, -(1 << 40), 1 << 40), 40, 255, 40))
    @example(((7 << 60, (7 << 60) + 1, 5 << 60, 5 << 60), 63, 300, 400))
    def test_equals_exact_squeezed_power(self, case):
        assert box_power(*case) == exact_power(*case)

    @pytest.mark.parametrize(
        "a, pa",
        [
            # a point: 5 + 2i has odd norm, so a part of every power is odd
            # over 2^(3n), and rounding it inward at fewer bits empties it
            ((5, 5, 2, 2), 3),
            # the real part of a^n is [0, 2^-(n pa)]: rounded inward it is
            # [0, 0] below n pa bits, so R and I squeeze to different boxes
            ((0, 1, 0, 0), 8),
        ],
    )
    def test_undecided_powers_fall_back_to_the_exact_power(self, exact_fallbacks, a, pa):
        n, prec = 200, 20
        want = exact_power(a, pa, n, prec)
        assert box_power(a, pa, n, prec) == want
        assert exact_fallbacks == [n]

    def test_narrow_box_decided_without_exact_power(self, exact_fallbacks):
        # about 0.3 + 0.8i, one unit wide over 2^200 in each part, as alpha is
        pa, n, prec = 200, 100, 150
        c, d = 3 * (1 << pa) // 10, 8 * (1 << pa) // 10
        a = (c, c + 1, d, d + 1)
        assert box_power(a, pa, n, prec) == exact_power(a, pa, n, prec)
        assert exact_fallbacks == []


dyadic_intervals = st.builds(lambda a, b: RealInterval(min(a, b), max(a, b)), dyadics, dyadics)


class TestComplexInterval:
    @given(dyadic_intervals, dyadic_intervals, st.integers(0, 80))
    def test_fixed_is_squeeze(self, re, im, prec):
        box = ComplexInterval(re, im)
        ends, p = box.fixed()
        assert ComplexInterval.from_fixed(ends, p) == box
        squeezed = ComplexInterval.from_fixed(squeeze(ends, p - prec), prec)
        rounded = [d.round(prec, "ceil" if i & 1 else "floor") for i, d in enumerate((re.lo, re.hi, im.lo, im.hi))]
        assert [squeezed.re.lo, squeezed.re.hi, squeezed.im.lo, squeezed.im.hi] == rounded

    def test_mul_matches_gaussian(self):
        a, b = (1, 1, 2, 2), (-3, -3, 4, 4)
        assert box_product(a, b) == (-11, -11, -2, -2) == gaussian_product(a, GaussianInt(-3, 4))

    def test_div_roundtrip(self):
        a, b = (5, 5, -7, -7), (2, 2, 3, 3)
        rl, rh, il, ih = box_product(box_quotient(a, b, 70), b)
        assert rl <= 5 << 70 <= rh and il <= -7 << 70 <= ih

    def test_abs_bounds(self):
        s = Fraction(abs_sup((3, 3, 4, 4), 0, 40), 1 << 40)
        assert 5 <= s < 5 + Fraction(1, 1 << 35)

    def test_pow(self):
        assert binary_power((1, 1, 2, 2), 3, (1, 1, 0, 0), box_product) == (-11, -11, -2, -2)


class TestTranscendental:
    def test_pi_digits(self):
        mpmath.mp.dps = 60
        lo, hi = _pi_brackets_bits(150)
        truth = Fraction(str(mpmath.mp.pi))  # decimal snapshot, plenty accurate here
        assert lo <= truth <= hi
        assert hi - lo < Fraction(1, 1 << 145)

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_pi_nesting(self, prec):
        lo, hi = _pi_brackets_bits(prec)
        finer_lo, finer_hi = _pi_brackets_bits(2 * prec)
        assert lo <= finer_lo <= finer_hi <= hi

    @pytest.mark.parametrize(
        "y,x",
        [(2, 1), (1, 2), (4, -3), (-2, 1), (-1, -1000), (7, 7), (1, 0), (-3, 0), (5, 3)],
    )
    def test_atan2_against_mpmath(self, y, x):
        mpmath.mp.dps = 60
        lo, hi = atan2_brackets(y, x, 160)
        truth = Fraction(mpmath.nstr(mpmath.atan2(y, x), 50, strip_zeros=False))
        # the decimal snapshot itself carries ~1e-50 slack
        slack = Fraction(1, 10**45)
        assert lo - slack <= truth <= hi + slack
        assert hi - lo < Fraction(1, 1 << 150)

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_atan2_sound(self, y, x):
        if x == 0 and y == 0:
            return
        mpmath.mp.dps = 40
        lo, hi = atan2_brackets(y, x, 120)
        truth = Fraction(mpmath.nstr(mpmath.atan2(y, x), 35, strip_zeros=False))
        slack = Fraction(1, 10**30)
        assert lo - slack <= truth <= hi + slack
