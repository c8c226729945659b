"""Dyadic arbitrary-precision interval arithmetic with explicit outward rounding.

Endpoints are exact dyadic rationals m * 2^e.  Addition, subtraction and
multiplication of dyadics are exact; division and square roots round in a
stated direction at an explicit fractional-bit precision.  No global rounding
state exists: every rounding operation names its direction and precision.

The transcendental enclosures (pi, arctangent) are produced from alternating
Taylor series evaluated in exact rational arithmetic, so consecutive partial
sums bracket the true value; outward dyadic rounding happens once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .powering import binary_power


def _normalized(man: int, exp: int):
    if man == 0:
        return 0, 0
    # strip trailing zero bits so representations are canonical
    shift = (man & -man).bit_length() - 1
    return man >> shift, exp + shift


@dataclass(frozen=True)
class Dyadic:
    """Exact dyadic rational man * 2^exp, canonical (man odd or zero)."""

    man: int
    exp: int

    @staticmethod
    def make(man: int, exp: int) -> "Dyadic":
        m, e = _normalized(man, exp)
        return Dyadic(m, e)

    @staticmethod
    def from_int(n: int) -> "Dyadic":
        return Dyadic.make(n, 0)

    @staticmethod
    def from_fraction(fr: Fraction, prec: int, direction: str) -> "Dyadic":
        """Quantize fr to a multiple of 2^-prec, rounding toward the named direction."""
        num, den = fr.numerator, fr.denominator
        scaled = num << prec
        if direction == "floor":
            q = scaled // den
        elif direction == "ceil":
            q = -((-scaled) // den)
        else:
            raise ValueError(f"direction must be floor/ceil, not {direction!r}")
        return Dyadic.make(q, -prec)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if self.man == 0:
            return other
        if other.man == 0:
            return self
        e = min(self.exp, other.exp)
        return Dyadic.make(
            (self.man << (self.exp - e)) + (other.man << (other.exp - e)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        if self.man == 0 or other.man == 0:
            return _ZERO
        return Dyadic(self.man * other.man, self.exp + other.exp)  # already canonical

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def _cmp(self, other: "Dyadic") -> int:
        if self.man == 0 and other.man == 0:
            return 0
        sa = (self.man > 0) - (self.man < 0)
        sb = (other.man > 0) - (other.man < 0)
        if sa != sb:
            return (sa > sb) - (sa < sb)
        e = min(self.exp, other.exp)
        a = self.man << (self.exp - e)
        b = other.man << (other.exp - e)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    def is_zero(self) -> bool:
        return self.man == 0

    def round(self, prec: int, direction: str) -> "Dyadic":
        """Quantize to a multiple of 2^-prec in the named direction."""
        if self.exp >= -prec:
            return self
        shift = -prec - self.exp
        if direction == "floor":
            q = self.man >> shift
        elif direction == "ceil":
            q = -((-self.man) >> shift)
        else:
            raise ValueError(f"direction must be floor/ceil, not {direction!r}")
        return Dyadic.make(q, -prec)

    @staticmethod
    def div(a: "Dyadic", b: "Dyadic", prec: int, direction: str) -> "Dyadic":
        """Directed quotient a/b quantized at 2^-prec."""
        if b.man == 0:
            raise ZeroDivisionError("dyadic division by zero")
        if a.man == 0:
            return _ZERO
        s = a.exp - b.exp + prec
        num = a.man << s if s >= 0 else a.man
        den = b.man if s >= 0 else b.man << (-s)
        if direction == "floor":
            q = num // den if den > 0 else (-num) // (-den)
        elif direction == "ceil":
            q = -((-num) // den) if den > 0 else -(num // (-den))
        else:
            raise ValueError(f"direction must be floor/ceil, not {direction!r}")
        return Dyadic.make(q, -prec)

    @staticmethod
    def sqrt(a: "Dyadic", prec: int, direction: str) -> "Dyadic":
        """Directed square root of a >= 0, quantized at 2^-prec."""
        if a.man < 0:
            raise ValueError("sqrt of negative dyadic")
        if a.man == 0:
            return _ZERO
        s = a.exp + 2 * prec
        if s >= 0:
            n = a.man << s
            q = isqrt(n)
            exact = q * q == n
        else:
            q = isqrt(a.man >> (-s))  # floor(sqrt(floor(x))) == floor(sqrt(x))
            exact = (q * q) << (-s) == a.man
        if direction == "floor":
            pass
        elif direction == "ceil":
            if not exact:
                q += 1
        else:
            raise ValueError(f"direction must be floor/ceil, not {direction!r}")
        return Dyadic.make(q, -prec)

    def floor_int(self) -> int:
        """Largest integer <= value."""
        if self.exp >= 0:
            return self.man << self.exp
        return self.man >> (-self.exp)

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << (-self.exp))

    def __float__(self):
        try:
            return self.man * 2.0**self.exp
        except OverflowError:
            return float(self.to_fraction())

    def decimal_str(self, digits: int, direction: str) -> str:
        """Directed decimal rendering with the given number of fractional digits."""
        scale = 10**digits
        if self.exp >= 0:
            n = self.man << self.exp
            n *= scale
        else:
            num = self.man * scale
            den = 1 << (-self.exp)
            if direction == "floor":
                n = num // den
            elif direction == "ceil":
                n = -((-num) // den)
            else:
                raise ValueError(f"direction must be floor/ceil, not {direction!r}")
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, frac = divmod(n, scale)
        if digits == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:0{digits}d}"

    def __repr__(self):
        return f"Dyadic({self.man}, {self.exp})"


_ZERO = Dyadic(0, 0)
DY_ZERO = _ZERO
DY_ONE = Dyadic(1, 0)


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi] with exact dyadic endpoints."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo!r} > {self.hi!r}")

    @staticmethod
    def point(x) -> "RealInterval":
        d = Dyadic.from_int(x) if isinstance(x, int) else x
        return RealInterval(d, d)

    @staticmethod
    def from_fractions(lo: Fraction, hi: Fraction, prec: int) -> "RealInterval":
        return RealInterval(
            Dyadic.from_fraction(lo, prec, "floor"),
            Dyadic.from_fraction(hi, prec, "ceil"),
        )

    def __add__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RealInterval":
        return RealInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RealInterval") -> "RealInterval":
        """Exact product; two endpoint products unless a factor straddles 0.

        A factor with lo >= 0 or hi <= 0 has one sign, so the signs pick the
        endpoints of the min and the max of the four products.
        """
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a.man >= 0:
            if c.man >= 0:
                return RealInterval(a * c, b * d)
            if d.man <= 0:
                return RealInterval(b * c, a * d)
        elif b.man <= 0:
            if c.man >= 0:
                return RealInterval(a * d, b * c)
            if d.man <= 0:
                return RealInterval(b * d, a * c)
        products = (a * c, a * d, b * c, b * d)
        return RealInterval(min(products), max(products))

    def scale_int(self, n: int) -> "RealInterval":
        d = Dyadic.from_int(n)
        if n >= 0:
            return RealInterval(self.lo * d, self.hi * d)
        return RealInterval(self.hi * d, self.lo * d)

    def sq(self) -> "RealInterval":
        """Interval square, sharp at intervals containing zero."""
        a, b = self.lo, self.hi
        if a.sign() >= 0:
            return RealInterval(a * a, b * b)
        if b.sign() <= 0:
            return RealInterval(b * b, a * a)
        return RealInterval(_ZERO, max(a * a, b * b))

    def div(self, other: "RealInterval", prec: int) -> "RealInterval":
        if other.contains_zero():
            raise ZeroDivisionError("division by an interval containing zero")
        los = []
        his = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                los.append(Dyadic.div(a, b, prec, "floor"))
                his.append(Dyadic.div(a, b, prec, "ceil"))
        return RealInterval(min(los), max(his))

    def recip(self, prec: int) -> "RealInterval":
        return RealInterval.point(1).div(self, prec)

    def squeeze(self, prec: int) -> "RealInterval":
        """Outward requantization; contains the original interval."""
        return RealInterval(self.lo.round(prec, "floor"), self.hi.round(prec, "ceil"))

    @staticmethod
    def from_fixed(lo: int, hi: int, prec: int) -> "RealInterval":
        """The interval [lo, hi] * 2^-prec."""
        return RealInterval(Dyadic.make(lo, -prec), Dyadic.make(hi, -prec))

    def fixed(self, prec: int):
        """(lo, hi) ints over 2^prec of the interval squeezed to prec."""
        lo, hi = self.lo, self.hi
        return Dyadic(lo.man, lo.exp + prec).floor_int(), -Dyadic(-hi.man, hi.exp + prec).floor_int()

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def mid(self) -> Dyadic:
        return Dyadic.make(1, -1) * (self.lo + self.hi)

    def contains_zero(self) -> bool:
        return self.lo.sign() <= 0 <= self.hi.sign()

    def contains(self, x) -> bool:
        if isinstance(x, Dyadic):
            return self.lo <= x <= self.hi
        fr = Fraction(x)
        return self.lo.to_fraction() <= fr <= self.hi.to_fraction()

    def contains_interval(self, other: "RealInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "RealInterval"):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return RealInterval(lo, hi)

    def widen(self, margin: Dyadic) -> "RealInterval":
        if margin.sign() < 0:
            raise ValueError("margin must be >= 0")
        return RealInterval(self.lo - margin, self.hi + margin)

    def strictly_positive(self) -> bool:
        return self.lo.sign() > 0

    def strictly_negative(self) -> bool:
        return self.hi.sign() < 0

    def strictly_inside_unit(self) -> bool:
        return self.lo > Dyadic.from_int(0) and self.hi < Dyadic.from_int(1)

    def __repr__(self):
        return f"RealInterval({float(self.lo):.17g}, {float(self.hi):.17g})"


@dataclass(frozen=True)
class ComplexInterval:
    """Axis-aligned box re + i*im with RealInterval components."""

    re: RealInterval
    im: RealInterval

    @staticmethod
    def point(re: int, im: int) -> "ComplexInterval":
        return ComplexInterval(RealInterval.point(re), RealInterval.point(im))

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def mul_gaussian(self, g) -> "ComplexInterval":
        """Multiply by an exact Gaussian integer (g.re, g.im)."""
        return ComplexInterval(
            self.re.scale_int(g.re) - self.im.scale_int(g.im),
            self.re.scale_int(g.im) + self.im.scale_int(g.re),
        )

    def conj(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def abs_sq(self) -> RealInterval:
        return self.re.sq() + self.im.sq()

    def abs_sup(self, prec: int) -> Dyadic:
        return Dyadic.sqrt(self.abs_sq().hi, prec, "ceil")

    def pow_int(self, n: int) -> "ComplexInterval":
        return binary_power(self, n, ComplexInterval.point(1, 0))

    def div(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        denom = other.abs_sq()
        if denom.contains_zero():
            raise ZeroDivisionError("division by a complex box containing zero")
        num = self * other.conj()
        return ComplexInterval(num.re.div(denom, prec), num.im.div(denom, prec))

    def squeeze(self, prec: int) -> "ComplexInterval":
        return ComplexInterval(self.re.squeeze(prec), self.im.squeeze(prec))

    @staticmethod
    def from_fixed(ends, prec: int) -> "ComplexInterval":
        """The box with endpoints ends = (re lo, re hi, im lo, im hi) * 2^-prec."""
        rl, rh, il, ih = ends
        return ComplexInterval(RealInterval.from_fixed(rl, rh, prec), RealInterval.from_fixed(il, ih, prec))

    def fixed(self, prec: int):
        """(re lo, re hi, im lo, im hi) ints over 2^prec of the box squeezed to prec."""
        return self.re.fixed(prec) + self.im.fixed(prec)

    def widen(self, margin: Dyadic) -> "ComplexInterval":
        return ComplexInterval(self.re.widen(margin), self.im.widen(margin))

    def max_width(self) -> Dyadic:
        return max(self.re.width(), self.im.width())

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# pi and arctangent enclosures from alternating rational series
# ---------------------------------------------------------------------------


def _atan_brackets_series(x: Fraction, err: Fraction):
    """Exact rational bracket of atan(x) for 0 < x < 1 via the alternating series.

    Terms x^(2k+1)/(2k+1) decrease strictly for |x| < 1, so consecutive partial
    sums bracket the limit; stop once the next term is below err.
    """
    assert 0 < x < 1
    total = x
    term = x
    x2 = x * x
    k = 0
    sign = 1
    while True:
        k += 1
        term *= x2
        nxt = term * Fraction(1, 2 * k + 1)
        if nxt < err:
            # partial sum S and S +- next term bracket the limit
            if sign > 0:
                return total - nxt, total
            return total, total + nxt
        sign = -sign
        total += sign * nxt


def _atan_brackets(x: Fraction, err: Fraction):
    """Exact rational bracket of atan(x) for any rational x, via argument reduction."""
    if x == 0:
        return Fraction(0), Fraction(0)
    if x < 0:
        lo, hi = _atan_brackets(-x, err)
        return -hi, -lo
    if x > 1:
        # atan(x) = pi/2 - atan(1/x)
        pl, ph = _pi_brackets_err(err)
        lo, hi = _atan_brackets(1 / x, err / 2)
        return pl / 2 - hi, ph / 2 - lo
    if x > Fraction(1, 2):
        # atan(x) = pi/4 + atan((x-1)/(x+1)); new argument lies in (-1/3, 0]
        pl, ph = _pi_brackets_err(err)
        lo, hi = _atan_brackets((x - 1) / (x + 1), err / 2)
        return pl / 4 + lo, ph / 4 + hi
    return _atan_brackets_series(x, err)


@lru_cache(maxsize=64)
def _pi_brackets_bits(bits: int):
    """Exact rational bracket of pi with width below 2^-bits (Machin)."""
    err = Fraction(1, 1 << (bits + 6))
    l5, h5 = _atan_brackets_series(Fraction(1, 5), err)
    l239, h239 = _atan_brackets_series(Fraction(1, 239), err)
    return 16 * l5 - 4 * h239, 16 * h5 - 4 * l239


def _pi_brackets_err(err: Fraction):
    bits = max(8, -(err).numerator.bit_length() + err.denominator.bit_length() + 4)
    return _pi_brackets_bits(bits)


def pi_interval(prec: int) -> RealInterval:
    """Certified enclosure of pi at 2^-prec resolution."""
    lo, hi = _pi_brackets_bits(prec + 4)
    return RealInterval.from_fractions(lo, hi, prec)


def atan2_brackets(y: int, x: int, prec: int):
    """Exact rational bracket of atan2(y, x) in (-pi, pi], for integer x, y not both 0."""
    if x == 0 and y == 0:
        raise ValueError("atan2(0, 0) undefined")
    err = Fraction(1, 1 << (prec + 4))
    if x == 0:
        pl, ph = _pi_brackets_err(err)
        return (pl / 2, ph / 2) if y > 0 else (-ph / 2, -pl / 2)
    lo, hi = _atan_brackets(Fraction(y, x), err)
    if x > 0:
        return lo, hi
    pl, ph = _pi_brackets_err(err)
    if y >= 0:
        return lo + pl, hi + ph
    return lo - ph, hi - pl


def atan2_interval(y: int, x: int, prec: int) -> RealInterval:
    lo, hi = atan2_brackets(y, x, prec)
    return RealInterval.from_fractions(lo, hi, prec)
