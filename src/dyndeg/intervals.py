"""Fixed-point boxes with one outward-rounding rule; pi and arctangent brackets.

The certified layers carry a box as a tuple of endpoint ints over one
2^prec that the caller keeps track of: (lo, hi) for a real box and (re lo,
re hi, im lo, im hi) for a complex one, lower endpoints at even positions.
Sums, integer scalings and products are exact on the ints (a product of
boxes over 2^p and 2^q is over 2^(p+q)).  The one rounding rule is a right
shift that floors a lower endpoint and ceils an upper one, so a rounded box
contains the exact one.  RealInterval and ComplexInterval are the read-only
views that the public functions return, with canonical Dyadic endpoints.

The transcendental enclosures (pi, arctangent) are produced from alternating
Taylor series evaluated in exact rational arithmetic, so consecutive partial
sums bracket the true value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt


def _normalized(man: int, exp: int):
    if man == 0:
        return 0, 0
    # strip trailing zero bits so representations are canonical
    shift = (man & -man).bit_length() - 1
    return man >> shift, exp + shift


# Dyadic stays whole: perfbench's tracer wraps each name in DYADIC_METHODS; its checks read man, exp.
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


@dataclass(frozen=True)
class RealInterval:
    """Read-only view of a real box: the closed interval [lo, hi] with Dyadic endpoints."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo!r} > {self.hi!r}")

    @staticmethod
    def from_fixed(lo: int, hi: int, prec: int) -> "RealInterval":
        """The interval [lo, hi] * 2^-prec."""
        return RealInterval(Dyadic.make(lo, -prec), Dyadic.make(hi, -prec))

    def fixed(self):
        """((lo, hi), p): the endpoints as ints over 2^p, for the least p >= 0 that keeps them exact."""
        return _fixed((self.lo, self.hi))

    def width(self) -> Dyadic:
        return self.hi - self.lo


@dataclass(frozen=True)
class ComplexInterval:
    """Read-only view of a complex box re + i*im."""

    re: RealInterval
    im: RealInterval

    @staticmethod
    def from_fixed(ends, prec: int) -> "ComplexInterval":
        """The box with endpoints ends = (re lo, re hi, im lo, im hi) * 2^-prec."""
        rl, rh, il, ih = ends
        return ComplexInterval(RealInterval.from_fixed(rl, rh, prec), RealInterval.from_fixed(il, ih, prec))

    def fixed(self):
        """((re lo, re hi, im lo, im hi), p), as RealInterval.fixed."""
        return _fixed((self.re.lo, self.re.hi, self.im.lo, self.im.hi))


def _fixed(ends):
    p = max(0, *(-d.exp for d in ends))
    return tuple(d.man << (d.exp + p) for d in ends), p


# ---------------------------------------------------------------------------
# The box kernel (see the module docstring)
# ---------------------------------------------------------------------------


def squeeze(box, shift: int):
    """The box over 2^p moved to 2^(p - shift): rounded outward by a right shift, exact if shift <= 0."""
    if shift <= 0:
        return tuple(e << -shift for e in box)
    return tuple(-(-e >> shift) if i & 1 else e >> shift for i, e in enumerate(box))


def widen(box, margin: int):
    """The box grown by margin >= 0 on every side."""
    return tuple(e + margin if i & 1 else e - margin for i, e in enumerate(box))


def intersect(x, y):
    """The common part of the real boxes x and y, or None if they are disjoint."""
    lo, hi = max(x[0], y[0]), min(x[1], y[1])
    return None if lo > hi else (lo, hi)


def scale_int(x, n: int):
    """The real box x times the integer n."""
    lo, hi = x[0] * n, x[1] * n
    return (lo, hi) if n >= 0 else (hi, lo)


def real_product(a: int, b: int, c: int, d: int):
    """The exact [a, b] * [c, d]; two endpoint products unless a factor straddles 0.

    A factor with lo >= 0 or hi <= 0 has one sign, so the signs pick the
    endpoints of the min and the max of the four products.
    """
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
    elif b <= 0:
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
    products = (a * c, a * d, b * c, b * d)
    return min(products), max(products)


def box_product(x, y, shift: int = 0):
    """The complex box x * y, its endpoints floored or ceiled by a right shift of shift bits."""
    rl, rh, il, ih = x
    a, b, c, d = y
    pl, ph = real_product(rl, rh, a, b)  # re x * re y
    ql, qh = real_product(il, ih, c, d)  # im x * im y
    ul, uh = real_product(rl, rh, c, d)  # re x * im y
    vl, vh = real_product(il, ih, a, b)  # im x * re y
    return (pl - qh) >> shift, -((ql - ph) >> shift), (ul + vl) >> shift, -((-uh - vh) >> shift)


def gaussian_product(x, g):
    """The complex box x * g, exact, for a Gaussian integer g."""
    p, q = scale_int(x[:2], g.re), scale_int(x[2:], g.im)
    u, v = scale_int(x[:2], g.im), scale_int(x[2:], g.re)
    return p[0] - q[1], p[1] - q[0], u[0] + v[0], u[1] + v[1]


def abs_sq(x):
    """The real box re^2 + im^2 of the complex box x, exact; a part straddling 0 adds [0, max square]."""
    lo = hi = 0
    for a, b in (x[:2], x[2:]):
        if a >= 0:
            lo, hi = lo + a * a, hi + b * b
        elif b <= 0:
            lo, hi = lo + b * b, hi + a * a
        else:
            hi += max(a * a, b * b)
    return lo, hi


def ceil_sqrt(n: int) -> int:
    q = isqrt(n)
    return q + (q * q != n)


def abs_sup(x, p: int, prec: int) -> int:
    """An upper bound over 2^prec on |z| for z in the complex box x over 2^p."""
    return ceil_sqrt(squeeze(abs_sq(x), 2 * (p - prec))[1])  # ceil(sqrt(ceil(y))) = ceil(sqrt(y))


def quotient(x, y, shift: int):
    """The real box x / y times 2^shift, shift >= 0, floored and ceiled, for a real box y > 0."""
    (a, b), (c, d) = x, y
    if c <= 0:
        raise ZeroDivisionError("division by a box that is not positive")
    return (a << shift) // (d if a >= 0 else c), -((-b << shift) // (c if b >= 0 else d))


def box_quotient(x, y, shift: int):
    """The complex box x / y times 2^shift, for complex boxes over one scale, 0 not in y.

    x * conj(y) and |y|^2 are exact; each part of the first is divided by the second.
    """
    rl, rh, il, ih = y
    num, den = box_product(x, (rl, rh, -ih, -il)), abs_sq(y)
    return quotient(num[:2], den, shift) + quotient(num[2:], den, shift)


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

