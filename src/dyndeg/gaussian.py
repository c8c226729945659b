"""Exact arithmetic in Z[i] and the degree combinatorics of plane monomial maps.

The degree of the monomial self-map attached to a Gaussian integer z is the
piecewise-linear support function

    psi(z) = max { Re(g*z) : g in GAMMA0 },   GAMMA0 = (-2, 2i, -2i, 1+2i, 1-2i),

and for an admissible parameter the maximizer is unique at every power, which
is what makes the degree sequence d_j = psi(zeta^j) well behaved.

DegreeCache is the one generator of the exact d_j, stepping the exact
zeta^j.  The gamma cursor (gamma_sequence, and gamma_argmax one index at a
time) is the one generator of the maximizers gamma(j) alone: it carries
zeta^j in a box of bounded width and falls back to the exact power only
where the box cannot decide.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass
from math import isqrt

from .degrees import DegreeSequence
from .errors import AdmissibilityError, DegenerateMatrix
from .powering import binary_power


@dataclass(frozen=True)
class GaussianInt:
    """An element a + b*i of Z[i]; exact at any magnitude."""

    re: int
    im: int

    def __add__(self, other):
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def conj(self):
        return GaussianInt(self.re, -self.im)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    def __pow__(self, n):
        return gi_pow(self, n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        a, b = self.re, self.im
        if b == 0:
            return str(a)
        imag = f"{b}i" if b not in (1, -1) else ("i" if b == 1 else "-i")
        if a == 0:
            return imag
        return f"{a}+{imag}" if b > 0 else f"{a}{imag}"

    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"


# Fixed evaluation order; ties are never broken silently (a tie certifies
# inadmissibility of the parameter).
GAMMA0 = (
    GaussianInt(-2, 0),
    GaussianInt(0, 2),
    GaussianInt(0, -2),
    GaussianInt(1, 2),
    GaussianInt(1, -2),
)


def gi_pow(z: GaussianInt, n: int) -> GaussianInt:
    """Exact nth power, n >= 0."""
    return binary_power(z, n, GaussianInt(1, 0))


def _support_argmax(re: int, im: int):
    """(index k in GAMMA0 of the first maximizer of Re(gamma*z), tie flag) for z = re + im*i.

    Re(gamma*z) over GAMMA0 is (-2re, -2im, 2im, re - 2im, re + 2im).  For
    re > 0, re + 2|im| is the largest, at k = 4 or 3 by the sign of im and
    at both when im = 0.  For re = 0, 2|im| is attained twice.  For re < 0
    only -2re and 2|im| (k = 0 and k = 2 or 1) can be largest, so the sign
    of |im| - |re| decides.  One addition of z's size at most; no products.
    """
    if re > 0:
        return (4 if im > 0 else 3), im == 0
    if re == 0:
        return (2 if im > 0 else 1 if im < 0 else 0), True
    c = re + im if im > 0 else re - im  # |im| - |re|
    if c > 0:
        return (2 if im > 0 else 1), False
    return 0, c == 0


class DegreeCache:
    """Exact d_j = psi(zeta^j) and the maximizers gamma(j), extended on demand.

    After extend_to(n), values[j-1] is d_j and gammas[j-1] is gamma(j) for
    j <= n.  This is the one generator of the exact d_j, for d_sequence and
    the solver; a reader of the maximizers alone takes gamma_sequence, whose
    cost per index does not grow with j.
    """

    def __init__(self, zeta: GaussianInt):
        self.zeta = zeta
        self.values = []
        self.gammas = []
        self._power = (1, 0)  # zeta^len(values) as (re, im)

    def extend_to(self, n: int) -> "DegreeCache":
        a, b = self.zeta.re, self.zeta.im
        re, im = self._power
        values, gammas = self.values, self.gammas
        while len(values) < n:
            re, im = re * a - im * b, re * b + im * a
            k, tie = _support_argmax(re, im)
            if tie:
                raise AdmissibilityError(f"argmax tie at zeta={self.zeta}, j={len(values) + 1}")
            g = GAMMA0[k]
            values.append(g.re * re - g.im * im)
            gammas.append(g)
            self._power = (re, im)
        return self


def psi(z: GaussianInt) -> int:
    """max Re(gamma*z) over GAMMA0; the degree of the monomial map of z. 0 iff z = 0."""
    g = GAMMA0[_support_argmax(z.re, z.im)[0]]
    return g.re * z.re - g.im * z.im


def is_admissible(zeta: GaussianInt) -> bool:
    """True iff no positive power of zeta is real.

    Equivalent to zeta not being an integer multiple of 1, i, or 1 +- i,
    which is the finite test applied here.
    """
    return inadmissibility_reason(zeta) is None


def inadmissibility_reason(zeta: GaussianInt):
    """None if admissible, else a human-readable name of the violated criterion."""
    a, b = zeta.re, zeta.im
    if b == 0:
        return "integer multiple of 1 (real)"
    if a == 0:
        return "integer multiple of i"
    if a == b:
        return "integer multiple of 1+i"
    if a == -b:
        return "integer multiple of 1-i"
    return None


def _require_admissible(zeta: GaussianInt):
    reason = inadmissibility_reason(zeta)
    if reason is not None:
        raise AdmissibilityError(f"zeta={zeta} is inadmissible: {reason}")


# Bits that the gamma cursor's mantissas carry beyond those of zeta.
_CURSOR_BITS = 128


def gamma_sequence(zeta: GaussianInt, n: int) -> list:
    """[gamma(1), ..., gamma(n)] by the gamma cursor, without the exact zeta^j.

    The cursor carries zeta^j as a box of integers (R, I, E, s) with
    |zeta^j - (R + I*i) 2^s| <= E 2^s; no decision reads the shift s.
    A step multiplies R + I*i by zeta exactly, which multiplies the error by
    |zeta|, so E becomes |zeta| E, rounded up with |zeta| rounded up at
    2^-64.  When the larger mantissa then has t > 0 bits beyond the width w,
    both are floored by t bits.  That moves R + I*i by under sqrt(2) < 2
    units of the new scale 2^(s + t), so the new bound is
    ceil(|zeta| E / 2^t) + 2.  The mantissas keep w bits, so E / |R + I*i|
    grows by at most 3 / 2^(w - 1) a step: the error stays below about
    6 j 2^-w |zeta^j|.

    _support_argmax reads three signs only: of re, of im and, when re < 0,
    of |im| - |re|.  The errors in re and in im are at most E each, and the
    error in |im| - |re| is at most sqrt(2) E.  So the box decides sign(re)
    when |R| > E, sign(im) when |I| > E and sign(|im| - |re|) when
    ||I| - |R|| > 2E.  (With re < 0, a decided |im| - |re| > 0 gives
    |I| > 3E, so sign(im) is decided too.)  A step whose box leaves a needed
    sign undecided forms the exact zeta^j with gi_pow, decides from it and
    restarts the box from it.  The exact power always decides: a zero sign
    puts zeta^j on an axis or a diagonal, so zeta^(4j) would be real, which
    admissibility excludes.  The route multiplies in Z[i] and never reads
    Arg(zeta), so it stays independent of the octant route.

    A sign goes undecided only when zeta^j lies within about 6 j 2^-w of an
    axis or a diagonal.  Arg(zeta) can lie as close to one as
    1 / (sqrt(2) |zeta|), and zeta^j for small j lies about j times that
    off it, so w is _CURSOR_BITS plus the bit length of zeta's larger part.

    The cursor is the one generator of the maximizers alone; DegreeCache is
    the one generator of the exact d_j.  The list is allocated whole before
    the first step, so a window too large for memory fails at once.
    """
    _require_admissible(zeta)
    gammas = [None] * n
    _cursor_fill(zeta, 0, (1, 0, 0, 0), _abs_up(zeta), _width(zeta), gammas)
    return gammas


def _width(zeta: GaussianInt) -> int:
    """The cursor's mantissa width for zeta, in bits; see gamma_sequence."""
    return _CURSOR_BITS + max(abs(zeta.re), abs(zeta.im)).bit_length()


def _abs_up(zeta: GaussianInt) -> int:
    """|zeta| rounded up, over 2^64."""
    return isqrt((zeta.norm_sq() << 128) - 1) + 1


def _exact_box(zeta: GaussianInt, j: int, w: int):
    """(k, box of zeta^j with mantissas of w bits) with gamma(j) = GAMMA0[k], from the exact power."""
    power = gi_pow(zeta, j)
    re, im = power.re, power.im
    k, tie = _support_argmax(re, im)
    if tie:
        raise AdmissibilityError(f"argmax tie at zeta={zeta}, j={j}; zeta cannot be admissible")
    t = max((abs(re) | abs(im)).bit_length() - w, 0)
    return k, (re >> t, im >> t, 2 if t else 0, t)


def _cursor_fill(zeta: GaussianInt, j: int, box, zn: int, w: int, out: list):
    """Store gamma(j + 1), gamma(j + 2), ... in out from the box of zeta^j; return the box of the last power.

    zn is _abs_up(zeta) and w the mantissa width.  The steps are gamma_sequence's.
    """
    a, b = zeta.re, zeta.im
    R, I, E, s = box
    for i in range(len(out)):
        R, I = R * a - I * b, R * b + I * a
        t = (abs(R) | abs(I)).bit_length() - w
        if t > 0:
            R, I, E, s = R >> t, I >> t, 2 - (-zn * E >> (64 + t)), s + t
        else:
            E = -(-zn * E >> 64)
        if R > E:
            k = 4 if I > E else 3 if I < -E else None
        elif R < -E:
            c = (I if I > 0 else -I) + R  # |I| - |R|
            k = (2 if I > 0 else 1) if c > 2 * E else 0 if c < -2 * E else None
        else:
            k = None
        if k is None:
            k, (R, I, E, s) = _exact_box(zeta, j + i + 1, w)
        out[i] = GAMMA0[k]
    return R, I, E, s


# (zeta, j, box of zeta^j, _abs_up(zeta), mantissa width) left by the last
# gamma_argmax call.  It is read once and replaced whole, so callers that
# interleave (or threads) can only cost each other a fresh powering, never
# change an answer.
_cursor = (None, 0, None, 0, 0)


def gamma_argmax(zeta: GaussianInt, j: int) -> GaussianInt:
    """The unique element of GAMMA0 maximizing Re(gamma * zeta^j).

    A call with the zeta of the previous call and j + 1 takes one step of
    the gamma cursor (see gamma_sequence) from that call's box, so a sweep
    over j costs a bounded-width multiply per call; any other call powers
    exactly from scratch and starts a box there.  The last box stays in a
    module slot after the call returns, until the next call replaces it.
    """
    global _cursor
    if j < 1:
        raise ValueError("j must be >= 1")
    z0, j0, box, zn, w = _cursor
    if j == j0 + 1 and (z0 is zeta or z0 == zeta):  # the slot holds admissible zetas only
        out = [None]
        box = _cursor_fill(zeta, j0, box, zn, w, out)
        gamma = out[0]
    else:
        _require_admissible(zeta)
        zn, w = _abs_up(zeta), _width(zeta)
        k, box = _exact_box(zeta, j, w)
        gamma = GAMMA0[k]
    _cursor = (zeta, j, box, zn, w)
    return gamma


@dataclass(frozen=True)
class IntMatrix2x2:
    """2x2 integer matrix; exponent data of a plane monomial map."""

    a11: int
    a12: int
    a21: int
    a22: int

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __mul__(self, other):
        return IntMatrix2x2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __pow__(self, n):
        return binary_power(self, n, IntMatrix2x2(1, 0, 0, 1))

    @classmethod
    def from_zeta(cls, zeta: GaussianInt):
        """Multiplication by zeta on R^2 ~ C."""
        return cls(zeta.re, -zeta.im, zeta.im, zeta.re)


def monomial_degree(mat: IntMatrix2x2) -> int:
    """Degree of the plane monomial map with exponent matrix ``mat``.

    First term clears the chart denominator; the other two clear the negative
    exponents of each affine variable, whose occurrences sit in the columns.
    """
    if mat.det() == 0:
        raise DegenerateMatrix(f"matrix {mat} has zero determinant")
    return (
        max(0, mat.a11 + mat.a12, mat.a21 + mat.a22)
        + max(0, -mat.a11, -mat.a21)
        + max(0, -mat.a12, -mat.a22)
    )


def d_sequence(zeta: GaussianInt, N: int) -> DegreeSequence:
    """(d_1, ..., d_N) with d_j = psi(zeta^j), plus the maximizing gamma per index."""
    if N < 0:
        raise ValueError("N must be >= 0")
    _require_admissible(zeta)
    cache = DegreeCache(zeta).extend_to(N)
    return DegreeSequence(
        values=tuple(cache.values), start_index=1, origin="monomial_d", gammas=tuple(cache.gammas)
    )


_GAUSS_RE = _regex.compile(
    r"""^\s*
        (?:
          (?P<re>[+-]?\d+)\s*(?P<impart>[+-]\s*(?:\d+)?\s*i)?   # a, a+bi, a-bi
          |
          (?P<imonly>[+-]?\s*(?:\d+)?\s*i)                      # bi, i, -i
        )
        \s*$""",
    _regex.VERBOSE,
)


def parse_gaussian(text: str) -> GaussianInt:
    """Parse 'a+bi', 'a-bi', 'a', 'bi' (optional whitespace); reject anything else."""
    m = _GAUSS_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse Gaussian integer from {text!r}")

    def _im_value(chunk):
        chunk = chunk.replace(" ", "").replace("\t", "")
        body = chunk[:-1]  # strip trailing 'i'
        if body in ("", "+"):
            return 1
        if body == "-":
            return -1
        return int(body)

    if m.group("imonly") is not None:
        return GaussianInt(0, _im_value(m.group("imonly")))
    re_part = int(m.group("re"))
    im_part = _im_value(m.group("impart")) if m.group("impart") else 0
    return GaussianInt(re_part, im_part)
