"""Exact arithmetic in Z[i] and the degree combinatorics of plane monomial maps.

The degree of the monomial self-map attached to a Gaussian integer z is the
piecewise-linear support function

    psi(z) = max { Re(g*z) : g in GAMMA0 },   GAMMA0 = (-2, 2i, -2i, 1+2i, 1-2i),

and for an admissible parameter the maximizer is unique at every power, which
is what makes the degree sequence d_j = psi(zeta^j) well behaved.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass

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
    j <= n.  This is the one generator of the degree sequence.
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


# (zeta, j, re, im) with zeta^j = re + im*i, left by the last gamma_argmax call.
# It is read once and replaced whole, so callers that interleave (or threads)
# can only cost each other a fresh powering, never change an answer.
_cursor = (None, 0, 1, 0)


def gamma_argmax(zeta: GaussianInt, j: int) -> GaussianInt:
    """The unique element of GAMMA0 maximizing Re(gamma * zeta^j).

    A call with the zeta of the previous call and j + 1 steps that call's
    power by one small-times-big multiply, so a sweep over j costs one
    multiply per call; any other call powers from scratch. The last power
    stays in a module slot after the call returns, until the next call
    replaces it.
    """
    global _cursor
    if j < 1:
        raise ValueError("j must be >= 1")
    _require_admissible(zeta)
    a, b = zeta.re, zeta.im
    z0, j0, re, im = _cursor
    if z0 == zeta and j == j0 + 1:
        re, im = re * a - im * b, re * b + im * a
    else:
        power = gi_pow(zeta, j)
        re, im = power.re, power.im
    _cursor = (zeta, j, re, im)
    k, tie = _support_argmax(re, im)
    if tie:
        raise AdmissibilityError(
            f"argmax tie at zeta={zeta}, j={j}; zeta cannot be admissible"
        )
    return GAMMA0[k]


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
