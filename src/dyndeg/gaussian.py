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


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)

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
    """Exact nth power, n >= 0, by binary squaring."""
    if n < 0:
        raise ValueError("negative exponent")
    result = ONE
    base = z
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _support_argmax(z: GaussianInt):
    """(best gamma, max Re(gamma*z), tie flag) over GAMMA0, exact."""
    best = None
    best_val = None
    tie = False
    for g in GAMMA0:
        val = g.re * z.re - g.im * z.im
        if best_val is None or val > best_val:
            best, best_val, tie = g, val, False
        elif val == best_val:
            tie = True
    return best, best_val, tie


class DegreeCache:
    """Exact d_j = psi(zeta^j) and the maximizers gamma(j), extended on demand.

    After extend_to(n), values[j-1] is d_j and gammas[j-1] is gamma(j) for
    j <= n.  This is the one generator of the degree sequence.
    """

    def __init__(self, zeta: GaussianInt):
        self.zeta = zeta
        self.values = []
        self.gammas = []
        self._power = ONE

    def extend_to(self, n: int) -> "DegreeCache":
        while len(self.values) < n:
            self._power = self._power * self.zeta
            g, val, tie = _support_argmax(self._power)
            if tie:
                raise AdmissibilityError(f"argmax tie at zeta={self.zeta}, j={len(self.values) + 1}")
            self.values.append(val)
            self.gammas.append(g)
        return self


def psi(z: GaussianInt) -> int:
    """max Re(gamma*z) over GAMMA0; the degree of the monomial map of z. 0 iff z = 0."""
    return _support_argmax(z)[1]


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


def gamma_argmax(zeta: GaussianInt, j: int) -> GaussianInt:
    """The unique element of GAMMA0 maximizing Re(gamma * zeta^j)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    _require_admissible(zeta)
    g, _, tie = _support_argmax(gi_pow(zeta, j))
    if tie:
        raise AdmissibilityError(
            f"argmax tie at zeta={zeta}, j={j}; zeta cannot be admissible"
        )
    return g


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
        if n < 0:
            raise ValueError("negative exponent")
        result = IntMatrix2x2(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
    if N < 1:
        raise ValueError("N must be >= 1")
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
