"""Certified enclosure of the dynamical degree and the associated series data.

The dynamical degree of the composed map is the unique positive solution of

    sum_{j>=1} d_j * lambda^{-j} = 1,

where d_j is the exact degree sequence of the monomial factor.  Solving happens
in the substituted variable t = 1/lambda on (0, 1/|zeta|), where the series is
strictly increasing.  Bisection keeps a bracket t_lo < t_hi: at t_hi the
partial sum rounded down is > 1, at t_lo the partial sum rounded up plus a
certified geometric tail bound is < 1, so the root lies strictly inside.

Integer kernel.  Both directed partial sums run on plain Python ints.  A
point is t = m * 2^-s.  Each Horner value c_j = d_j + t c_(j+1) is kept on
its own term's grid, multiples of 2^g_j with g_j = bits(d_j) - prec - _GUARD,
and the sum t c_1 on g_0 = -prec; one step shifts c_j * m right by
s + g_(j-1) - g_j onto the next grid.  So a step multiplies about
prec + _GUARD bits by the point, where a fixed 2^-prec grid would carry
bits(d_j) + prec.  The lower sum floors d_j and every product onto its grid
and the upper ceils them, so each stays a bound in its own direction.  A grid
unit is at most 2 d_j 2^(-prec - _GUARD), so each side is within
1 + 4 S_N(t) 2^-_GUARD units of 2^-prec of the exact S_N(t).  A fixed 2^-prec
grid loses a unit per step, carried forward by t^(j-1): (1 - t^N) / (1 - t)
units, about 1 / (1 - t).  Near the root, where the decisions are close,
S_N(t) is about 1, so the per-term grids are within 1 + 2^-30 units against
more than 1 + t: tighter for every t > 2^-30, that is for |zeta| up to about
2^28.  The tail bound raises |zeta| t to the power N + 1 by binary powering,
every product rounded up.

Deciding a midpoint.  For each series length N and precision, Newton's method
in uncertified fixed point finds the root r_N of the partial sum, and the
kernels certify two points around it: upper < 1 at lo < r_N and lower > 1 at
hi > r_N.  A side that does not certify near Newton's first root is tried
again after further full-precision Newton steps, so both sides certify at
every N (a side left uncertified would send every later midpoint on its side
to the kernels).  A midpoint at or beyond hi, or at or below lo, is decided by that
certified bracket; only a midpoint inside (lo, hi) is evaluated.  Either way
the bisection takes the step evaluation would take (see _solve_at_precision),
so the enclosure is the one a full evaluation of every midpoint returns.

Placing the root.  Newton climbs a precision ladder, q, q/2, q/4, ...,
one step per rung above the lowest.  At the first N it starts from the
bisection's upper point; after a term doubling it restarts from the last
bracket's root, which lies above r_N and is already accurate to about the
tail bound at the doubling, so only the rungs above that accuracy run.  A
step at p bits keeps each Horner value on its own term's grid,
2^(bits(d_j) - p - _GUARD), so it multiplies numbers of about p + _GUARD
bits rather than bits(d_j) + p.  None of this touches a certified value.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError
from .gaussian import DegreeCache, GaussianInt, _require_admissible, gamma_sequence
from .intervals import (
    ComplexInterval,
    Dyadic,
    RealInterval,
    abs_sq,
    abs_sup,
    box_product,
    ceil_sqrt,
    gaussian_product,
    quotient,
    squeeze,
    widen,
)
from .powering import binary_power

DEFAULT_PRECISION_CAP = 1 << 16
_TERM_CAP = 1 << 20
_START_TERMS = 32  # series terms of the first bisection; doubled while undecided
_GUARD = 32  # fractional bits of the certified bracket points beyond the working precision
_WIDEN = 4  # tries per side of a certified bracket at one root, each doubling the offset
_NEWTON_STEPS = 200  # cap on the low-precision Newton steps that locate a root
_LAMBDA_CAP_MESSAGE = "needed more than {cap} fractional bits (cap; see DYNDEG_PRECISION_CAP)"


def precision_cap() -> int:
    """Hard ceiling on working precision bits; DYNDEG_PRECISION_CAP overrides."""
    raw = os.environ.get("DYNDEG_PRECISION_CAP")
    if raw is None:
        return DEFAULT_PRECISION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 16:
        raise ValueError("DYNDEG_PRECISION_CAP must be an integer >= 16")
    return cap


def precision_ladder(start: int, attempt, args: tuple, message: str):
    """The first non-None attempt(bits, args) for bits = start, 2*start, ... up to the cap.

    Past the cap raises PrecisionError(message.format(cap=cap, args=args)),
    formatted only then.  The attempt is a module-level function and args a
    tuple, so a call builds no closure: octant_gamma enters the ladder for
    every index of a sweep that its context's own precision leaves undecided.
    """
    cap = precision_cap()
    bits = start
    while bits <= cap:
        result = attempt(bits, args)
        if result is not None:
            return result
        bits *= 2
    raise PrecisionError(message.format(cap=cap, args=args))


@dataclass(frozen=True)
class LambdaEnclosure:
    """Certified bracket of the dynamical degree, with solver provenance."""

    zeta: GaussianInt
    interval: RealInterval
    n_terms: int
    precision_bits: int

    @property
    def lo(self) -> Dyadic:
        return self.interval.lo

    @property
    def hi(self) -> Dyadic:
        return self.interval.hi

    def width(self) -> Fraction:
        return self.interval.width().to_fraction()

    def to_json_obj(self, digits: int = 30):
        return {
            "zeta": str(self.zeta),
            "lambda_lo": self.lo.decimal_str(digits, "floor"),
            "lambda_hi": self.hi.decimal_str(digits, "ceil"),
            "width": _fraction_decimal(self.width(), digits),
            "N_used": str(self.n_terms),
            "precision_bits": str(self.precision_bits),
        }

    def to_json_text(self, digits: int = 30) -> str:
        return json.dumps(self.to_json_obj(digits), sort_keys=True)


def _fraction_decimal(fr: Fraction, digits: int) -> str:
    scaled = -((-fr.numerator * 10**digits) // fr.denominator)  # ceil, width is upper bound
    return f"{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


def _as_width_fraction(target_width) -> Fraction:
    w = target_width.to_fraction() if isinstance(target_width, Dyadic) else Fraction(target_width)
    if w <= 0:
        raise ValueError("target width must be positive")
    return w


def _horner_floor(table, m: int, s: int, min_step: int) -> int:
    """floor-rounded Horner pass of a _PartialSums table at t = m * 2^-s, over 2^prec.

    table holds (D_j, step_j) for j = 1..N, D_j on the grid 2^g_j and
    step_j = g_(j-1) - g_j with g_0 = -prec; min_step is the least step_j.
    Each step adds D_j to the running value and floors its product with t
    onto the next term's grid, a right shift by s + step_j.  Where that
    shift would be negative (bits(d_j) - bits(d_(j-1)) > s, so only for
    |zeta| near 2^s or above) the point is first lifted to m * 2^L over
    2^(s+L), the same t: those shifts become exact and the others are
    unchanged.
    """
    if s + min_step < 0:
        m, s = m << -(s + min_step), -min_step
    acc = 0
    for d, step in reversed(table):
        acc = ((acc + d) * m) >> (s + step)
    return acc


def _tail_upper(abs_hi: int, sqrt5_hi: int, m: int, s: int, n_terms: int, prec: int):
    """Upper bound over 2^prec on sum_{j>N} d_j t^j, t = m * 2^-s; None if divergent.

    Uses d_j <= sqrt(5)|zeta|^j; abs_hi and sqrt5_hi are |zeta| and sqrt(5)
    rounded up, over 2^prec.  x = |zeta| t is rounded up, and x^(N+1) comes
    from binary_power with every product rounded up, popcount(N+1) +
    bit_length(N+1) - 1 products.
    """
    one = 1 << prec
    x = -((-abs_hi * m) >> s)
    if x >= one:
        return None
    xp = binary_power(x, n_terms + 1, one, lambda u, v: -((-u * v) >> prec))
    return -((-sqrt5_hi * xp) // (one - x))


class _PartialSums:
    """The two directed partial sums of the first n_terms d_j at one precision.

    Each Horner value c_j = d_j + t c_(j+1) is kept on its own term's grid,
    multiples of 2^g_j with g_j = bits(d_j) - prec - _GUARD, and the last
    product, t c_1, lands on g_0 = -prec.  floors holds d_j floored onto
    its grid and ceils the negated ceiling, each with the shift to the next
    term's grid, and _horner_floor floors every step: on floors that is the
    lower sum, and on ceils it is minus the upper sum (floor(-x) = -ceil(x)),
    so each side rounds only its own way and stays certified.  A grid
    unit is at most 2 d_j 2^(-prec - _GUARD), and term j's two roundings
    (of d_j and of t c_(j+1)) reach the sum times t^j and t^(j-1), so each
    side is within 1 + 4 S_N(t) 2^-_GUARD units of 2^-prec of S_N(t):
    upper - tail - lower < 2 + 8 S_N(t) 2^-_GUARD units.  resize extends
    both tables in place; a term's entry depends only on it and the term
    before, so the table at 2N is the table at N followed by the new terms.

    tail is the tail bound of the last upper call, and root the root that
    the last certified bracket was placed around, where Newton restarts
    after a term doubling.
    """

    def __init__(self, cache: DegreeCache, prec: int):
        self.cache = cache
        self.prec = prec
        self.one = 1 << prec
        self.abs_hi = ceil_sqrt(cache.zeta.norm_sq() << (2 * prec))
        self.sqrt5_hi = ceil_sqrt(5 << (2 * prec))
        self.root = None  # root of the last certified bracket, over 2^(prec + _GUARD)
        self.n_terms = 0
        self.floors, self.ceils = [], []
        self.min_step = 0
        self.grid = -prec  # g_N, the grid of the last term in the tables

    def resize(self, n_terms: int):
        """Extend both tables to the first n_terms d_j; n_terms only grows."""
        values = self.cache.extend_to(n_terms).values
        width = self.prec + _GUARD
        add_floor, add_neg_ceil = self.floors.append, self.ceils.append
        g, min_step = self.grid, self.min_step
        for d in values[self.n_terms : n_terms]:
            e = d.bit_length() - width
            step = g - e
            if step < min_step:
                min_step = step
            if e > 0:
                add_floor((d >> e, step))
                add_neg_ceil((-d >> e, step))
            else:  # d_j fits its grid exactly
                x = d << -e
                add_floor((x, step))
                add_neg_ceil((-x, step))
            g = e
        self.grid, self.min_step = g, min_step
        self.n_terms = n_terms
        self.ds = values[n_terms - 1 :: -1]  # d_N first, for Newton

    def lower(self, m: int, s: int) -> int:
        return _horner_floor(self.floors, m, s, self.min_step)

    def upper(self, m: int, s: int):
        """Upper partial sum plus the tail bound, kept as self.tail; None if divergent."""
        self.tail = tail = _tail_upper(self.abs_hi, self.sqrt5_hi, m, s, self.n_terms, self.prec)
        if tail is None:
            return None
        return tail - _horner_floor(self.ceils, m, s, self.min_step)


def _newton_step(ds, r: int, p: int):
    """(Newton correction, slope) of S(t) = sum d_j t^j = 1 at t = r * 2^-p, both over 2^p.

    Rung-sized: the Horner value c_j = d_j + t c_(j+1) and its derivative in t
    are kept on the grid of their own term, multiples of
    2^(bits(d_j) - p - _GUARD), and shifted onto the next term's grid after
    each product; so a step multiplies numbers of about p + _GUARD bits by
    p-bit ones, however large d_j is.  Every rounding is a floor and
    2^(bits(d_j) - p - _GUARD) <= 2 d_j 2^(-p - _GUARD), so the sum comes out
    below S(t) by less than 1 + 4 S(t) 2^-_GUARD units of 2^-p and the slope
    below S'(t) by a relative 2^-p + 6 * 2^(-p - _GUARD) (S' >= d_1 >= 1).
    Wherever S(t) <= 2 the correction is therefore within 4 units of 2^-p of
    the exact (S(t) - 1) / S'(t).
    """
    width = p + _GUARD
    c = slope = 0
    e = ds[0].bit_length() - width  # grid exponent of c and slope, the previous term's
    for d in ds:
        g = d.bit_length() - width
        k = p + g - e  # c * r is on the grid 2^(e - p); k more bits make it 2^g
        if k < 0:  # d_j / d_(j+1) below 2^-p, only for |zeta| near 2^p
            c, slope, k = c << -k, slope << -k, 0
        c = ((c * r) >> k) + (d >> g if g >= 0 else d << -g)
        slope = ((slope * r) >> k) + c
        e = g
    acc = (c * r) << e if e >= 0 else (c * r) >> -e  # S(t) over 2^p
    slope = slope << (e + p) if e + p >= 0 else slope >> -(e + p)
    return ((acc - (1 << p)) << p) // slope, slope


def _newton_root(ds, r: int, q: int, known: int):
    """Root of sum d_j t^j = 1 over 2^q, and the slope near it, from r * 2^-q above it.

    Not certified: it only places the bracket points.  r is within about
    2^-known of the root (known = 0 when it is far off).  The ladder is q,
    q/2, q/4, ..., down to the lowest rung of at least 64 bits, and runs only
    the rungs that one step from known bits does not already fill: Newton
    runs at the lowest of them until a step is below 2^-40 of the root, then
    takes one step per rung above it.  From a start near the root that is
    one step at q alone.  A rung's root can miss some of the rung's low
    bits, and a step doubles the miss along with the correct bits, so the
    root returned can be tens of bits short of q: off by about 2^34 units of
    2^-q for -42+13i at N = 512 and q = 579 when the ladder starts from
    afar.  _certified_bracket takes further steps at q when a bracket side
    needs them.
    """
    ladder = [q]
    while ladder[-1] >= 128 and (ladder[-1] + 1) // 2 > known:
        ladder.append((ladder[-1] + 1) // 2)
    p = ladder.pop()
    r >>= q - p
    for _ in range(_NEWTON_STEPS):
        step, slope = _newton_step(ds, r, p)
        r -= step
        if abs(step) <= max(1, r >> 40):
            break
    while ladder:
        r <<= ladder[-1] - p
        p = ladder.pop()
        step, slope = _newton_step(ds, r, p)
        r -= step
    return r, slope


def _certified_bracket(sums: _PartialSums, m: int, s: int, q: int):
    """(lo, hi) over 2^q with upper(lo) < 1 < lower(hi) at sums' N and precision.

    Newton finds the root of the partial sum, r_N.  At the first term count
    it starts from m * 2^-s, s <= q, which must lie above r_N, and runs the
    whole ladder.  After a term doubling it restarts from sums.root, the root of
    the last bracket: more positive terms lower the root, so that one lies
    above r_N (Newton on the convex, increasing partial sum then descends
    monotonically), by at most the tail bound where the terms doubled
    (sums.tail, from the undecided midpoint's upper call) over the slope,
    which exceeds 1.  So it has about prec - bits(tail) correct bits, and
    the ladder runs only the rungs above those, often just q.

    hi sits a few units of 2^-prec (divided by the slope) above the root, lo
    below it by the tail bound at the root over the slope.  _newton_root can
    return a root far enough off r_N that every try of one side lands on the
    wrong side of r_N; so while a side fails, a Newton step at q with a
    fresh slope moves the root and both sides are tried again.  A point
    certified at an earlier root stays valid, but the new root's is nearer
    r_N and leaves fewer midpoints between lo and hi to evaluate (ten fewer
    at N = 8192 for 1+2i at 3000 digits).  Once a step is no larger than
    one unit the root is as close as the offsets can resolve, and a side
    that still fails is None.  The last root is kept as sums.root.
    """
    if sums.root is None:
        start, known = m << (q - s), 0
    else:
        start, known = sums.root, sums.prec - sums.tail.bit_length()
    root, slope = _newton_root(sums.ds, start, q, known)
    lo = hi = None
    while True:
        unit = (1 << (2 * q - sums.prec)) // slope + 1  # 2^-prec / slope, over 2^q
        hi = _certified_above(sums, root, unit, q) or hi  # points are positive
        lo = _certified_below(sums, root, unit, q) or lo
        if lo is not None and hi is not None:
            break
        step, slope = _newton_step(sums.ds, root, q)
        root -= step
        if abs(step) <= unit:
            break
    sums.root = root
    return lo, hi


def _certified_above(sums: _PartialSums, root: int, unit: int, q: int):
    """The first root + 4 * unit * 2^k, k < _WIDEN, with lower > 1 there; None if none."""
    for k in range(_WIDEN):
        point = root + (4 * unit << k)
        if sums.lower(point, q) > sums.one:
            return point
    return None


def _certified_below(sums: _PartialSums, root: int, unit: int, q: int):
    """The first root - offset * 2^k, k < _WIDEN, with upper < 1 there; None if none.

    The offset is 5/4 (tail + 4) units, tail the tail bound at root over 2^prec.
    """
    tail = _tail_upper(sums.abs_hi, sums.sqrt5_hi, root, q, sums.n_terms, sums.prec)
    if tail is None:
        return None
    offset = (5 * (tail + 4) * unit) >> 2
    for k in range(_WIDEN):
        point = root - (offset << k)
        if point <= 0:
            return None
        up = sums.upper(point, q)
        if up is not None and up < sums.one:
            return point
    return None


def solve_lambda(zeta: GaussianInt, target_width) -> LambdaEnclosure:
    """Certified interval of width <= target_width around the dynamical degree.

    The returned bracket [lo, hi] satisfies: the partial sum plus tail bound is
    certified < 1 at t = 1/hi and the partial sum alone is certified > 1 at
    t = 1/lo, so the unique root lies strictly inside.  Also certifies
    lo > |zeta|.
    """
    _require_admissible(zeta)
    width_goal = _as_width_fraction(target_width)
    return precision_ladder(
        max(64, _bits_of(width_goal) + 48),  # resolves the goal on the t side, plus headroom
        _solve_at_precision,
        (zeta, DegreeCache(zeta), width_goal),
        _LAMBDA_CAP_MESSAGE,
    )


def digits_goal(zeta: GaussianInt, digits: int) -> Fraction:
    """The width goal 10^-digits, after the refusals solve_lambda would give it.

    An inadmissible zeta is refused first.  Then the cap is checked before
    10^digits is built: digits * 3321928094 // 10^9 + 1 is at most
    bit_length(10^digits) = floor(digits * log2 10) + 1, so the refusal fires
    only where the ladder's first rung already exceeds the cap, with the
    ladder's message.
    """
    _require_admissible(zeta)
    cap = precision_cap()
    if digits * 3321928094 // 10**9 + 1 + 48 > cap:
        raise PrecisionError(_LAMBDA_CAP_MESSAGE.format(cap=cap))
    return Fraction(1, 10**digits)


def _solve_at_precision(prec, args):
    """Bisection in t at fixed precision, args = (zeta, cache, width goal); None if it cannot finish.

    The bracket is t_lo = a * 2^-s < t_hi = b * 2^-s, and a midpoint is
    (a + b) * 2^-(s+1), exact.  A midpoint goes to t_hi if lower > 1 there, to
    t_lo if upper < 1, and otherwise doubles the number of terms, unless the
    last doubling, at the same midpoint, left the tail bound no smaller: the
    bound is rounded up on the 2^-prec grid, so past some N it stops
    shrinking, and doubling on would only exhaust memory (at 88 bits for
    10^20 + 7i, 5 units from N = 128 on); None then sends the solve to the
    next precision.  The
    certified points lo < hi of _certified_bracket decide midpoints outside
    (lo, hi) without evaluating: at fixed N and precision both kernels are
    monotone in t (each rounding step is monotone in acc and t, and so is the
    tail bound) and lower <= upper, so a midpoint >= hi has lower >= lower(hi) > 1
    and one <= lo has lower <= upper <= upper(lo) < 1.  Only midpoints inside
    (lo, hi) are evaluated, and every decision is the one evaluating would give.
    So where Newton puts lo and hi changes only how many midpoints are
    evaluated, never the path, N or the enclosure.  A term doubling changes
    the kernels, so it voids the certified points; Newton restarts from the
    root they were placed around.
    """
    zeta, cache, width_goal = args
    norm = zeta.norm_sq()
    sums = _PartialSums(cache, prec)
    one = sums.one
    q = prec + _GUARD

    b = (1023 << (2 * prec - 10)) // sums.abs_hi  # (1 - 2^-10) / |zeta|, rounded down
    a = b >> 10
    s = prec

    n_terms = _START_TERMS
    sums.resize(n_terms)

    # establish the initial bracket: strictly below 1 at t_lo, strictly above at t_hi
    guard = 0
    while True:
        up = sums.upper(a, s)
        if up is not None and up < one:
            break
        n_terms *= 2
        guard += 1
        if n_terms > _TERM_CAP or guard > 24:
            return None
        sums.resize(n_terms)
    while sums.lower(b, s) <= one:
        n_terms *= 2
        if n_terms > _TERM_CAP:
            return None
        sums.resize(n_terms)

    goal_num, goal_den = width_goal.numerator, width_goal.denominator
    certified = None
    doubled_at = None  # tail bound where the terms last doubled; reset when the bisection moves
    while _wider_than_goal(a, b, s, goal_num, goal_den):
        mid = a + b  # over 2^(s+1)
        if certified is None:
            certified = _certified_bracket(sums, b, s, q)
        lo, hi = certified
        if hi is not None and mid << q >= hi << (s + 1):
            to_hi = True
        elif lo is not None and mid << q <= lo << (s + 1):
            to_hi = False
        elif sums.lower(mid, s + 1) > one:
            to_hi = True
        elif (up := sums.upper(mid, s + 1)) is not None and up < one:
            to_hi = False
        else:
            # tail too fat to decide at this midpoint: sharpen the series,
            # unless the last doubling left its tail bound no smaller there
            # (the bound is rounded up at this precision; only more mends it)
            if doubled_at is not None and sums.tail >= doubled_at:
                return None
            doubled_at = sums.tail
            n_terms *= 2
            if n_terms > _TERM_CAP:
                return None
            sums.resize(n_terms)
            certified = None
            continue
        if to_hi:
            a, b = a << 1, mid
        else:
            a, b = mid, b << 1
        s += 1
        doubled_at = None

    out_prec = max(prec, _bits_of(width_goal) + 8)
    lam_lo, lam_hi = quotient((1, 1), (a, b), s + out_prec)  # 1 / [t_lo, t_hi] over 2^out_prec
    if (lam_hi - lam_lo) * goal_den > goal_num << out_prec:
        return None
    # post-condition lambda > |zeta|: exact integer comparison of squares
    if lam_lo**2 <= norm << (2 * out_prec):
        return None
    interval = RealInterval.from_fixed(lam_lo, lam_hi, out_prec)
    return LambdaEnclosure(zeta=zeta, interval=interval, n_terms=n_terms, precision_bits=prec)


def _wider_than_goal(a: int, b: int, s: int, goal_num: int, goal_den: int) -> bool:
    """Whether 1/t_lo - 1/t_hi = 2^s (b - a) / (a b) exceeds width goal / 2.

    That is L > R for L = (2 goal_den (b - a)) << s and R = goal_num a b,
    with 0 <= a < b and a positive goal.  With
    l = bits(goal_den) + bits(b - a) + s + 1 and
    r = bits(goal_num) + bits(a) + bits(b), 2^(l-2) <= L < 2^l and R < 2^r,
    and R >= 2^(r-3) when a > 0.  So l - 2 >= r proves L > R, and l <= r - 3
    with a > 0 proves L < R; only in between are the products formed.
    """
    left = goal_den.bit_length() + (b - a).bit_length() + s + 1
    right = goal_num.bit_length() + a.bit_length() + b.bit_length()
    if left - 2 >= right:
        return True
    if a and left <= right - 3:
        return False
    return (2 * goal_den * (b - a)) << s > goal_num * a * b


def _bits_of(fr: Fraction) -> int:
    """Bit length of floor(1/fr), at least 1: the fractional bits needed to resolve fr."""
    return max(1, (fr.denominator // max(1, fr.numerator)).bit_length())


def alpha_of(zeta: GaussianInt, lam: LambdaEnclosure) -> ComplexInterval:
    """Box around zeta / lambda; certified strictly inside the unit disk."""
    (lo, hi), p = lam.interval.fixed()
    if lo <= 0:
        raise ValueError("lambda interval must be strictly positive")
    prec = max(64, 16 - lam.interval.width().exp)  # a zero width has exponent 0
    alpha = quotient((zeta.re,) * 2, (lo, hi), prec + p) + quotient((zeta.im,) * 2, (lo, hi), prec + p)
    if abs_sq(alpha)[1] >= 1 << (2 * prec):
        raise PrecisionError("cannot certify |alpha| < 1 at this width; tighten lambda")
    return ComplexInterval.from_fixed(alpha, prec)


def _choose_tail_terms(s_hi: int, tail_tol: Fraction, prec: int, *constants_sq: int):
    """Per constant c, (smallest tried N with sqrt(c) * s^(N+1) / (1-s) <= tail_tol, bound).

    s_hi is s over 2^prec and each bound is over 2^(2 prec).  One pass of
    the rounded powers of s serves every constant.
    """
    one = 1 << prec
    if s_hi >= one:
        raise PrecisionError("|alpha| upper bound reached 1; tighten lambda first")
    gap = one - s_hi
    # sqrt(c) / (1 - s) over 2^prec, rounded up
    inv_gaps = [-((-ceil_sqrt(c << 2 * prec) << prec) // gap) for c in constants_sq]
    tol_num, tol_den = tail_tol.numerator << 2 * prec, tail_tol.denominator
    chosen = [None] * len(constants_sq)
    n, done, sp = 8, 0, s_hi
    while n <= _TERM_CAP:
        while done < n:  # sp is s^(done+1), rounded up after every product
            sp = -(-sp * s_hi >> prec)
            done += 1
        for k, inv_gap in enumerate(inv_gaps):
            if chosen[k] is None and (bound := inv_gap * sp) * tol_den <= tol_num:
                chosen[k] = (n, bound)
        if None not in chosen:
            return chosen
        n *= 2
    raise PrecisionError("tail tolerance unreachable within the term cap")


def phi_eval(zeta: GaussianInt, alpha: ComplexInterval, tail_tol) -> ComplexInterval:
    """Box around the power series sum gamma(j) alpha^j with certified tail.

    Partial sum from the table plus a componentwise widening of
    sqrt(20) * s^(N+1) / (1 - s), s = sup |alpha|.
    """
    _require_admissible(zeta)
    tol = _as_width_fraction(tail_tol)
    prec = max(96, _bits_of(tol) + 32)
    a, pa = alpha.fixed()
    ((n_terms, tail),) = _choose_tail_terms(abs_sup(a, pa, prec), tol, prec, 20)
    _, sums = _series_table(gamma_sequence(zeta, n_terms), a, pa, prec)
    return ComplexInterval.from_fixed(widen(squeeze(sums[-1], -prec), tail), 2 * prec)


def _series_table(gammas, a, pa: int, prec: int):
    """Lists of alpha^j and of sum_{i<=j} gamma(i) alpha^i for j = 1..len(gammas).

    alpha is the box a over 2^pa; entries are boxes over 2^prec.  Each power
    is the previous one times alpha, squeezed outward to prec by the box
    product's shift of pa bits; the partial sums add gamma(j) times each
    power exactly.  Every evaluator of the maximizer series reads this one
    table, so equal inputs give bit-identical boxes.  Once alpha times a
    power rounds back to that power (an ulp box around 0, once alpha^j has
    decayed below 2^-prec), every later power is the same box, so the
    multiplying stops and the box is reused.
    """
    power = (1 << prec, 1 << prec, 0, 0)
    sl = sh = tl = th = 0
    powers, sums = [], []
    settled = False
    for g in gammas:
        if not settled:
            previous, power = power, box_product(power, a, pa)
            settled = power == previous
        rl, rh, il, ih = gaussian_product(power, g)
        sl, sh, tl, th = sl + rl, sh + rh, tl + il, th + ih
        powers.append(power)
        sums.append((sl, sh, tl, th))
    return powers, sums
