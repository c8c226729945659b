"""Continued-fraction and equidistribution diagnostics of the rotation number.

The rotation number of an admissible parameter is theta = Arg(zeta)/(2*pi),
normalized into (0, 1).  Everything here is certified: theta is carried as a
nested interval, continued-fraction coefficients are accepted only when the
Gauss-map image determines an unambiguous floor, and the octant of j*theta
mod 1 is resolved by refining precision (an exact boundary hit would force a
real power of zeta, which admissibility excludes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from types import MappingProxyType

from .errors import InconsistencyError, PrecisionError
from .gaussian import GaussianInt, _require_admissible, gamma_sequence
from .intervals import (
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
    intersect,
    real_product,
    scale_int,
    squeeze,
    widen,
)
from .solver import (
    _as_width_fraction,
    _bits_of,
    _choose_tail_terms,
    _series_table,
    precision_cap,
    precision_ladder,
)

# sector of Arg(zeta^j), in eighths of a turn, -> maximizer of Re(gamma * zeta^j)
OCTANT_TO_GAMMA = {
    0: GaussianInt(1, -2),
    1: GaussianInt(1, -2),
    2: GaussianInt(0, -2),
    3: GaussianInt(-2, 0),
    4: GaussianInt(-2, 0),
    5: GaussianInt(0, 2),
    6: GaussianInt(1, 2),
    7: GaussianInt(1, 2),
}


@lru_cache(maxsize=256)
def _theta_fraction_brackets(re: int, im: int, prec: int):
    """Exact rational bracket of Arg(re+im*i)/(2*pi) mod 1, width ~2^-prec."""
    alo, ahi = atan2_brackets(im, re, prec + 8)
    plo, phi_hi = _pi_brackets_bits(prec + 8)
    if alo > 0:
        return alo / (2 * phi_hi), ahi / (2 * plo)
    if ahi < 0:
        return alo / (2 * plo) + 1, ahi / (2 * phi_hi) + 1
    raise PrecisionError("argument bracket straddles zero; parameter near real axis")


@dataclass(frozen=True)
class ThetaContext:
    """Certified enclosure theta in [A, B] * 2^-precision_bits of the rotation number."""

    zeta: GaussianInt
    precision_bits: int
    theta: tuple  # (A, B)

    def refined(self, precision_bits: int) -> "ThetaContext":
        if precision_bits <= self.precision_bits:
            return self
        return theta_interval(self.zeta, precision_bits)


def theta_interval(zeta: GaussianInt, precision_bits: int = 128) -> ThetaContext:
    """Outward-rounded enclosure of Arg(zeta)/(2*pi) in (0,1)."""
    _require_admissible(zeta)
    if precision_bits < 8:
        raise ValueError("precision_bits must be >= 8")
    cap = precision_cap()
    if precision_bits > cap:  # before the exact brackets, whose cost grows fast with the bits
        raise PrecisionError(f"theta precision of {precision_bits} bits exceeds the cap of {cap} bits")
    tl, th = _theta_fraction_brackets(zeta.re, zeta.im, precision_bits)
    lo = (tl.numerator << precision_bits) // tl.denominator
    hi = -((-th.numerator << precision_bits) // th.denominator)
    if not 0 < lo <= hi < 1 << precision_bits:
        raise PrecisionError("rotation-number enclosure escaped (0,1); raise precision")
    return ThetaContext(zeta=zeta, precision_bits=precision_bits, theta=(lo, hi))


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Certified continued-fraction data of the rotation number."""

    zeta: GaussianInt
    coefficients: tuple  # a_0 .. a_depth
    convergents: tuple  # (m_i, n_i), i = 0 .. depth
    precision_bits: int
    theta: tuple  # theta in [A, B] * 2^-precision_bits

    @property
    def depth(self) -> int:
        return len(self.coefficients) - 1

    def to_json_obj(self):
        return {
            "zeta": str(self.zeta),
            "coefficients": [str(a) for a in self.coefficients],
            "convergents": [[str(m), str(n)] for (m, n) in self.convergents],
            "precision_bits": str(self.precision_bits),
        }


def _cf_at_precision(bits, args):
    """The ContinuedFraction of zeta to depth certified at bits, args = (zeta, depth); None if ambiguous.

    Coefficients come from the interval Gauss map; the convergents are then
    certified against the theta enclosure at the same precision.
    """
    zeta, depth = args
    lo, hi = _theta_fraction_brackets(zeta.re, zeta.im, bits)
    coeffs = []
    for _ in range(depth + 1):
        fl, fh = floor(lo), floor(hi)
        if fl != fh:
            return None
        coeffs.append(fl)
        lo, hi = lo - fl, hi - fl
        if lo <= 0:  # cannot certify the fractional part is positive
            return None
        lo, hi = 1 / hi, 1 / lo
    convs = _convergents_from(coeffs)
    theta = theta_interval(zeta, bits).theta
    if not _certify_convergents(theta, bits, convs):
        return None
    return ContinuedFraction(
        zeta=zeta, coefficients=tuple(coeffs), convergents=convs, precision_bits=bits, theta=theta
    )


def _convergents_from(coeffs):
    ms = [1, coeffs[0]]
    ns = [0, 1]
    for a in coeffs[1:]:
        ms.append(a * ms[-1] + ms[-2])
        ns.append(a * ns[-1] + ns[-2])
    return tuple(zip(ms[1:], ns[1:]))


def cf_expand(ctx: ThetaContext, depth: int) -> ContinuedFraction:
    """Continued-fraction coefficients a_0..a_depth with exact convergents.

    Precision is raised until every Gauss-map floor is unambiguous and the
    standard approximation inequality |n_i theta - m_i| < 1/n_i plus the
    over/under alternation are certified.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return precision_ladder(
        max(ctx.precision_bits, 32),
        _cf_at_precision,
        (ctx.zeta, depth),
        "continued fraction needs more than {cap} bits",
    )


def _certify_convergents(theta, p: int, convs) -> bool:
    """|n_i t - m_i| < 1/n_i and alternation of m_i - n_i t, for t in theta over 2^p."""
    prev_n = 0
    for i, (m, n) in enumerate(convs):
        if n < max(prev_n, 1):
            return False
        prev_n = max(prev_n, n)
        lo, hi = _offset(theta, p, n, m)
        if not (abs(lo) * n < 1 << p and abs(hi) * n < 1 << p):
            return False
        if i % 2 == 0:  # even convergents approximate from below: n*t - m > 0
            if lo <= 0:
                return False
        elif hi >= 0:
            return False
    return True


def _offset(theta, p: int, n: int, m: int):
    """The real box n*t - m over 2^p, for t in theta over 2^p."""
    lo, hi = scale_int(theta, n)
    return lo - (m << p), hi - (m << p)


# ---------------------------------------------------------------------------
# Octants and (ir)regularity
# ---------------------------------------------------------------------------


def octant_gamma(ctx: ThetaContext, j: int):
    """(octant k with j*theta mod 1 in (k/8,(k+1)/8), table gamma for it).

    Decides at ctx's own precision first, which reads no setting (theta_interval
    refuses a context above the precision cap); only an undecided index enters
    the precision ladder, at twice that.  Refines precision until the
    enclosure avoids every boundary; termination is guaranteed because a
    boundary hit would make zeta^(8j) real.  With
    theta in [A, B] * 2^-p for integers A <= B, the octant is decided when
    8*j*A and 8*j*B have the same floor q after division by 2^p and 8*j*A
    is not a multiple of 2^p (the lower bound is strict); then k = q mod 8.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    _require_admissible(ctx.zeta)
    decided = _octant_at(ctx.precision_bits, (ctx, j))  # ctx.refined returns ctx itself here
    if decided is not None:
        return decided
    return precision_ladder(
        2 * ctx.precision_bits, _octant_at, (ctx, j), "octant of {args[1]}*theta undecided below {cap} bits"
    )


def _octant_at(bits, args):
    """(octant, gamma) of j*theta decided at bits, args = (ctx, j); None if undecided."""
    ctx, j = args
    ctx = ctx.refined(bits)
    (lo, hi), p = ctx.theta, ctx.precision_bits
    a = 8 * j * lo
    q = a >> p
    if q == (8 * j * hi) >> p and a & ((1 << p) - 1):
        k = q & 7  # q is the floor of 8*j*theta
        return k, OCTANT_TO_GAMMA[k]
    return None


@dataclass(frozen=True)
class IrregularityReport:
    """Indices j in (n, window_end] whose maximizer changed across the lag n.

    The report keeps one step per irregular index: steps[k] is
    c_j = gamma(j) - gamma(j - n) as (re, im) for j = irregular[k], nonzero.
    The bilinear expansion of the defect has four nonzero coefficients per
    irregular j, all read off c_j: beta_(j,0) = c_j, beta_(0,j) = conj c_j,
    beta_(j,n) = -c_j and beta_(n,j) = -conj c_j.
    """

    n: int
    window_end: int
    irregular: tuple
    steps: tuple
    min_excess: int = None  # min j - n
    min_pair_gap: int = None  # min |j - j'| over distinct irregular pairs
    min_shifted_gap: int = None  # min |j - j' - n| where j != j' + n

    @cached_property
    def beta(self):
        """Read-only map (i, j) -> beta_(i,j) as GaussianInt over the nonzero entries, built on first read."""
        n, beta = self.n, {}
        for j, (re, im) in zip(self.irregular, self.steps):
            beta[(j, 0)] = GaussianInt(re, im)
            beta[(0, j)] = GaussianInt(re, -im)
            beta[(j, n)] = GaussianInt(-re, -im)
            beta[(n, j)] = GaussianInt(-re, im)
        return MappingProxyType(beta)

    def _beta_rows(self):
        """[i, j, re, im] as decimal strings for every nonzero beta_(i,j), in sorted key order.

        Every irregular j exceeds n >= 1, so a key's first entry is 0, n or
        an irregular j, in that order: the keys sort as every (0, j) for
        ascending j, then every (n, j), then (j, 0) and (j, n) for each
        ascending j.  The keys are distinct, so the rows are written in that
        order and never sorted.
        """
        n = str(self.n)
        cols = [
            (str(j), str(re), str(im), str(-re), str(-im)) for j, (re, im) in zip(self.irregular, self.steps)
        ]
        rows = [["0", j, re, neg_im] for j, re, _, _, neg_im in cols]
        rows += [[n, j, neg_re, im] for j, _, im, neg_re, _ in cols]
        for j, re, im, neg_re, neg_im in cols:
            rows.append([j, "0", re, im])
            rows.append([j, n, neg_re, neg_im])
        return rows

    def to_json_obj(self):
        return {
            "n": str(self.n),
            "window_end": str(self.window_end),
            "irregular": [str(j) for j in self.irregular],
            "min_excess": None if self.min_excess is None else str(self.min_excess),
            "min_pair_gap": None if self.min_pair_gap is None else str(self.min_pair_gap),
            "min_shifted_gap": None
            if self.min_shifted_gap is None
            else str(self.min_shifted_gap),
            "beta": self._beta_rows(),
        }

    def beta_csv_text(self):
        n = str(self.n)
        lines = ["n,i,j,beta_re,beta_im"] + [",".join([n, *row]) for row in self._beta_rows()]
        return "\n".join(lines) + "\n"


def irregular_indices(zeta: GaussianInt, n: int, window_end: int) -> IrregularityReport:
    """Scan (n, window_end] for lag-n maximizer changes; exact integer route, no theta."""
    _require_admissible(zeta)
    if n < 1:
        raise ValueError("n must be >= 1")
    if window_end <= n:
        raise ValueError("window_end must exceed n")
    return _irregularity_report(gamma_sequence(zeta, window_end), n, window_end)


def _lag_steps(gammas, n: int, window_end: int):
    """(irregular, steps) of lag n over (n, window_end], read from gamma(1), ..., gamma(>= window_end).

    irregular lists the j with gamma(j) != gamma(j - n) in ascending order;
    steps holds c_j = gamma(j) - gamma(j - n) of each, as (re, im).
    """
    irregular, steps = [], []
    for j, g, h in zip(range(n + 1, window_end + 1), gammas[n:window_end], gammas[: window_end - n]):
        if g != h:
            irregular.append(j)
            steps.append((g.re - h.re, g.im - h.im))
    return irregular, steps


def _irregularity_report(gammas, n: int, window_end: int) -> IrregularityReport:
    """The report of ``irregular_indices``: the lag-n steps and their gap statistics."""
    irregular, steps = _lag_steps(gammas, n, window_end)
    return IrregularityReport(
        n=n,
        window_end=window_end,
        irregular=tuple(irregular),
        steps=tuple(steps),
        min_excess=irregular[0] - n if irregular else None,
        min_pair_gap=min((b - a for a, b in zip(irregular, irregular[1:])), default=None),
        min_shifted_gap=_min_shifted_gap(irregular, n),
    )


def _min_shifted_gap(irregular, n: int):
    """min |j - j2 - n| over j, j2 in the sorted list with j != j2 + n, or None.

    For each j2 only the neighbours of j2 + n in the list can attain the
    minimum; the targets ascend with j2, so one forward pointer finds them.
    """
    best, i = None, 0
    for j2 in irregular:
        target = j2 + n
        while i < len(irregular) and irregular[i] < target:
            i += 1
        hit = i < len(irregular) and irregular[i] == target
        for k in (i - 1, i + 1 if hit else i):
            if 0 <= k < len(irregular):
                gap = abs(irregular[k] - target)
                if best is None or gap < best:
                    best = gap
    return best


@dataclass(frozen=True)
class RegularWindowReport:
    n: int
    window_end: int
    passed: bool
    first_irregular: int = None
    # whether |n*theta - m| < 1/(16(C+1)n) was certified (None: undecided)
    hypothesis_certified: bool = None


def regular_window_check(ctx: ThetaContext, n: int, C) -> RegularWindowReport:
    """Scan (n, C*n] for the first irregular index.

    Also certifies (when possible) the approximation hypothesis under which
    such windows are provably all-regular for suitable n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    C = Fraction(C)
    if C < 1:
        raise ValueError("C must be >= 1")
    window_end = int(n * C)
    irregular, _ = _lag_steps(gamma_sequence(ctx.zeta, window_end), n, window_end)
    first = irregular[0] if irregular else None
    eps = Fraction(1, 16 * (C + 1))
    hyp = _certify_hypothesis(ctx, n, eps)
    return RegularWindowReport(
        n=n,
        window_end=window_end,
        passed=first is None,
        first_irregular=first,
        hypothesis_certified=hyp,
    )


def _certify_hypothesis(ctx: ThetaContext, n: int, eps: Fraction):
    bits = max(ctx.precision_bits, 2 * n.bit_length() + 32)
    theta = theta_interval(ctx.zeta, bits).theta
    m = round(Fraction(sum(scale_int(theta, n)), 2 << bits))  # nearest to n * midpoint
    lo, hi = _offset(theta, bits, n, m)
    bound = eps * (1 << bits) / n  # over 2^bits
    if max(abs(lo), abs(hi)) < bound:
        return True
    if not lo <= 0 <= hi and min(abs(lo), abs(hi)) >= bound:
        return False
    return None


# ---------------------------------------------------------------------------
# Badly-approximable diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BadApproxReport:
    """Finite-depth statistics; draws no conclusion about limit behavior."""

    zeta: GaussianInt
    depth: int
    max_coefficient: int
    kappa: RealInterval  # min over i of n_i * |n_i theta - m_i|
    max_denominator_ratio: Fraction

    def to_json_obj(self, digits: int = 20):
        return {
            "zeta": str(self.zeta),
            "depth": str(self.depth),
            "max_coefficient": str(self.max_coefficient),
            "kappa_lo": self.kappa.lo.decimal_str(digits, "floor"),
            "kappa_hi": self.kappa.hi.decimal_str(digits, "ceil"),
            "max_denominator_ratio": str(self.max_denominator_ratio),
        }


def badly_approximable_diagnostics(cf: ContinuedFraction) -> BadApproxReport:
    """max coefficient, certified kappa statistic, max denominator ratio."""
    if cf.depth < 2:
        raise ValueError("need depth >= 2")
    max_coeff = max(cf.coefficients[1:])
    errs = [(n, _offset(cf.theta, cf.precision_bits, n, m)) for m, n in cf.convergents]
    kappa_lo = min(n * (0 if lo <= 0 <= hi else min(abs(lo), abs(hi))) for n, (lo, hi) in errs)
    kappa_hi = min(n * max(abs(lo), abs(hi)) for n, (lo, hi) in errs)
    ratios = [
        Fraction(n2, n1)
        for (_, n1), (_, n2) in zip(cf.convergents, cf.convergents[1:])
        if n1 > 0
    ]
    return BadApproxReport(
        zeta=cf.zeta,
        depth=cf.depth,
        max_coefficient=max_coeff,
        kappa=RealInterval.from_fixed(kappa_lo, kappa_hi, cf.precision_bits),
        max_denominator_ratio=max(ratios),
    )


# ---------------------------------------------------------------------------
# Periodic approximations of the maximizer series
# ---------------------------------------------------------------------------


def _periodic_sum(a, pa: int, n: int, partial, prec: int):
    """(conj(alpha^n), 1 - alpha^n, Phi_n) over 2^prec, for partial the table's sum at n."""
    rl, rh, il, ih = box_power(a, pa, n, prec)
    gap = ((1 << prec) - rh, (1 << prec) - rl, -ih, -il)
    return (rl, rh, -ih, -il), gap, box_quotient(partial, gap, prec)


def _real_product(x, c):
    """The real box Re(x * c), exact, for a complex box x and a Gaussian integer c = (re, im)."""
    p, q = scale_int(x[:2], c[0]), scale_int(x[2:], c[1])
    return p[0] - q[1], p[1] - q[0]


def phi_n_eval(ctx: ThetaContext, n: int, alpha: ComplexInterval) -> ComplexInterval:
    """Box around (1 - alpha^n)^(-1) * sum_{j<=n} gamma(j) alpha^j."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, pa = alpha.fixed()
    w = Dyadic.make(max(a[1] - a[0], a[3] - a[2]), -pa)  # the wider side, canonical
    prec = max(96, 32 - w.exp)
    if abs_sq(a)[1] >= 1 << (2 * pa):
        raise PrecisionError("need sup|alpha| < 1")
    _, sums = _series_table(gamma_sequence(ctx.zeta, n), a, pa, prec)
    return ComplexInterval.from_fixed(_periodic_sum(a, pa, n, sums[n - 1], prec)[2], prec)


def psi_n_eval(ctx: ThetaContext, n: int, alpha: ComplexInterval, tail_tol) -> RealInterval:
    """Scaled defect 2|1-alpha^n|^2 Re(Phi - Phi_n) at alpha, by two routes.

    Route (a) evaluates the definition from the full and periodic series
    boxes; route (b) sums the sparse bilinear expansion over irregular
    indices with a certified tail, reading each (j, c_j) from _lag_steps
    (no report is built).  Both read one table (_series_table):
    route (a) its partial sums at N and n, route (b) the powers alpha^j at
    irregular j, each alpha^j * conj(alpha^n) squeezed to prec.  The routes
    must intersect; the intersection is returned.
    """
    tol = _as_width_fraction(tail_tol)
    if n < 1:
        raise ValueError("n must be >= 1")
    prec = max(96, _bits_of(tol) + 48)
    a, pa = alpha.fixed()
    # sqrt(20) as phi_eval; 4*sqrt(20) per bilinear term
    (N, phi_tail), (T, tail) = _choose_tail_terms(abs_sup(a, pa, prec), tol, prec, 20, 320)
    T = max(T, n + 1)
    gammas = gamma_sequence(ctx.zeta, max(N, T))
    powers, sums = _series_table(gammas, a, pa, prec)

    # route (a), over 2^(4 prec): the tails are over 2^(2 prec)
    conj_n, gap, phi_n = _periodic_sum(a, pa, n, sums[n - 1], prec)
    phi_lo, phi_hi = widen(squeeze(sums[N - 1][:2], -prec), phi_tail)
    phin_lo, phin_hi = squeeze(phi_n[:2], -prec)
    route_a = real_product(*scale_int(abs_sq(gap), 2), phi_lo - phin_hi, phi_hi - phin_lo)

    lo = hi = 0
    for j, c in zip(*_lag_steps(gammas, n, T)):  # c = beta_(j,0)
        rl, rh = _real_product(powers[j - 1], c)
        lo, hi = lo + 2 * rl, hi + 2 * rh  # beta_(j,0) and beta_(0,j) pair
        if j + n <= T:
            rl, rh = _real_product(box_product(powers[j - 1], conj_n, prec), c)
            lo, hi = lo - 2 * rh, hi - 2 * rl
    route_b = squeeze(widen(squeeze((lo, hi), -prec), tail), -2 * prec)

    meet = intersect(route_a, route_b)
    if meet is None:
        raise InconsistencyError(
            f"defect routes disjoint at n={n}: a={route_a}, b={route_b} over 2^{4 * prec}"
        )
    return RealInterval.from_fixed(*meet, 4 * prec)
