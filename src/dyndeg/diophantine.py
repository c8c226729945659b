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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import floor

from .errors import InconsistencyError, PrecisionError
from .gaussian import DegreeCache, GaussianInt, _require_admissible
from .intervals import (
    ComplexInterval,
    Dyadic,
    RealInterval,
    _pi_brackets_bits,
    abs_sq,
    abs_sup,
    atan2_brackets,
    box_product,
    box_quotient,
    gaussian_product,
    intersect,
    real_product,
    scale_int,
    squeeze,
    widen,
)
from .powering import binary_power
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
    """Indices j in (n, window_end] whose maximizer changed across the lag n."""

    n: int
    window_end: int
    irregular: tuple
    min_excess: int = None  # min j - n
    min_pair_gap: int = None  # min |j - j'| over distinct irregular pairs
    min_shifted_gap: int = None  # min |j - j' - n| where j != j' + n
    beta: dict = field(default_factory=dict)

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
            "beta": [
                [str(i), str(j), str(v.re), str(v.im)]
                for (i, j), v in sorted(self.beta.items())
            ],
        }

    def beta_csv_text(self):
        lines = ["n,i,j,beta_re,beta_im"]
        for (i, j), v in sorted(self.beta.items()):
            lines.append(f"{self.n},{i},{j},{v.re},{v.im}")
        return "\n".join(lines) + "\n"


def irregular_indices(zeta: GaussianInt, n: int, window_end: int) -> IrregularityReport:
    """Scan (n, window_end] for lag-n maximizer changes; exact integer route, no theta."""
    _require_admissible(zeta)
    if n < 1:
        raise ValueError("n must be >= 1")
    if window_end <= n:
        raise ValueError("window_end must exceed n")
    return _irregularity_report(DegreeCache(zeta).extend_to(window_end).gammas, n, window_end)


def _irregularity_report(gammas, n: int, window_end: int) -> IrregularityReport:
    """The report of ``irregular_indices`` read from gamma(1), ..., gamma(>= window_end)."""
    irregular = [j for j in range(n + 1, window_end + 1) if gammas[j - 1] != gammas[j - n - 1]]
    beta = {}
    for j in irregular:
        c = gammas[j - 1] - gammas[j - n - 1]
        beta[(j, 0)] = c
        beta[(0, j)] = c.conj()
        beta[(j, n)] = -c
        beta[(n, j)] = -c.conj()
    min_excess = min((j - n for j in irregular), default=None)
    min_pair_gap = min(
        (b - a for a, b in zip(irregular, irregular[1:])), default=None
    )
    min_shifted_gap = _min_shifted_gap(irregular, n)
    return IrregularityReport(
        n=n,
        window_end=window_end,
        irregular=tuple(irregular),
        min_excess=min_excess,
        min_pair_gap=min_pair_gap,
        min_shifted_gap=min_shifted_gap,
        beta=beta,
    )


def _min_shifted_gap(irregular, n: int):
    """min |j - j2 - n| over j, j2 in the sorted list with j != j2 + n, or None.

    For each j2 only the neighbours of j2 + n in the list can attain the
    minimum, so a binary search per j2 replaces the scan over all pairs.
    """
    gaps = []
    for j2 in irregular:
        target = j2 + n
        i = bisect_left(irregular, target)
        hit = i < len(irregular) and irregular[i] == target
        for k in (i - 1, i + 1 if hit else i):
            if 0 <= k < len(irregular):
                gaps.append(abs(irregular[k] - target))
    return min(gaps, default=None)


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
    gammas = DegreeCache(ctx.zeta).extend_to(window_end).gammas
    first = None
    for j in range(n + 1, window_end + 1):
        if gammas[j - 1] != gammas[j - n - 1]:
            first = j
            break
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


# (alpha, n, alpha^n) of the last _alpha_power call.  It is read once and
# replaced whole, as gaussian.gamma_argmax's cursor, so interleaved callers can
# only cost each other a fresh powering, never change a box.
_last_power = (None, 0, None)


def _alpha_power(a, pa: int, n: int, prec: int):
    """alpha^n over 2^prec, squeezed from the exact power of the box a over 2^pa.

    phi_n_eval and psi_n_eval of one alpha and n build the exact power once:
    the last one is kept in a module slot and reused while alpha and n are
    unchanged.
    """
    global _last_power
    alpha0, n0, power = _last_power
    if n0 != n or alpha0 != (a, pa):
        power = binary_power(a, n, (1, 1, 0, 0), box_product)  # over 2^(n pa)
        _last_power = ((a, pa), n, power)
    return squeeze(power, n * pa - prec)


def _periodic_sum(a, pa: int, n: int, partial, prec: int):
    """(conj(alpha^n), 1 - alpha^n, Phi_n) over 2^prec, for partial the table's sum at n."""
    rl, rh, il, ih = _alpha_power(a, pa, n, prec)
    gap = ((1 << prec) - rh, (1 << prec) - rl, -ih, -il)
    return (rl, rh, -ih, -il), gap, box_quotient(partial, gap, prec)


def phi_n_eval(ctx: ThetaContext, n: int, alpha: ComplexInterval) -> ComplexInterval:
    """Box around (1 - alpha^n)^(-1) * sum_{j<=n} gamma(j) alpha^j."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, pa = alpha.fixed()
    w = Dyadic.make(max(a[1] - a[0], a[3] - a[2]), -pa)  # the wider side, canonical
    prec = max(96, 32 - w.exp)
    if abs_sq(a)[1] >= 1 << (2 * pa):
        raise PrecisionError("need sup|alpha| < 1")
    _, sums = _series_table(DegreeCache(ctx.zeta).extend_to(n).gammas, a, pa, prec)
    return ComplexInterval.from_fixed(_periodic_sum(a, pa, n, sums[n - 1], prec)[2], prec)


def psi_n_eval(ctx: ThetaContext, n: int, alpha: ComplexInterval, tail_tol) -> RealInterval:
    """Scaled defect 2|1-alpha^n|^2 Re(Phi - Phi_n) at alpha, by two routes.

    Route (a) evaluates the definition from the full and periodic series
    boxes; route (b) sums the sparse bilinear expansion over irregular
    indices with a certified tail.  Both read one table (_series_table):
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
    gammas = DegreeCache(ctx.zeta).extend_to(max(N, T)).gammas
    powers, sums = _series_table(gammas, a, pa, prec)

    # route (a), over 2^(4 prec): the tails are over 2^(2 prec)
    conj_n, gap, phi_n = _periodic_sum(a, pa, n, sums[n - 1], prec)
    phi_lo, phi_hi = widen(squeeze(sums[N - 1][:2], -prec), phi_tail)
    phin_lo, phin_hi = squeeze(phi_n[:2], -prec)
    route_a = real_product(*scale_int(abs_sq(gap), 2), phi_lo - phin_hi, phi_hi - phin_lo)

    report = _irregularity_report(gammas, n, T)
    lo = hi = 0
    for j in report.irregular:
        c = report.beta[(j, 0)]
        rl, rh, _, _ = gaussian_product(powers[j - 1], c)
        lo, hi = lo + 2 * rl, hi + 2 * rh  # beta_(j,0) and beta_(0,j) pair
        if j + n <= T:
            rl, rh, _, _ = gaussian_product(box_product(powers[j - 1], conj_n, prec), c)
            lo, hi = lo - 2 * rh, hi - 2 * rl
    route_b = squeeze(widen(squeeze((lo, hi), -prec), tail), -2 * prec)

    meet = intersect(route_a, route_b)
    if meet is None:
        raise InconsistencyError(
            f"defect routes disjoint at n={n}: a={route_a}, b={route_b} over 2^{4 * prec}"
        )
    return RealInterval.from_fixed(*meet, 4 * prec)
