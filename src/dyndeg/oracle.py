"""Exact plane rational maps: construction, composition, reduction, degree oracles.

A map is a triple of homogeneous polynomials of equal degree, held in one
form: each component is an integer unit times a product of factors.  A map
built from expanded components holds each as one factor to the first power
(a zero component as unit 0), and the expanded components are a view built on
demand.  ``compose`` keeps its result over primitive pairwise-coprime factors;
with that representation the common factor of the triple is read off from
minimum exponents, so composition never needs a large polynomial gcd.
``compose`` has one route: every outer factor, a monomial being a one-term
sum, composes to a sum of atom-power products; the powers all of them share
are added to the result's exponents, and only the cofactors are decomposed,
each entering the coprime base as an unexpanded ``SumAtom`` unless a
certificate needs its terms.  So the degree of a composite is proven from
line certificates of unexpanded sums, and a sum is expanded only when its
terms are read (by ``components``, ``same_map``, ``compose`` reading its
map's factors on the outer side, or the canonical ``_factored`` view) or by
one of the other three events ``CoprimeBase`` names: a zero remainder that
``divexact`` confirms, a gcd that ``homo_gcd`` settles, a sum that keeps
its degree on no base line.  A term read past the 2047 packing cap fails at
once with ValueError (``components``, ``SumAtom.canonical``), before any
product.
``iterate_map`` composes each iterate once.  A map that ``compose``
returns carries its base's line memos, and a later ``compose`` that takes
it as the inner map adopts its distinct factors as atoms, over copies of
those memos, so along an iterate chain no atom is decomposed or proved
coprime to the others again, none is restricted to a line twice, and none
is expanded.

A composed map is held raw: a sum keeps its content and sign, its
restrictions are those of the sum, and the units are those of the raw
sums.  ``degree``, the inner side of ``compose`` and the line oracle read
only the raw triple.  The canonical triple (primitive sign-normalized
atoms, units over their gcd) is derived from it on first read, with new
polynomials and arrays: a unit and the restrictions multiplied with it
always come from one view, and no forcing rescales the raw ones in place.

The independent route is the line oracle: ``composed_line_degree`` restricts
the inner map to seeded random lines mod a large prime, factor by factor
(each distinct factor once per line, raised by binary powering), evaluates
the outer map's factors on that curve, and reports the largest degree minus
the degree of the gcd: the composite is never formed, and a trial can err
low, never high.  ``factored_line_degree`` is the oracle after the identity.
Each attempt keeps one ``LineMemo`` for its line, so a sum factor of the
inner map is restricted only through its atoms, as ``compose``'s base
restricts it to its own lines, and a ``HomoPoly`` by ``restrict_line_mod``
of its terms.  Where a sum cannot be read through its atoms (an atom
beneath loses degree, or the line's prime divides a sum's content) the
attempt draws another line, of the next prime.  What the oracle proves
stays the same: on random lines the reduced triple keeps no common factor,
so its degree is the composite's.  It never reads the expanded terms of a
sum.  Pinned tests tie those terms to the sums on seeded lines.
``compose`` has no budget; a caller that wants one bounds the product of
the degrees (the CLI does), and a sum is not a ``HomoPoly`` until read, so
the 2047 packing cap bounds a component only once it is expanded.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import accumulate, repeat
from math import gcd as _igcd
from operator import and_

import numpy as np

from .errors import CheckFailed, DegenerateMatrix, OracleInconsistency
from .gaussian import IntMatrix2x2
from .modp import LINE_PRIMES, univ_gcd_mod, univ_mul_mod, univ_pow_mod, weighted_sum_mod
from .polynomials import (
    CoprimeBase,
    HomoPoly,
    LineMemo,
    MAX_PACKED_DEGREE,
    SumAtom,
    expand,
    scaled,
)

_BASE_SEED = 7  # certificate-line seed of the coprime base of every compose
_LINE_TRIALS = 3  # seeded trials of the line oracle; all must agree


class PlaneRationalMap:
    """Rational self-map of the projective plane in homogeneous coordinates.

    ``_raw`` is the triple as built: (unit, ((factor, exponent), ...)) per
    component.  A map that ``compose`` returns holds it raw: its factors
    include ``SumAtom`` sums, unexpanded, whose content and sign stay in
    them and out of the units.  ``_memos`` is None, or set by compose: the
    ``LineMemo`` of each certificate line of its coprime base (seed
    ``_BASE_SEED``), which holds the restrictions of the raw factors, all
    atoms of that base, and of the sums beneath them.  ``degree``,
    ``compose`` on the inner side and the line oracle read only these.

    ``_factored`` is the canonical triple, derived from the raw one on first
    read: each sum expanded to its primitive sign-normalized part, its unit
    moved into the component's unit, the units divided by their gcd.  A map
    without sums is its own canonical triple.  It holds new polynomials;
    the raw ones a unit was multiplied with are never rescaled, so a unit
    and the restrictions multiplied with it always come from one view.
    ``components`` expands the canonical triple; past the packing cap it
    raises ValueError before reading it.
    """

    __slots__ = ("_raw", "_memos", "_canonical", "_components", "degree")

    def __init__(self, components=None, factored=None):
        if factored is None:
            if components is None:
                raise ValueError("need components or a factorization")
            components = tuple(components)
            factored = tuple((0, ()) if c.is_zero() else (1, ((c, 1),)) for c in components)
        self._components = components
        self._raw = factored
        self._memos = None
        self._canonical = None
        degs = {sum(e * p.degree for p, e in factors) for unit, factors in factored if unit}
        if len(degs) != 1:
            raise ValueError("components must share one degree and not all vanish")
        self.degree = degs.pop()

    @property
    def _factored(self):
        if self._canonical is None:
            self._canonical = _canonical_triple(self._raw)
        return self._canonical

    @property
    def components(self):
        if self._components is None:
            if self.degree > MAX_PACKED_DEGREE:
                raise ValueError(f"map degree {self.degree} exceeds packing cap {MAX_PACKED_DEGREE}")
            self._components = tuple(
                expand(unit, [poly.pow(e) for poly, e in factors]) for unit, factors in self._factored
            )
        return self._components

    def evaluate(self, point):
        x0, x1, x2 = point
        return tuple(c.evaluate(x0, x1, x2) for c in self.components)

    def normalized_components(self):
        """Triple scaled to content 1 with the first nonzero anchor positive."""
        comps = self.components
        g = 0
        for c in comps:
            g = _igcd(g, c.content())
        if g == 0:
            raise ValueError("zero map")
        sign = 0
        for c in comps:
            if not c.is_zero():
                sign = c.sign_anchor()
                break
        scale = g * (sign or 1)
        if scale == 1:
            return comps
        return tuple(
            HomoPoly(c.degree, {k: v // scale for k, v in c.terms.items()}) for c in comps
        )

    def same_map(self, other: "PlaneRationalMap") -> bool:
        if self.degree != other.degree:
            return False
        return self.normalized_components() == other.normalized_components()

    def __repr__(self):
        return f"PlaneRationalMap(degree={self.degree})"


def _canonical_triple(raw):
    """The raw triple with each ``SumAtom`` made primitive, its unit moved out, and the units over their gcd.

    The sums are expanded together, sharing one memo of their atoms' powers.
    """
    if not any(isinstance(poly, SumAtom) for _, factors in raw for poly, _ in factors):
        return raw
    powers: dict = {}
    rows = []
    for unit, factors in raw:
        row = []
        for poly, e in factors:
            if isinstance(poly, SumAtom):
                u, poly = poly.canonical(powers)
                unit *= u**e
            row.append((poly, e))
        rows.append((unit, tuple(row)))
    ug = _igcd(*(unit for unit, _ in rows))
    return tuple((unit // ug, row) for unit, row in rows)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

_X = [HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0), HomoPoly.monomial(1, 0, 0, 1)]


def identity_map() -> PlaneRationalMap:
    return PlaneRationalMap(factored=tuple((1, ((_X[i], 1),)) for i in range(3)))


def g_map() -> PlaneRationalMap:
    """The quadratic involution [x0(x1+x2-x0) : x1(x2+x0-x1) : x2(x0+x1-x2)]."""
    ells = [
        HomoPoly.from_triples(1, [(1, 0, 0, -1), (0, 1, 0, 1), (0, 0, 1, 1)]),
        HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, 1)]),
        HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1)]),
    ]
    return PlaneRationalMap(factored=tuple((1, ((_X[i], 1), (ells[i], 1))) for i in range(3)))


def linear_map(rows) -> PlaneRationalMap:
    """Projective linear map from an integer 3x3 matrix (rows act on x)."""
    comps = []
    for row in rows:
        poly = HomoPoly.from_triples(
            1, [(1, 0, 0, row[0]), (0, 1, 0, row[1]), (0, 0, 1, row[2])]
        )
        if poly.is_zero():
            raise ValueError("zero row in linear map")
        comps.append(poly)
    return PlaneRationalMap(components=comps)


def conjugating_map() -> PlaneRationalMap:
    """The linear map [x1+x2-x0 : x2+x0-x1 : x0+x1-x2]."""
    return linear_map([[-1, 1, 1], [1, -1, 1], [1, 1, -1]])


def conjugating_map_inverse() -> PlaneRationalMap:
    """Projective inverse of ``conjugating_map`` (its adjugate, up to scale)."""
    return linear_map([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def cremona_map() -> PlaneRationalMap:
    """The standard quadratic involution [x1x2 : x2x0 : x0x1]."""
    return PlaneRationalMap(
        factored=(
            (1, ((_X[1], 1), (_X[2], 1))),
            (1, ((_X[2], 1), (_X[0], 1))),
            (1, ((_X[0], 1), (_X[1], 1))),
        ),
    )


def monomial_map(mat: IntMatrix2x2) -> PlaneRationalMap:
    """Homogenization of (y1, y2) -> (y1^a11 y2^a12, y1^a21 y2^a22)."""
    if mat.det() == 0:
        raise DegenerateMatrix(f"matrix {mat} has zero determinant")
    rows = [
        (0, 0, 0),
        (-mat.a11 - mat.a12, mat.a11, mat.a12),
        (-mat.a21 - mat.a22, mat.a21, mat.a22),
    ]
    shift = [max(0, -min(r[c] for r in rows)) for c in range(3)]
    exps = [[r[c] + shift[c] for c in range(3)] for r in rows]
    common = [min(e[c] for e in exps) for c in range(3)]
    exps = [[e[c] - common[c] for c in range(3)] for e in exps]
    factored = []
    for e in exps:
        factors = tuple((_X[c], e[c]) for c in range(3) if e[c] > 0)
        factored.append((1, factors))
    return PlaneRationalMap(factored=tuple(factored))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose(outer: PlaneRationalMap, inner: PlaneRationalMap) -> PlaneRationalMap:
    """outer after inner, reduced.

    Exponent-level substitution over a shared coprime base: each outer factor
    is a sum of composed monomials (a monomial is a one-term sum) whose shared
    atom powers go straight into the result; the sum of the cofactors goes to
    ``CoprimeBase.decompose_sum``, which enters it as a ``SumAtom``,
    unexpanded, unless a certificate asks for its terms.  The degree of the
    result is thus proven from line certificates of unexpanded sums.
    Units and exponent vectors are ``Product`` pairs that the base tracks,
    so an atom split rewrites every one that outlives a ``decompose``, unit
    included.  The common factor of the result is the intersection of the
    vectors.

    The result is the raw triple: a sum keeps its content and sign, and the
    units are those of the raw sums.  Its canonical triple (``_factored``)
    is derived on first read, which expands the sums; nothing else here
    expands one except an outer factor's terms (the outer map's canonical
    triple is read) and the events ``CoprimeBase`` names.

    Each distinct factor of the inner map enters the base once, in order
    of first appearance.  The factors of a map that compose returned are
    atoms of one base, pairwise coprime by proof, so the base adopts them
    over copies of that base's memos (``_memos``): decomposing them in a
    fresh base would enter each as a new atom, in that order and with unit
    1.  The copies share their entries, so the restrictions and powers
    taken there are read, not taken again, and the inner map's memos gain
    no entry.  Any other inner map is decomposed factor by factor.
    """
    if any(unit == 0 for map_ in (outer, inner) for unit, _ in map_._raw):
        raise ValueError("cannot decompose the zero polynomial")
    base = CoprimeBase(seed=_BASE_SEED)
    if inner._memos is None:
        enter = base.decompose
    else:
        base.memos = [memo.copy() for memo in inner._memos]

        def enter(atom):
            return base.track(1, Counter({base.adopt(atom): 1}))

    entered = {}  # id(factor) -> its tracked Product, kept current across splits
    inner_rows = []
    for unit, factors in inner._raw:
        row = base.track(unit)
        for poly, e in factors:
            if id(poly) not in entered:
                entered[id(poly)] = enter(poly)
            row.times(entered[id(poly)], e)
        inner_rows.append(row)

    @cache
    def image(*mults):
        """inner0^i * inner1^j * inner2^k, (i, j, k) = mults, as a tracked ``Product``."""
        got = base.track()
        for m, row in zip(mults, inner_rows):
            got.times(row, m)
        return got

    result = []
    for unit, factors in outer._factored:
        row = base.track(unit)
        for poly, e in factors:
            # The atom powers every composed monomial shares go straight into
            # the result; only the sum of the cofactors is decomposed.
            images = [(c, image(i, j, k)) for (i, j, k, c) in poly.items()]
            common = reduce(and_, (got.exps for _, got in images))
            row.exps.update(scaled(common, e))
            row.times(base.decompose_sum([(c * got.unit, got.exps - common) for c, got in images]), e)
        result.append(row)

    # reduction: strip the atom powers and the unit gcd all components share
    shared = reduce(and_, (row.exps for row in result))
    ug = _igcd(*(row.unit for row in result))
    rows = [(row.unit // ug, sorted((row.exps - shared).items())) for row in result]
    out = PlaneRationalMap(
        factored=tuple((unit, tuple((base.atoms[idx], n) for idx, n in row)) for unit, row in rows)
    )
    out._memos = base.memos
    return out


def degree_of_iterate(map_: PlaneRationalMap, n: int) -> int:
    """deg of the n-th iterate, reducing after every composition step."""
    return iterate_map(map_, n).degree


def iterate_map(map_: PlaneRationalMap, n: int) -> PlaneRationalMap:
    """The n-th iterate, reducing after every composition step."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = map_
    for _ in range(n - 1):
        acc = compose(map_, acc)
    return acc


# ---------------------------------------------------------------------------
# Randomized line oracle
# ---------------------------------------------------------------------------


def factored_line_degree(map_: PlaneRationalMap, seed: int = 0) -> int:
    """Line-restriction degree of a map: ``composed_line_degree`` after the identity."""
    return composed_line_degree(identity_map(), map_, seed)


def composed_line_degree(outer: PlaneRationalMap, inner: PlaneRationalMap, seed: int = 0) -> int:
    """Reduced degree of outer after inner, from seeded random lines mod large primes.

    On a line L, inner restricts factor by factor to a curve of three arrays
    mod p, and each outer factor is evaluated once on it, so the composite
    F = G * R (G the gcd of its components) is never formed.  Restriction
    then reduction mod p is a ring homomorphism, so the images are
    F_i|L = G|L * R_i|L, and their largest degree minus their gcd's is that
    of the R_i|L: at most deg R, even when every component drops degree.  A
    trial errs low, never high.  Trials redraw lines until every inner
    factor keeps its degree, attempt k of trial t on a line mod
    ``LINE_PRIMES[(t + k) % len(LINE_PRIMES)]``, so a prime that fails an
    attempt (one dividing a sum's content fails every line) is not drawn
    by the next; the trials must agree (else OracleInconsistency).
    Products past 2048 coefficients on both sides (iterate 4) take
    ``univ_mul_mod``'s Kronecker route.

    inner is read raw: its units and its factors' restrictions, both of
    the raw triple, through one ``LineMemo`` per attempt.  A ``SumAtom``
    factor is restricted through the sum of atom-power products it is, and
    only so, as a coprime base restricts it (``SumAtom.restrict``: every
    atom beneath is restricted once per line, and each power of it raised
    once); where that restriction is not None it equals
    ``restrict_line_mod`` of the sum, content and sign included (the
    residue array is unique), the route of a ``HomoPoly`` factor.  It is
    None where an atom beneath loses degree, or where the line's prime
    divides a sum's content, and the attempt draws another line.  On a line
    it keeps, the prime divides no sum's content, so the raw triple is the
    canonical one times an integer the prime does not divide, each factor's
    raw restriction a nonzero multiple of its canonical one, and the trial
    value the canonical triple's.  No sum's expanded terms are read; outer's
    terms are read from its canonical triple.  The memo lives for one
    attempt, so no oracle line persists in a map.
    """
    top = max((poly.degree for _, factors in outer._raw for poly, _ in factors), default=0)  # highest power used
    rng = random.Random(seed)
    answers = []
    for trial in range(_LINE_TRIALS):
        value = None
        for attempt in range(12):
            p = LINE_PRIMES[(trial + attempt) % len(LINE_PRIMES)]
            a = [rng.randint(-(10**6), 10**6) for _ in range(3)]
            b = [rng.randint(-(10**6), 10**6) for _ in range(3)]
            if all(v == 0 for v in a):
                continue
            curve = _restrict_components(inner._raw, LineMemo((p, a, b)).restriction, p)
            if curve is None:
                continue
            mul = partial(univ_mul_mod, p=p)
            powers = [list(accumulate(repeat(x, top), mul, initial=np.ones(1, dtype=np.int64))) for x in curve]
            images = _restrict_components(outer._factored, lambda P: _on_curve(P, powers, inner.degree, p), p)
            g = images[0]
            for r in images[1:]:
                g = univ_gcd_mod(g, r, p)
            value = max(len(r) for r in images) - len(g)
            break
        if value is None:
            raise OracleInconsistency(f"no degree-preserving line found in trial {trial}")
        answers.append(value)
    if len(set(answers)) != 1:
        raise OracleInconsistency(f"line trials disagree: {answers}")
    return answers[0]


def _restrict_components(factored, restrict, p: int):
    """Each component's image mod p, restrict(factor) giving a factor's; None if some image is None.

    A factor shared by several components (an atom of the composition's base)
    is restricted once, and each restriction is raised to its exponent by
    binary powering: a factor slot with exponent e costs at most
    popcount(e) + bit_length(e) univariate products.  A zero component
    (unit 0) restricts to zero, which leaves a gcd unchanged.
    """
    restricted = {}  # id(factor) -> its restriction; every factor stays alive in factored
    out = []
    for unit, factors in factored:
        r = np.array([unit % p] if unit % p else [], dtype=np.int64)
        for poly, e in factors:
            rp = restricted.get(id(poly))
            if rp is None:
                rp = restricted[id(poly)] = restrict(poly)
                if rp is None:
                    return None
            r = univ_mul_mod(r, univ_pow_mod(rp, e, p), p)
        out.append(r)
    return out


def _on_curve(P: HomoPoly, powers, degree: int, p: int) -> np.ndarray:
    """P mod p on a curve of the given degree, powers[c][e] the e-th power of its c-th array.

    Term by term: c x0^i x1^j x2^k adds c times the product of three powers,
    of degree at most (i + j + k) * degree.
    """
    terms = ((c, (powers[0][i], powers[1][j], powers[2][k])) for i, j, k, c in P.items())
    return weighted_sum_mod(terms, P.degree * degree + 1, p)


# ---------------------------------------------------------------------------
# Involution geometry checks
# ---------------------------------------------------------------------------

BASE_POINTS = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
# contracted lines: x0 = x1 + x2, x1 = x2 + x0, x2 = x0 + x1, parametrized
_LINE_SAMPLES = (
    lambda s, t: (s + t, s, t),
    lambda s, t: (s, s + t, t),
    lambda s, t: (s, t, s + t),
)
_SAMPLE_PARAMS = ((1, 1), (1, 2), (2, 1))


@dataclass
class InvolutionReport:
    involution_identity: bool = False
    cremona_conjugacy: bool = False
    line_contractions: list = field(default_factory=list)

    def all_passed(self) -> bool:
        return (
            self.involution_identity
            and self.cremona_conjugacy
            and all(self.line_contractions)
        )


def _proportional(u, v) -> bool:
    """Projective equality of integer triples (nonzero cross products vanish)."""
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return False
    return (
        u[0] * v[1] == u[1] * v[0]
        and u[0] * v[2] == u[2] * v[0]
        and u[1] * v[2] == u[2] * v[1]
    )


def involution_checks() -> InvolutionReport:
    """Verify the involution identity, the conjugacy to the standard quadratic
    involution, and the contraction of each special line to its point."""
    report = InvolutionReport()
    g = g_map()

    gg = compose(g, g)
    report.involution_identity = gg.same_map(identity_map())
    if not report.involution_identity:
        raise CheckFailed("g o g did not reduce to the identity map")

    a = conjugating_map()
    a_inv = conjugating_map_inverse()
    conj = compose(a, compose(g, a_inv))
    report.cremona_conjugacy = conj.same_map(cremona_map())
    if not report.cremona_conjugacy:
        raise CheckFailed("A o g o A^-1 did not reduce to [x1x2 : x2x0 : x0x1]")

    for j in range(3):
        ok = True
        for (s, t) in _SAMPLE_PARAMS:
            image = g.evaluate(_LINE_SAMPLES[j](s, t))
            if not _proportional(image, BASE_POINTS[j]):
                ok = False
        report.line_contractions.append(ok)
        if not ok:
            raise CheckFailed(f"line {j} did not contract to the expected point")
    return report
