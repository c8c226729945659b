"""Sparse homogeneous trivariate polynomials over Z with exact gcd machinery.

Representation: a homogeneous polynomial of degree d in (x0, x1, x2) stores
only nonzero coefficients, keyed by the packed exponent pair (i << 11) | j;
the x2 exponent is d - i - j.  Degrees are capped at 2047 by the packing.

A product takes one of three exact routes, picked by the operands alone.
When one operand has a single term, its key is added to every key of the
other and its coefficient multiplies every coefficient, on Python integers:
exact at any size, with no bound to check.  Otherwise, when
ba + bb + (shorter term count).bit_length() <= 63, with ba and bb the bit
lengths of the largest coefficient magnitudes, and the product's bounding
box has at most ``_GATHER_CHUNK`` slots per pair of terms, an int64
scatter-add over that box (``_mul_int64``, where the proof is), which no
partial sum can overflow; otherwise the dict loop on Python integers, exact
at any size.

``restrict_line_exact`` expands P(a*t + b) term by term on Python ints; it
shares no code with the mod-p kernels, and the tests use it as their
independent reference for ``restrict_line_mod``.

Everything modular, ``restrict_line_mod`` included, runs on the line
primes and the residue-array kernels of ``modp``, under its int64 rule.  A
constant gcd of the restrictions to a line that keeps both degrees proves
coprimality (``certify_coprime``); a nonzero remainder proves
non-division.  One gcd on a line proves a polynomial P coprime to a whole set of atoms: if P and the
atoms keep their degrees on L and gcd(P|L, prod A|L) is constant, then so
is every common factor of P and an atom, since it keeps its degree on L
and its restriction divides both (gcd(P, prod A) = 1 exactly when P is
coprime to each A).  Every restriction and the powers raised of it live
in one store, a ``LineMemo`` per line, keyed by the polynomial restricted.
A ``CoprimeBase`` draws its certificate lines once, keeps one memo for
each, and tests a polynomial against one atom or many by that one gcd per
line, the product of the atoms' restrictions reduced mod P|L.
``homo_gcd`` is the heuristic gcd GCDHEU: integer gcds of values at
x1 = s*x2, x0 = r*x2 read back as symmetric digits, returned only after
``divexact`` divides both inputs and the degree meets the bound that a gcd
of line restrictions gives.

A sum of atom-power products enters a base unexpanded, as a ``SumAtom``:
its terms, its restrictions through its atoms, and its degree, which a
restriction that keeps it proves, so a degree is proven from line
certificates of unexpanded sums.  One rule holds on every line, a base's or
the line oracle's: a sum's restriction is read only through its atoms'
restrictions, and where that fails, because an atom loses degree on the
line or the line's prime divides the sum's content, the restriction is
None, a line that proves nothing.  The expanded terms, content and sign of
a sum are computed on first read, and only four events read them: a zero
remainder that ``divexact`` must confirm, a gcd that ``homo_gcd`` must
settle, a sum that keeps its degree on no base line (a vanished sum raises
ReductionFailure there), and a caller reading terms.  A sum past the 2047
packing cap is never expanded: ``SumAtom.canonical`` raises ValueError
before any product.  A ``SumAtom`` is raw: its content and sign stay in
it, and its restrictions are those of the sum itself, which certificates
read up to a nonzero scalar.
"""

from __future__ import annotations

import heapq
from collections import Counter
from math import gcd as igcd

import numpy as np

from .errors import ReductionFailure
from .modp import (
    LINE_PRIMES,
    _interpolate_mod,
    _power_table,
    _product_mod,
    _univ_rem_mod,
    univ_gcd_mod,
    univ_pow_mod,
    weighted_sum_mod,
)
from .powering import binary_power

_J_BITS = 11
_J_MASK = (1 << _J_BITS) - 1
MAX_PACKED_DEGREE = _J_MASK  # 2047


def _pack(i: int, j: int) -> int:
    return (i << _J_BITS) | j


def _unpack(key: int):
    return key >> _J_BITS, key & _J_MASK


# terms of the shorter factor taken per step of the int64 product kernel, and
# the most box slots it allocates per pair of terms
_GATHER_CHUNK = 64


def _coeff_bits(terms: dict) -> int:
    """Bit length of the largest coefficient magnitude."""
    return max(map(abs, terms.values())).bit_length()


def _mul_int64(a: dict, b: dict) -> dict | None:
    """Terms of the product of the term dicts a and b, summed in one int64 array.

    Each term gets an index in the product's bounding box: row i - i0, column
    j - j0, where (i0, j0) is the smallest (i, j) of the product and a row is
    as wide as the product's j-range.  The operands split the offsets between
    them, so the index of a product term is the sum of its factors' indices.
    ``_GATHER_CHUNK`` terms of a at a time, the outer sums of the indices and
    the outer products of the coefficients are raveled and ``np.add.at``-ed
    into one zeroed accumulator, whose nonzero slots are the product's terms
    (with a 2-D index array, ``np.add.at`` takes a much slower path).

    None, for the dict loop, when the box has more than ``_GATHER_CHUNK``
    slots per pair of terms: the accumulator then stays within
    ``_GATHER_CHUNK`` times the outer arrays the chunks build, and a sparse
    product over a wide box, such as (x0^1000 + x1^1000)^2, allocates no
    2001 x 2001 array for its three terms.

    Exact when ba + bb + len(a).bit_length() <= 63, with ba and bb the bit
    lengths of the largest coefficient magnitudes of a and b (``__mul__``
    checks this).  For a fixed term of a, a product key has at most one
    partner in b, so a slot receives at most len(a) < 2^len(a).bit_length()
    contributions, each of magnitude below 2^(ba + bb).  Every partial sum,
    in any order, is therefore below 2^63 in magnitude and no int64 value
    overflows.
    """
    ka = np.fromiter(a, dtype=np.int64, count=len(a))
    kb = np.fromiter(b, dtype=np.int64, count=len(b))
    ia, ja, ib, jb = ka >> _J_BITS, ka & _J_MASK, kb >> _J_BITS, kb & _J_MASK
    i0, j0 = int(ia.min() + ib.min()), int(ja.min() + jb.min())
    width = int(ja.max() + jb.max()) - j0 + 1
    height = int(ia.max() + ib.max()) - i0 + 1
    if height * width > _GATHER_CHUNK * len(a) * len(b):
        return None
    xa = (ia - ia.min()) * width + (ja - ja.min())
    xb = (ib - ib.min()) * width + (jb - jb.min())
    ca = np.fromiter(a.values(), dtype=np.int64, count=len(a))
    cb = np.fromiter(b.values(), dtype=np.int64, count=len(b))
    acc = np.zeros(height * width, dtype=np.int64)
    for s in range(0, len(a), _GATHER_CHUNK):
        chunk = slice(s, s + _GATHER_CHUNK)
        np.add.at(acc, np.add.outer(xa[chunk], xb).ravel(), np.multiply.outer(ca[chunk], cb).ravel())
    slots = np.flatnonzero(acc)
    keys = ((slots // width + i0) << _J_BITS) | (slots % width + j0)
    return dict(zip(keys.tolist(), acc[slots].tolist()))


class HomoPoly:
    """Homogeneous trivariate polynomial with exact integer coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        if degree < 0 or degree > MAX_PACKED_DEGREE:
            raise ValueError(f"degree {degree} outside [0, {MAX_PACKED_DEGREE}]")
        self.degree = degree
        self.terms = terms  # packed key -> nonzero int

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_triples(degree: int, triples) -> "HomoPoly":
        terms = {}
        for (i, j, k, c) in triples:
            if c == 0:
                continue
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponents ({i},{j},{k}) not homogeneous of degree {degree}")
            key = _pack(i, j)
            terms[key] = terms.get(key, 0) + c
        return HomoPoly(degree, {k: c for k, c in terms.items() if c})

    @staticmethod
    def monomial(c: int, i: int, j: int, k: int) -> "HomoPoly":
        return HomoPoly.from_triples(i + j + k, [(i, j, k, c)])

    @staticmethod
    def zero(degree: int = 0) -> "HomoPoly":
        return HomoPoly(degree, {})

    def items(self):
        d = self.degree
        for key, c in self.terms.items():
            i, j = _unpack(key)
            yield i, j, d - i - j, c

    # -- predicates / metrics ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, HomoPoly)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        n = len(self.terms)
        return f"HomoPoly(degree={self.degree}, terms={n})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "HomoPoly") -> "HomoPoly":
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        deg = other.degree if self.is_zero() else self.degree
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return HomoPoly(deg, out)

    def __neg__(self) -> "HomoPoly":
        return HomoPoly(self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        return self + (-other)

    def scale(self, n: int) -> "HomoPoly":
        if n == 0:
            return HomoPoly.zero(self.degree)
        return HomoPoly(self.degree, {k: c * n for k, c in self.terms.items()})

    def __mul__(self, other: "HomoPoly") -> "HomoPoly":
        if self.is_zero() or other.is_zero():
            return HomoPoly.zero(self.degree + other.degree)
        deg = self.degree + other.degree
        if deg > MAX_PACKED_DEGREE:
            raise ValueError(f"product degree {deg} exceeds packing cap")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ka, ca),) = a.items()
            return HomoPoly(deg, {ka + kb: ca * cb for kb, cb in b.items()})
        if _coeff_bits(a) + _coeff_bits(b) + len(a).bit_length() <= 63:
            out = _mul_int64(a, b)
            if out is not None:
                return HomoPoly(deg, out)
        out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb
        return HomoPoly(deg, {k: c for k, c in out.items() if c})

    def pow(self, n: int) -> "HomoPoly":
        return binary_power(self, n, HomoPoly.monomial(1, 0, 0, 0))

    def evaluate(self, x0: int, x1: int, x2: int) -> int:
        total = 0
        for i, j, k, c in self.items():
            total += c * x0**i * x1**j * x2**k
        return total

    # -- normalization --------------------------------------------------------

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = igcd(g, c)
            if g == 1:
                return 1
        return g

    def sign_anchor(self) -> int:
        """Sign of the coefficient at the lexicographically first exponent triple."""
        if self.is_zero():
            return 0
        c = self.terms[min(self.terms)]
        return 1 if c > 0 else -1

    def primitive_normalized(self):
        """(unit * content, primitive polynomial with positive anchor coefficient)."""
        if self.is_zero():
            return 0, self
        cont = self.content()
        sign = self.sign_anchor()
        scale = cont * sign
        if scale == 1:
            return 1, self
        return scale, HomoPoly(self.degree, {k: c // scale for k, c in self.terms.items()})


def expand(unit: int, powers) -> HomoPoly:
    """unit times the product of the polynomials powers, multiplied in ascending order of term count."""
    result = HomoPoly.monomial(unit, 0, 0, 0)
    for power in sorted(powers, key=len):
        result = result * power
    return result


# ---------------------------------------------------------------------------
# Sparse exact division (heap-ordered single-divisor division)
# ---------------------------------------------------------------------------


def divexact(num: HomoPoly, den: HomoPoly):
    """num / den if den divides num exactly, else None."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return HomoPoly.zero(max(num.degree - den.degree, 0))
    if num.degree < den.degree:
        return None
    dd = num.degree - den.degree
    lead_key = max(den.terms)
    lead_c = den.terms[lead_key]
    li, lj = _unpack(lead_key)
    lk = den.degree - li - lj
    den_rest = [(k - lead_key, c) for k, c in den.terms.items() if k != lead_key]

    work = dict(num.terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    quotient: dict = {}
    while heap:
        key = -heapq.heappop(heap)
        c = work.pop(key, 0)
        if not c:
            continue
        i, j = _unpack(key)
        k_exp = num.degree - i - j
        qi, qj, qk = i - li, j - lj, k_exp - lk
        if qi < 0 or qj < 0 or qk < 0:
            return None
        qc, rem = divmod(c, lead_c)
        if rem:
            return None
        qkey = _pack(qi, qj)
        quotient[qkey] = qc
        for off, dc in den_rest:
            t = key + off  # == qkey + (term key of den)
            v = work.get(t, 0) - qc * dc
            if v:
                if t not in work:
                    heapq.heappush(heap, -t)
                work[t] = v
            else:
                work.pop(t, None)
    if work:
        return None
    return HomoPoly(dd, quotient)


# ---------------------------------------------------------------------------
# Modular line restrictions and the coprimality certificate
# ---------------------------------------------------------------------------


def restrict_line_mod(P: HomoPoly, a, b, p: int):
    """Coefficients of t -> P(a*t + b) mod p, via evaluation/interpolation.

    A reduced, stripped int64 array, descending; None exactly when P(a), the
    coefficient of t^d, vanishes mod p (a degenerate line for this
    certificate's purposes).

    The values at the nodes t = 0..d divide out a coordinate x_c that
    vanishes at no more than one node: one with a_c != 0 mod p, or with
    a_c = 0 and b_c != 0.  If there is none, a = b = 0 mod p and d >= 1, so
    P(a) = 0.  With the ratios r_u = x_u / x_c and r_v = x_v / x_c of the
    other two coordinates, the terms grouped by their exponent e_u, and
    S(e_u) the sum over one group of coefficient * r_v^e_v,

        P(x) = x_c^d * (sum over e_u of r_u^e_u * S(e_u)).

    Each S(e_u) is one int64 vector-matrix product of the group's
    coefficients with rows of the r_v power table.  At the node where x_c
    vanishes only the terms free of x_c contribute; they are summed there
    directly.  Every sum adds at most 2048 residue products (``modp``'s
    int64 rule): a group's terms have distinct e_v and the groups distinct
    e_u, so neither outnumbers d + 1 <= 2048.  The node vector x_c^d comes
    from binary powering, each step one product of two residue vectors.
    """
    d = P.degree
    ts = np.arange(d + 1, dtype=np.int64)
    xs = [(a[k] % p * ts + b[k] % p) % p for k in range(3)]
    c = next((k for k in range(3) if np.count_nonzero(xs[k] == 0) <= 1), None)
    if c is None or P.is_zero():
        return None
    u, v = (k for k in range(3) if k != c)
    n = len(P.terms)
    keys = np.fromiter(P.terms, dtype=np.int64, count=n)
    coeffs = np.fromiter((x % p for x in P.terms.values()), dtype=np.int64, count=n)
    i, j = keys >> _J_BITS, keys & _J_MASK
    exps = (i, j, d - i - j)
    xc = xs[c].tolist()
    inv = np.array([pow(x, -1, p) if x else 0 for x in xc], dtype=np.int64)
    order = np.argsort(exps[u])
    eu, ev, cf = exps[u][order], exps[v][order], coeffs[order]
    starts = np.flatnonzero(eu[1:] != eu[:-1]) + 1
    bounds = [0, *starts.tolist(), n]
    sums = np.zeros((int(eu[-1]) + 1, d + 1), dtype=np.int64)  # row e_u: the sum of its group
    v_table = _power_table(xs[v] * inv % p, int(ev.max()), p)
    for lo, hi in zip(bounds, bounds[1:]):
        sums[eu[lo]] = cf[lo:hi] @ v_table[ev[lo:hi]]
    del v_table  # one power table alive at a time
    sums %= p
    values = np.einsum("et,et->t", sums, _power_table(xs[u] * inv % p, len(sums) - 1, p)) % p
    values = values * binary_power(xs[c], d, 1, lambda x, y: x * y % p) % p
    if 0 in xc:
        t = xc.index(0)
        xu, xv = int(xs[u][t]), int(xs[v][t])
        free = np.flatnonzero(exps[c] == 0).tolist()
        values[t] = sum(
            int(coeffs[m]) * pow(xu, int(exps[u][m]), p) * pow(xv, int(exps[v][m]), p) for m in free
        ) % p
    coeffs_asc = _interpolate_mod(values, p)
    if coeffs_asc[d] == 0:
        return None
    return coeffs_asc[::-1].copy()


def restrict_line_exact(P: HomoPoly, a, b):
    """Exact integer coefficients (descending, stripped) of t -> P(a*t + b).

    Term by term on Python ints, the forms x_c = a_c*t + b_c and their powers
    as descending lists (a product of d forms has d + 1 entries, so all of
    them align at index 0): the terms with one x0 exponent i add
    c * x1^j * x2^k into one sum, which is then multiplied by x0^i.
    """
    def addmul(out, f, g):
        """out += f * g; returns out."""
        for m, x in enumerate(f):
            for n, y in enumerate(g):
                out[m + n] += x * y
        return out

    powers = [[[1]] for _ in range(3)]
    for c, table in enumerate(powers):
        for e in range(P.degree):
            table.append(addmul([0] * (e + 2), table[-1], [a[c], b[c]]))
    sums: dict = {}  # x0 exponent i -> sum of c * x1^j * x2^k over its terms
    for i, j, k, c in P.items():
        addmul(sums.setdefault(i, [0] * (j + k + 1)), [c * x for x in powers[1][j]], powers[2][k])
    coeffs = [0] * (P.degree + 1)
    for i, s in sums.items():
        addmul(coeffs, powers[0][i], s)
    lead = next((n for n, c in enumerate(coeffs) if c), len(coeffs))
    return coeffs[lead:]


# certificate lines drawn from one seed, by certify_coprime and by a CoprimeBase
_BASE_LINES = 4


def _certificate_lines(seed: int, count: int = _BASE_LINES):
    """Up to count seeded lines (p, a, b), t -> a*t + b mod p, with a != 0."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    lines = []
    for n in range(count):
        a = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, size=3)]
        b = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, size=3)]
        if any(a):
            lines.append((LINE_PRIMES[n % len(LINE_PRIMES)], a, b))
    return lines


class LineMemo:
    """Restrictions to one line (p, a, b) of the polynomials read on it, each computed once while the memo lives.

    An entry is keyed by ``id(P)`` and holds P itself, so no id is reused
    while the memo lives; P's restriction, by ``restrict_line_mod`` for a
    ``HomoPoly`` and by ``SumAtom.restrict`` for a sum, which reads its
    atoms' entries here (None where the restriction proves nothing); and the
    powers of the restriction raised so far, each once.  ``copy`` gives a
    memo with a new entry dict over the same entries: what the copy adds
    stays out of the original, and the powers raised through either are
    shared.
    """

    __slots__ = ("line", "entries")

    def __init__(self, line):
        self.line = line
        self.entries: dict = {}  # id(P) -> (P, restriction, {exponent: power})

    def copy(self) -> "LineMemo":
        got = LineMemo(self.line)
        got.entries = dict(self.entries)
        return got

    def _entry(self, P):
        got = self.entries.get(id(P))
        if got is None:
            p, a, b = self.line
            r = P.restrict(self) if isinstance(P, SumAtom) else restrict_line_mod(P, a, b, p)
            got = self.entries[id(P)] = (P, r, {})
        return got

    def restriction(self, P):
        """P restricted to the line mod p; None where that proves nothing."""
        return self._entry(P)[1]

    def power(self, P, e: int):
        """P's restriction raised to e, kept beside it; the restriction itself for e = 1 or None."""
        _, r, powers = self._entry(P)
        if r is None or e == 1:
            return r
        got = powers.get(e)
        if got is None:
            got = powers[e] = univ_pow_mod(r, e, self.line[0])
        return got


def certify_coprime(P: HomoPoly, Q: HomoPoly, seed: int = 0) -> bool:
    """True only with a proof that gcd(P, Q) is constant.

    The one-pair case of the coprime base's certificate
    (``CoprimeBase._certified_coprime``): on a seeded line on which both
    keep their degree mod p, a constant univariate gcd of the restrictions
    forces any common factor to be constant.  False means "unknown" (the
    caller falls back to ``homo_gcd``).  The certificate reads restrictions
    only up to a nonzero scalar, so Q enters the base as it is.
    """
    if P.is_zero() or Q.is_zero():
        return False
    base = CoprimeBase(seed)
    base.adopt(Q)
    return base._certified_coprime(P, (0,))


# ---------------------------------------------------------------------------
# Heuristic gcd, checked by exact division and a line-degree bound
# ---------------------------------------------------------------------------

# tries before homo_gcd gives up; each takes one more line and larger points
_GCD_TRIES = 8


def homo_gcd(P: HomoPoly, Q: HomoPoly) -> HomoPoly:
    """gcd in Z[x0,x1,x2] of homogeneous polynomials, sign-normalized.

    Integer content is included (gcd of the two contents), matching gcd
    semantics over Z[x0,x1,x2].

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput.
    1989) in homogeneous form.  The primitive parts set aside x2^m, m the
    smaller of their x2-orders; of what is left, P' and Q', at least one is
    not divisible by x2, so neither is G = gcd(P', Q'), and G is determined
    by G(x0, x1, 1).  Each try puts x1 = s*x2 and lifts a candidate from the
    gcd of the two binary forms (``_heuristic_candidate``).

    Why a returned result is the gcd: on a seeded line where P' and Q' keep
    their degree mod p, G keeps its degree too (G(a) divides P'(a), which is
    nonzero mod p), and its restriction divides the gcd of the restrictions,
    so the degree of that gcd bounds deg G from above, as does
    min(deg P', deg Q').
    A candidate C that ``divexact`` divides into both P' and Q' divides G,
    so deg C <= deg G.  C is returned only if its degree also equals the
    smallest bound seen, so deg C = deg G and G is an integer multiple of
    the primitive C.  A smallest bound of 0 proves G = 1.  Each try takes one
    more line and points grown by 73794/27011 (``_point``); after
    ``_GCD_TRIES`` tries ReductionFailure is raised, never an unproven result.
    """
    if P.is_zero() and Q.is_zero():
        return HomoPoly.zero(0)
    if P.is_zero():
        P, Q = Q, P
    if Q.is_zero():
        scale, G = P.primitive_normalized()
        return G.scale(abs(scale))
    content = igcd(P.content(), Q.content())
    P, Q = (F.primitive_normalized()[1] for F in (P, Q))
    m = min(min(F.degree - sum(_unpack(k)) for k in F.terms) for F in (P, Q))
    P, Q = HomoPoly(P.degree - m, P.terms), HomoPoly(Q.degree - m, Q.terms)
    shared = HomoPoly.monomial(content, 0, 0, m)
    best = min(P.degree, Q.degree)  # an upper bound on deg gcd(P, Q)
    for n, (p, a, b) in enumerate(_certificate_lines(0x6CD, _GCD_TRIES)):
        rp, rq = restrict_line_mod(P, a, b, p), restrict_line_mod(Q, a, b, p)
        if rp is not None and rq is not None:
            best = min(best, len(univ_gcd_mod(rp, rq, p)) - 1)
        if best == 0:
            return shared
        C = _heuristic_candidate(P, Q, n, best)
        if C is not None and C.degree == best and divexact(P, C) is not None and divexact(Q, C) is not None:
            return C * shared
    raise ReductionFailure(f"no gcd candidate divided both inputs in {_GCD_TRIES} tries")


def _heuristic_candidate(P: HomoPoly, Q: HomoPoly, n: int, best: int):
    """Primitive candidate of degree <= best for gcd(P, Q) from try n, or None.

    P(x0, s*x2, x2) and Q(x0, s*x2, x2), each with its own power of x2
    divided out, are binary forms f and g.  The gcd of their primitive parts
    is read off the integer gcd of their values at x0 = r*x2 as symmetric
    r-adic digits, and kept only if ``divexact`` divides it into both; the
    gcd of the contents of f and g goes back on.  Each coefficient of that
    gcd, read as symmetric s-adic digits, gives the x1-part of one x0-power
    of the candidate.  r is taken above s too, so that an input free of x1
    cannot put r on s (at r = s, x0^k and (6 x0 + 7 x1)^2 share s^2).  None
    when x1 - s*x2 divides an input (its form is zero), when the gcd of the
    forms does not divide them, or when the candidate would exceed degree best.
    """
    s = _point(min(_height(P), _height(Q)), n)
    forms = []
    for F in (P, Q):
        coeffs: dict = {}
        for i, j, _, c in F.items():
            coeffs[i] = coeffs.get(i, 0) + c * s**j
        coeffs = {i: c for i, c in coeffs.items() if c}
        if not coeffs:
            return None  # x1 - s*x2 divides F
        forms.append(HomoPoly(max(coeffs), {_pack(i, 0): c for i, c in coeffs.items()}))
    (cf, f), (cg, g) = (F.primitive_normalized() for F in forms)
    r = _point(max(_height(f), _height(g), s), n)
    digits = _symmetric_digits(igcd(f.evaluate(r, 0, 1), g.evaluate(r, 0, 1)), r)
    if len(digits) - 1 > best:
        return None
    H = HomoPoly(len(digits) - 1, {_pack(i, 0): c for i, c in enumerate(digits) if c})
    H = H.primitive_normalized()[1]
    if divexact(f, H) is None or divexact(g, H) is None:
        return None
    content = igcd(cf, cg)
    lifted = [
        (key >> _J_BITS, j, c)
        for key, h in H.terms.items()
        for j, c in enumerate(_symmetric_digits(h * content, s))
        if c
    ]
    degree = max(i + j for i, j, _ in lifted)
    if degree > best:
        return None
    C = HomoPoly.from_triples(degree, [(i, j, degree - i - j, c) for i, j, c in lifted])
    return C.primitive_normalized()[1]


def _point(height: int, n: int) -> int:
    """The point of try n for a height: 2 * height + 29, grown by 73794/27011 per try."""
    return (2 * height + 29) * 73794**n // 27011**n


def _height(F: HomoPoly) -> int:
    """The largest coefficient magnitude of F."""
    return max(map(abs, F.terms.values()))


def _symmetric_digits(n: int, base: int) -> list:
    """Digits of n in base >= 3, least significant first, each in (-base/2, base/2]."""
    digits = []
    while n:
        d = n % base
        if 2 * d > base:
            d -= base
        digits.append(d)
        n = (n - d) // base
    return digits


# ---------------------------------------------------------------------------
# Pairwise-coprime factor base
# ---------------------------------------------------------------------------


def scaled(exps, n: int) -> Counter:
    """The exponent multiset exps (atom index -> exponent) taken n times."""
    return Counter({idx: e * n for idx, e in exps.items()})


class SumAtom:
    """A sum S = sum of c * prod A^e over atoms A, held as its terms: no product is formed until S is read.

    ``parts`` is ((c, ((A, e), ...)), ...), over the atom objects the sum
    is formed from: a base that later splits or rescales an atom puts a new
    object at its index, so the sum keeps its meaning.  S is the raw sum:
    its content and sign stay in it.  ``degree`` is the degree every term
    has; it is S's only while S does not vanish, which a restriction
    keeping that degree proves.

    ``restrict`` gives S|L only through the atoms' restrictions, on any
    line; where they cannot give it (an atom loses degree on L, or p
    divides S's content) S|L is None, and the line proves nothing (see
    ``CoprimeBase``).  ``canonical()`` expands S on first read and keeps it
    as (unit, primitive sign-normalized part), the one copy of its terms;
    ``poly()`` gives S itself from it.  A sum that expands to zero raises
    ReductionFailure, and one past the packing cap ValueError, before any
    product.  A sum holds no restriction: a ``LineMemo`` holds the sum and
    its restrictions, so no reference cycle forms.
    """

    __slots__ = ("degree", "parts", "_canonical")

    def __init__(self, degree: int, parts):
        self.degree = degree
        self.parts = parts
        self._canonical = None

    def __repr__(self):
        return f"SumAtom(degree={self.degree}, terms={len(self.parts)})"

    def canonical(self, powers: dict | None = None):
        """(unit, P) with S = unit * P and P primitive with a positive anchor coefficient.

        S is expanded on the first call, its zero coefficients dropped once
        at the end.  powers, (id of an atom, e) -> the atom expanded and
        raised to e, is the caller's memo for one expansion: sums expanded
        together share their atoms' powers, and none is kept past it.
        """
        if self._canonical is None:
            if self.degree > MAX_PACKED_DEGREE:
                raise ValueError(f"sum degree {self.degree} exceeds packing cap {MAX_PACKED_DEGREE}")
            powers = {} if powers is None else powers
            sums = Counter()
            for c, factors in self.parts:
                sums.update(expand(c, [_atom_power(A, e, powers) for A, e in factors]).terms)
            total = HomoPoly(self.degree, {key: v for key, v in sums.items() if v})
            if total.is_zero():
                raise ReductionFailure("a sum of atom-power products vanished")
            self._canonical = total.primitive_normalized()
        return self._canonical

    def poly(self, powers: dict | None = None) -> HomoPoly:
        """S expanded: its primitive part times its unit (a new polynomial unless the unit is 1)."""
        unit, P = self.canonical(powers)
        return P if unit == 1 else P.scale(unit)

    def restrict(self, memo: "LineMemo"):
        """S|L on the memo's line (p, a, b) through the atoms' restrictions held there; None if that fails.

        Restriction to a line followed by reduction mod p is a ring
        homomorphism, so S|L is the same sum of products of the atoms'
        restrictions, each power raised once per line (``LineMemo.power``).
        A term whose atoms all keep their degree has degree exactly deg S on
        the line (p is prime), so the terms align, and a result that keeps
        deg S is ``restrict_line_mod`` of S (the residue array is unique).
        None when an atom loses degree (its restriction is None, not its
        shorter restriction) or when the sum does, p dividing S's content
        included: S is never expanded here.
        """
        if any(memo.restriction(A) is None for _, factors in self.parts for A, _ in factors):
            return None
        terms = ((c, (memo.power(A, e) for A, e in factors)) for c, factors in self.parts)
        got = weighted_sum_mod(terms, self.degree + 1, memo.line[0])
        return got if len(got) > self.degree else None


def expanded(P, powers: dict | None = None) -> HomoPoly:
    """The terms of P: P itself, or a ``SumAtom`` expanded (powers as in ``SumAtom.canonical``)."""
    return P.poly(powers) if isinstance(P, SumAtom) else P


def _atom_power(A, e: int, powers: dict) -> HomoPoly:
    """A expanded and raised to e, kept in the memo powers under (id(A), e)."""
    key = (id(A), e)
    got = powers.get(key)
    if got is None:
        got = powers[key] = expanded(A, powers).pow(e)
    return got


class Product:
    """unit * prod atoms[idx]^e over exps, a Counter {atom index: exponent} of one coprime base.

    The base that made it (``CoprimeBase.track``) keeps it naming the same
    polynomial across its splits: where an atom is replaced, the unit and
    the atoms that make up the difference go into unit and exps.
    """

    __slots__ = ("unit", "exps")

    def __init__(self, unit: int = 1, exps=None):
        self.unit = unit
        self.exps = Counter() if exps is None else exps

    def __repr__(self):
        return f"Product({self.unit}, {dict(self.exps)})"

    def times(self, other: "Product", n: int = 1) -> "Product":
        """Multiply self by other^n in place; returns self."""
        if n:
            self.unit *= other.unit**n
            self.exps.update(scaled(other.exps, n))
        return self


class CoprimeBase:
    """Maintains a list of pairwise-coprime polynomials (the atoms).

    ``decompose`` expresses a polynomial as a ``Product`` unit * product of
    atom powers, inserting new atoms (and splitting existing ones) as
    needed; ``decompose_sum`` does the same for a sum of products of atom
    powers.  An atom is a primitive sign-normalized ``HomoPoly``, or a
    ``SumAtom``: a sum entered unexpanded, content and sign included.  The
    base owns the splits: every ``Product`` that ``decompose`` returns or
    ``track`` makes keeps naming the same polynomial across them, its unit
    included.

    The base draws its certificate lines once, from its seed, and keeps one
    ``LineMemo`` per line (``memos``), so each polynomial it reads, an atom
    or a leftover being decomposed, is restricted to each line at most
    once.  Both certificates read these restrictions: a nonzero remainder
    on a line refutes that an atom divides, and a constant gcd on a line
    proves that a polynomial is coprime to one atom or to several at once.
    Each decides only up to a nonzero scalar (remainder zero-ness, gcd
    degree, line degree), so a sum decides the same with or without its
    content.

    ``decompose`` first tests the polynomial P against the whole base, one
    gcd per line: gcd(P|L, prod A|L) over the atoms that keep their degree
    on L, the product reduced mod P|L after each factor.  A constant gcd
    proves P coprime to each of those atoms: a common factor G of P and an
    atom A keeps its degree on L (G(a) divides A(a), nonzero mod p), so G|L
    divides both, and G is constant.  A P so proven coprime to every atom
    enters as a new atom, with no division test and no per-atom gcd; that
    is where the per-atom route ends too, so the atoms, exponent vectors and
    units are the same.  Otherwise (a nonconstant gcd over two or more
    atoms, or an atom that keeps its degree on no line on which P keeps its)
    the per-atom route runs: division tests, then one certificate per atom
    by the same formula, then ``homo_gcd``.

    A sum is restricted to a line, any line and not only the base's, only
    through its atoms (``SumAtom.restrict``); where that fails, because an
    atom of the sum loses degree on the line or the line's prime divides the
    sum's content, the restriction is None, which the base reads as a line
    that loses degree: a skipped line forgoes a certificate and proves
    nothing.  A degree is proven from these line certificates alone: a sum
    whose restriction to a base line keeps its degree, and that no
    certificate ties to an atom, enters the base unexpanded.  Only four
    events expand a sum: a zero remainder, which ``divexact`` must confirm;
    a gcd on no line constant, which ``homo_gcd`` must settle (and a split
    may follow); no base line keeping its degree (a sum that vanishes
    raises ReductionFailure there); and a caller reading its terms.

    A split or a rescaling puts a new object at the atom's index; the old
    one stays in the sums formed from it and keeps its memo entries, so a
    late read of a sum's restriction still multiplies the restrictions of
    the atoms the sum was formed from.  No memo refers to the base, so a
    base leaves no reference cycle and is freed as soon as its caller drops
    it, and a base of the same seed can start from copies of its memos
    (``adopt``).
    """

    def __init__(self, seed: int = 0):
        self.atoms: list = []
        self.seed = seed
        self.memos = [LineMemo(line) for line in _certificate_lines(seed)]
        self._tracked: list = []  # every Product of this base, kept current across splits

    def track(self, unit: int = 1, exps=None) -> Product:
        """A new ``Product`` unit * prod atoms[idx]^e over exps, kept current across splits."""
        got = Product(unit, exps)
        self._tracked.append(got)
        return got

    def adopt(self, atom) -> int:
        """Enter atom as a new atom; returns its index.

        No certificate is taken: the caller vouches that atom is coprime to
        every atom already here, a ``HomoPoly`` atom primitive and
        sign-normalized.  That is what ``decompose`` would find, so it would
        enter atom the same way, with unit 1.  Its restrictions and powers
        are those in ``memos``: a base whose memos are copies of another
        base's (the same seed draws the same lines) reads those already
        taken there.
        """
        self.atoms.append(atom)
        return len(self.atoms) - 1

    def decompose_sum(self, terms) -> Product:
        """The ``Product`` of the sum of c * prod atoms[idx]^e over terms.

        terms is a list of (c, exps), with exps a Counter {idx: e}, every
        term of one degree.  A sum of degree 0 is the integer sum of the c.
        Otherwise the sum is a ``SumAtom`` over the atoms it names, and its
        restrictions to lines come from theirs (see the class docstring);
        the result is that of ``decompose`` on it.
        """
        degree = sum(e * self.atoms[idx].degree for idx, e in terms[0][1].items())
        if degree == 0:
            total = sum(c for c, _ in terms)
            if not total:
                raise ReductionFailure("a sum of atom-power products vanished")
            return self.track(total)
        parts = tuple((c, tuple((self.atoms[idx], e) for idx, e in exps.items())) for c, exps in terms if c)
        return self.decompose(SumAtom(degree, parts))

    def decompose(self, poly) -> Product:
        """poly as a tracked ``Product`` unit * prod atoms[idx]^e.

        A ``HomoPoly`` loses its content and sign to the unit first.  A
        ``SumAtom`` keeps them, so its unit is 1 unless an atom divides it.
        """
        if isinstance(poly, SumAtom):
            unit, P = 1, poly
        elif poly.is_zero():
            raise ValueError("cannot decompose the zero polynomial")
        else:
            unit, P = poly.primitive_normalized()
        out = self.track(unit)
        if P.degree >= 1 and self._certified_coprime(P, range(len(self.atoms))):
            out.exps[self.adopt(P)] += 1  # coprime to the whole base: a new atom
            return out

        def divide_out():
            nonlocal P
            idx = 0
            while idx < len(self.atoms):
                q = self._quotient(P, idx)
                if q is not None:
                    out.exps[idx] += 1
                    s, P = q.primitive_normalized()
                    out.unit *= s
                    continue  # same atom may divide again
                idx += 1

        divide_out()
        while P.degree >= 1:
            # coprime-ify the leftover against the base, splitting as required
            for aidx, atom in enumerate(self.atoms):
                if self._certified_coprime(P, (aidx,)):
                    continue
                _, g = homo_gcd(expanded(P), expanded(atom)).primitive_normalized()
                if g.degree >= 1:
                    self._split_atom(aidx, g)  # rewrites out too, if the atom already divided P
                    break
            else:
                # genuinely new atom; a sum's degree needs a line that keeps it
                if isinstance(P, SumAtom) and all(memo.restriction(P) is None for memo in self.memos):
                    P.poly()  # nonzero, or ReductionFailure
                out.exps[self.adopt(P)] += 1
                P = HomoPoly.monomial(1, 0, 0, 0)
                break
            # retry division from the top with the refined base
            divide_out()
        if P.degree == 0:
            s, _ = P.primitive_normalized()
            out.unit *= s if s else 1
        return out

    def _quotient(self, P, idx: int):
        """P / atom idx, or None.

        A nonzero remainder of the restrictions to the first line on which both
        keep their degree proves the atom does not divide P, as A | P forces
        A|L | P|L mod p.  Otherwise ``divexact`` decides, on P expanded and on
        the atom made primitive (``_primitive_atom``).
        """
        atom = self.atoms[idx]
        if atom.degree > P.degree:
            return None
        for memo in self.memos:
            rp, ra = memo.restriction(P), memo.restriction(atom)
            if rp is not None and ra is not None:
                if len(_univ_rem_mod(rp, ra, memo.line[0])):
                    return None
                break
        return divexact(expanded(P), self._primitive_atom(idx))

    def _certified_coprime(self, P, idxs) -> bool:
        """True if constant gcds on the base lines prove P coprime to every atom in idxs.

        Line by line, on each line L on which P keeps its degree, the atoms
        of idxs not yet proven coprime that keep their degree on L are
        tested at once: if gcd(P|L, prod A|L) is constant, P is coprime to
        each of them.  A common factor G of P and an atom A keeps its degree
        on L, as G(a) divides A(a), nonzero mod p; G|L then divides P|L and
        A|L, so G is constant.  The product is reduced mod P|L after each
        factor (``_product_mod``), for one atom as for many.  A nonconstant
        gcd over one atom forgoes that line's certificate and the next line
        is tried; over two or more it ends the test (some atom likely shares
        a factor, and the per-atom route finds which).  An empty idxs needs a
        line on which P keeps its degree, the proof that a sum does not
        vanish.
        """
        left = list(idxs)
        for memo in self.memos:
            rp = memo.restriction(P)
            if rp is None:
                continue
            here = [idx for idx in left if memo.restriction(self.atoms[idx]) is not None]
            if here:
                p = memo.line[0]
                factors = [memo.restriction(self.atoms[idx]) for idx in here]
                if len(univ_gcd_mod(rp, _product_mod(factors, rp, p), p)) > 1:
                    if len(here) > 1:
                        return False
                    continue
            left = [idx for idx in left if idx not in here]
            if not left:
                return True
        return False

    def _replace(self, idx: int, atom):
        """Put atom at idx; returns [(product, exponent)] of the tracked products that named idx."""
        named = [(got, got.exps[idx]) for got in self._tracked if got.exps.get(idx)]
        self.atoms[idx] = atom
        return named

    @staticmethod
    def _rewrite(named, rest: Product):
        """The replaced atom was its replacement times rest: each named product takes rest in, to its exponent."""
        for got, n in named:
            got.times(rest, n)

    def _primitive_atom(self, idx: int) -> HomoPoly:
        """Atom idx, a ``SumAtom`` first replaced by its primitive part, which divides whatever the sum divides.

        The primitive part P is expanded for ``divexact`` anyway, so its
        restrictions come from ``restrict_line_mod`` of P.
        """
        atom = self.atoms[idx]
        if isinstance(atom, SumAtom):
            unit, P = atom.canonical()
            self._rewrite(self._replace(idx, P), Product(unit))
        return self.atoms[idx]

    def _split_atom(self, aidx: int, g: HomoPoly):
        """Replace atom a with its factor g; a/g, decomposed, joins every tracked vector that names a.

        g and a/g may share a factor (a = x0^2 (x1+x2), g = x0 (x1+x2)): the
        decomposition of a/g then splits g in turn, so the atoms stay coprime.
        The unit of a/g (the content and sign of a ``SumAtom`` a) goes into
        the unit of each product that names a.
        """
        cof = divexact(expanded(self.atoms[aidx]), g)
        if cof is None:
            raise ReductionFailure("claimed factor does not divide its atom")
        named = self._replace(aidx, g)
        self._rewrite(named, self.decompose(cof))
