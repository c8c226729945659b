"""Sparse homogeneous trivariate polynomials over Z with exact gcd machinery.

Representation: a homogeneous polynomial of degree d in (x0, x1, x2) stores
only nonzero coefficients, keyed by the packed exponent pair (i << 11) | j;
the x2 exponent is d - i - j.  Degrees are capped at 2047 by the packing.

The gcd of two homogeneous polynomials is computed by stripping the common
x2 power, dehomogenizing at x2 = 1 to a bivariate polynomial, running a
subresultant polynomial-remainder-sequence gcd in Z[x1][x0] with content
extraction at each level, and rehomogenizing.  A cheap deterministic
coprimality certificate via restriction to a degree-preserving line (gcd of
the univariate images mod p) avoids the full PRS in the common case.
"""

from __future__ import annotations

import heapq
from math import gcd as igcd

import numpy as np

from .errors import ReductionFailure

_J_BITS = 11
_J_MASK = (1 << _J_BITS) - 1
MAX_PACKED_DEGREE = _J_MASK  # 2047


def _pack(i: int, j: int) -> int:
    return (i << _J_BITS) | j


def _unpack(key: int):
    return key >> _J_BITS, key & _J_MASK


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

    def sorted_items(self):
        d = self.degree
        for key in sorted(self.terms):
            i, j = _unpack(key)
            yield i, j, d - i - j, self.terms[key]

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
        if len(a) * len(b) > 1_500_000:
            return _kronecker_mul(self, other)
        out: dict = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb
        return HomoPoly(deg, {k: c for k, c in out.items() if c})

    def pow(self, n: int) -> "HomoPoly":
        if n < 0:
            raise ValueError("negative exponent")
        result = HomoPoly.monomial(1, 0, 0, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


# ---------------------------------------------------------------------------
# Kronecker-substitution multiplication: pack coefficients into one big integer
# per operand and let bignum multiplication do the convolution.
# ---------------------------------------------------------------------------


def _pack_to_int(P: HomoPoly, stride: int, slot_bits: int) -> int:
    """Signed packing: sum of c * 2^(slot_bits * (i*stride + j))."""
    nbytes = slot_bits // 8
    max_slot = P.degree * stride + P.degree
    pos = bytearray((max_slot + 1) * nbytes)
    neg = bytearray((max_slot + 1) * nbytes)
    for key, c in P.terms.items():
        i, j = _unpack(key)
        off = (i * stride + j) * nbytes
        if c > 0:
            pos[off : off + nbytes] = c.to_bytes(nbytes, "little")
        else:
            neg[off : off + nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_mul(A: HomoPoly, B: HomoPoly) -> HomoPoly:
    deg = A.degree + B.degree
    stride = deg + 1
    bits_a = max(abs(c) for c in A.terms.values()).bit_length()
    bits_b = max(abs(c) for c in B.terms.values()).bit_length()
    slot_bits = bits_a + bits_b + min(len(A.terms), len(B.terms)).bit_length() + 2
    slot_bits = ((slot_bits + 7) // 8) * 8
    n = _pack_to_int(A, stride, slot_bits) * _pack_to_int(B, stride, slot_bits)
    nslots = deg * stride + deg + 1
    # shift every slot by half its range so all digits become nonnegative
    half = 1 << (slot_bits - 1)
    offset = ((1 << (slot_bits * nslots)) - 1) // ((1 << slot_bits) - 1) * half
    m = n + offset
    nbytes = slot_bits // 8
    raw = m.to_bytes(nslots * nbytes + 16, "little")
    arr = np.frombuffer(raw[: nslots * nbytes], dtype=np.uint8).reshape(nslots, nbytes)
    nonzero_rows = np.nonzero(arr.any(axis=1))[0]
    out: dict = {}
    for s in nonzero_rows:
        c = int.from_bytes(arr[s].tobytes(), "little") - half
        if c:
            i, j = divmod(int(s), stride)
            out[_pack(i, j)] = c
    return HomoPoly(deg, out)


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
# Dense recursive machinery for subresultant gcd: dup = Z[x], dmp1 = Z[x1][x0]
# Lists are coefficient sequences with the leading coefficient first.
# ---------------------------------------------------------------------------


def _dup_strip(f):
    i = 0
    while i < len(f) and f[i] == 0:
        i += 1
    return f[i:]


def _dup_neg(f):
    return [-c for c in f]


def _dup_sub(f, g):
    if len(f) < len(g):
        f = [0] * (len(g) - len(f)) + f
    elif len(g) < len(f):
        g = [0] * (len(f) - len(g)) + g
    return _dup_strip([a - b for a, b in zip(f, g)])


def _dup_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _dup_strip(out)


def _dup_mul_ground(f, c):
    if c == 0:
        return []
    return [a * c for a in f]


def _dup_quo_ground(f, c):
    out = []
    for a in f:
        q, r = divmod(a, c)
        if r:
            raise ReductionFailure("inexact ground division in remainder sequence")
        out.append(q)
    return out


def _dup_pow(f, n):
    result = [1]
    base = f
    while n:
        if n & 1:
            result = _dup_mul(result, base)
        base = _dup_mul(base, base)
        n >>= 1
    return result


def _dup_content(f):
    g = 0
    for c in f:
        g = igcd(g, c)
        if g == 1:
            return 1
    return g


def _dup_primitive(f):
    if not f:
        return 0, f
    c = _dup_content(f)
    sign = 1 if f[0] > 0 else -1
    c *= sign
    return c, [a // c for a in f]


def _dup_prem(f, g):
    """Pseudo-remainder of f by g: lc(g)^(df-dg+1) f mod g."""
    df, dg = len(f) - 1, len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    r = list(f)
    if df < dg:
        return r
    N = df - dg + 1
    lc_g = g[0]
    dr = df
    while dr >= dg:
        lc_r = r[0]
        N -= 1
        r = _dup_sub(_dup_mul_ground(r, lc_g), _dup_mul_ground(g + [0] * (dr - dg), lc_r))
        dr = len(r) - 1
    return _dup_mul_ground(r, lc_g**N) if N > 0 else r


def _dup_subresultants(f, g):
    """Subresultant PRS of f, g (Brown's algorithm)."""
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        f, g = g, f
        n, m = m, n
    if not f:
        return []
    if not g:
        return [f]
    prs = [f, g]
    d = n - m
    b = (-1) ** (d + 1)
    h = _dup_mul_ground(_dup_prem(f, g), b)
    lc = g[0]
    c = -(lc**d)
    while h:
        k = len(h) - 1
        prs.append(h)
        f, g, m, d = g, h, k, m - k
        b = -lc * c**d
        h = _dup_quo_ground(_dup_prem(f, g), b)
        lc = g[0]
        if d > 1:
            c = -((-lc) ** d // c ** (d - 1))
        else:
            c = -lc
    return prs


def _dup_gcd(f, g):
    """gcd in Z[x], positive leading coefficient."""
    if not f:
        c, pg = _dup_primitive(g)
        return _dup_mul_ground(pg, abs(c)) if g else []
    if not g:
        c, pf = _dup_primitive(f)
        return _dup_mul_ground(pf, abs(c))
    fc, fp = _dup_primitive(f)
    gc, gp = _dup_primitive(g)
    c = igcd(abs(fc), abs(gc))
    prs = _dup_subresultants(fp, gp)
    h = prs[-1]
    if len(h) - 1 == 0:
        return [c]
    _, hp = _dup_primitive(h)
    return _dup_mul_ground(hp, c)


def _dmp1_strip(f):
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def _dmp1_sub(f, g):
    if len(f) < len(g):
        f = [[] for _ in range(len(g) - len(f))] + f
    elif len(g) < len(f):
        g = [[] for _ in range(len(f) - len(g))] + g
    return _dmp1_strip([_dup_sub(a, b) for a, b in zip(f, g)])


def _dmp1_mul_dup(f, c):
    if not c:
        return []
    return _dmp1_strip([_dup_mul(a, c) for a in f])


def _dmp1_quo_dup(f, c):
    out = []
    for a in f:
        if not a:
            out.append([])
            continue
        q = _dup_exact_div(a, c)
        if q is None:
            raise ReductionFailure("inexact coefficient division in remainder sequence")
        out.append(q)
    return _dmp1_strip(out)


def _dup_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    off = len(f) - len(g)
    for idx, c in enumerate(g):
        out[off + idx] += c
    return _dup_strip(out)


def _dup_exact_div(f, g):
    """f / g in Z[x] if exact, else None."""
    if not g:
        raise ZeroDivisionError
    if not f:
        return []
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return None
    q = [0] * (df - dg + 1)
    r = list(f)
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        lc, rem = divmod(r[0], g[0])
        if rem:
            return None
        q[df - dr] = lc
        r = _dup_sub(r, _dup_mul_ground(g, lc) + [0] * (dr - dg))
    return q if not r else None


def _dmp1_prem(f, g):
    df, dg = len(f) - 1, len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    r = list(f)
    if df < dg:
        return r
    N = df - dg + 1
    lc_g = g[0]
    dr = df
    while dr >= dg:
        lc_r = r[0]
        N -= 1
        shifted = g + [[] for _ in range(dr - dg)]
        r = _dmp1_sub(_dmp1_mul_dup(r, lc_g), _dmp1_mul_dup(shifted, lc_r))
        dr = len(r) - 1
    if N > 0:
        r = _dmp1_mul_dup(r, _dup_pow(lc_g, N))
    return r


def _dmp1_subresultants(f, g):
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        f, g = g, f
        n, m = m, n
    if not f:
        return []
    if not g:
        return [f]
    prs = [f, g]
    d = n - m
    b = [(-1) ** (d + 1)]
    h = _dmp1_mul_dup(_dmp1_prem(f, g), b)
    lc = g[0]
    c = _dup_neg(_dup_pow(lc, d))
    while h:
        k = len(h) - 1
        prs.append(h)
        f, g, m, d = g, h, k, m - k
        b = _dup_mul(_dup_neg(lc), _dup_pow(c, d))
        h = _dmp1_quo_dup(_dmp1_prem(f, g), b)
        lc = g[0]
        if d > 1:
            num = _dup_pow(_dup_neg(lc), d)
            den = _dup_pow(c, d - 1)
            c = _dup_exact_div(num, den)
            if c is None:
                raise ReductionFailure("subresultant divisor was inexact")
            c = _dup_neg(c)
        else:
            c = _dup_neg(lc)
    return prs


def _dmp1_content(f):
    cont = []
    for c in f:
        cont = _dup_gcd(cont, c)
        if cont == [1]:
            return cont
    return cont


def _dmp1_primitive(f):
    if not f:
        return [], f
    cont = _dmp1_content(f)
    if cont == [1]:
        return cont, f
    return cont, _dmp1_quo_dup(f, cont)


def _dmp1_gcd(f, g):
    """gcd in Z[x1][x0] via subresultant PRS with content extraction."""
    if not f:
        return g
    if not g:
        return f
    fc, fp = _dmp1_primitive(f)
    gc, gp = _dmp1_primitive(g)
    c = _dup_gcd(fc, gc)
    if len(fp) - 1 >= len(gp) - 1:
        prs = _dmp1_subresultants(fp, gp)
    else:
        prs = _dmp1_subresultants(gp, fp)
    h = prs[-1]
    if len(h) - 1 == 0:
        return [c]  # only the coefficient-ring content is shared
    _, hp = _dmp1_primitive(h)
    return _dmp1_mul_dup(hp, c)


# ---------------------------------------------------------------------------
# Homogeneous gcd via dehomogenization
# ---------------------------------------------------------------------------


def _dehomogenize(P: HomoPoly):
    """(common x2 power, dmp1 in Z[x1][x0]) of P evaluated at x2 = 1.

    Setting x2 = 1 erases the common x2 factor, so it is reported separately.
    """
    if P.is_zero():
        return 0, []
    kmin = min(k for _, _, k, _ in P.items())
    by_i: dict = {}
    for key, c in P.terms.items():
        i, j = _unpack(key)
        by_i.setdefault(i, {})[j] = c
    rows = []
    for i in range(max(by_i), -1, -1):
        row = by_i.get(i)
        if not row:
            rows.append([])
            continue
        mj = max(row)
        rows.append([row.get(j, 0) for j in range(mj, -1, -1)])
    return kmin, _dmp1_strip(rows)


def _dmp1_total_degree(f):
    deg = -1
    n = len(f) - 1
    for idx, c in enumerate(f):
        if c:
            deg = max(deg, (n - idx) + (len(c) - 1))
    return deg


def _rehomogenize(f, x2_power: int) -> HomoPoly:
    """Homogenize a bivariate dmp1 to its total degree, then multiply by x2^x2_power."""
    total = _dmp1_total_degree(f)
    if total < 0:
        return HomoPoly.zero(0)
    triples = []
    n = len(f) - 1
    for idx, coeff in enumerate(f):
        i = n - idx
        m = len(coeff) - 1
        for jdx, c in enumerate(coeff):
            if c:
                j = m - jdx
                triples.append((i, j, total + x2_power - i - j, c))
    return HomoPoly.from_triples(total + x2_power, triples)


def homo_gcd(P: HomoPoly, Q: HomoPoly) -> HomoPoly:
    """gcd in Z[x0,x1,x2] of homogeneous polynomials, sign-normalized.

    Integer content is included (gcd of the two contents), matching gcd
    semantics over Z[x0,x1,x2].
    """
    if P.is_zero() and Q.is_zero():
        return HomoPoly.zero(0)
    if P.is_zero():
        P, Q = Q, P
    if Q.is_zero():
        scale, G = P.primitive_normalized()
        return G.scale(abs(scale))
    cp, fp = _dehomogenize(P)
    cq, fq = _dehomogenize(Q)
    g = _dmp1_gcd(fp, fq)  # includes the integer content gcd
    G = _rehomogenize(g, min(cp, cq))
    if G.sign_anchor() < 0:
        G = -G
    return G


def homo_divexact(P: HomoPoly, D: HomoPoly) -> HomoPoly:
    """Exact quotient P / D; raises ReductionFailure if division is inexact."""
    q = divexact(P, D)
    if q is None:
        raise ReductionFailure("polynomial division left a remainder")
    return q


# ---------------------------------------------------------------------------
# Modular line restrictions and the coprimality certificate
# ---------------------------------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_near(start: int, count: int):
    out = []
    n = start | 1
    while len(out) < count:
        if _is_probable_prime(n):
            out.append(n)
        n += 2
    return tuple(out)


# ~2^25: small enough for int64-safe numpy modular arithmetic, large enough
# for interpolation grids beyond any degree the budget allows
LINE_PRIMES = _primes_near(1 << 25, 8)


def restrict_line_mod(P: HomoPoly, a, b, p: int):
    """Coefficients (descending) of t -> P(a*t + b) mod p, via evaluation/interpolation.

    Returns None if the restriction does not have full degree P.degree mod p
    (a degenerate line for this certificate's purposes).
    """
    d = P.degree
    npts = d + 1
    ts = np.arange(npts, dtype=np.int64)
    values = np.zeros(npts, dtype=np.int64)
    pows = []
    for coord in range(3):
        x = (a[coord] % p * ts + b[coord] % p) % p
        table = np.empty((d + 1, npts), dtype=np.int64)
        table[0] = 1
        for e in range(1, d + 1):
            table[e] = table[e - 1] * x % p
        pows.append(table)
    p0, p1, p2 = pows
    for i, j, k, c in P.items():
        term = p0[i] * p1[j] % p
        term = term * p2[k] % p
        values = (values + (c % p) * term) % p
    coeffs_asc = _interpolate_mod(values, p)
    if coeffs_asc[d] % p == 0:
        return None
    return [coeffs_asc[i] for i in range(d, -1, -1)]


def _interpolate_mod(values: np.ndarray, p: int):
    """Newton interpolation at nodes 0..n-1 over F_p; ascending coefficients."""
    n = len(values)
    d = values.copy()
    inv = [0] * n
    for step in range(1, n):
        inv[step] = pow(step, p - 2, p)
    for j in range(1, n):
        diff = (d[j:] - d[j - 1 : -1]) % p
        d[j:] = diff * inv[j] % p
    coeffs = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        # coeffs = coeffs * (x - i) + d[i]
        shifted = np.zeros(n, dtype=np.int64)
        shifted[1:] = coeffs[:-1]
        coeffs = (shifted - i * coeffs) % p
        coeffs[0] = (coeffs[0] + int(d[i])) % p
    return [int(c) for c in coeffs]


def restrict_line_exact(P: HomoPoly, a, b):
    """Exact integer coefficients (descending, stripped) of t -> P(a*t + b)."""
    if P.is_zero():
        return []
    by_i: dict = {}
    for i, j, k, c in P.items():
        by_i.setdefault(i, []).append((j, k, c))
    lin0 = _dup_strip([a[0], b[0]])
    lin1 = _dup_strip([a[1], b[1]])
    lin2 = _dup_strip([a[2], b[2]])
    max_j = max((j for rows in by_i.values() for (j, _, _) in rows), default=0)
    max_k = max((k for rows in by_i.values() for (_, k, _) in rows), default=0)
    pow1 = [[1]]
    for _ in range(max_j):
        pow1.append(_dup_mul(pow1[-1], lin1))
    pow2 = [[1]]
    for _ in range(max_k):
        pow2.append(_dup_mul(pow2[-1], lin2))
    result = []
    for i in range(max(by_i), -1, -1):
        result = _dup_mul(result, lin0)
        inner = []
        for (j, k, c) in by_i.get(i, []):
            inner = _dup_add(inner, _dup_mul_ground(_dup_mul(pow1[j], pow2[k]), c))
        result = _dup_add(result, inner)
    return result


def univ_gcd_mod(f, g, p: int):
    """Monic gcd of univariate polynomials (descending coeffs) over F_p."""
    f = _dup_strip([c % p for c in f])
    g = _dup_strip([c % p for c in g])
    while g:
        f, g = g, _univ_rem_mod(f, g, p)
    if not f:
        return []
    inv = pow(f[0], p - 2, p)
    return [c * inv % p for c in f]


def _univ_rem_mod(f, g, p):
    r = list(f)
    dg = len(g) - 1
    inv_lc = pow(g[0], p - 2, p)
    while r and len(r) - 1 >= dg:
        factor = r[0] * inv_lc % p
        for idx in range(dg + 1):
            r[idx] = (r[idx] - factor * g[idx]) % p
        r = _dup_strip(r)
    return r


def may_divide(A: HomoPoly, P: HomoPoly, seed: int = 0) -> bool:
    """Cheap modular filter: False means A certainly does not divide P.

    If A | P then the line restriction of A divides that of P mod any prime,
    so a nonzero remainder refutes divisibility outright.
    """
    if A.degree > P.degree:
        return False
    rng = np.random.default_rng(seed ^ 0xD1F)
    for attempt in range(3):
        p = LINE_PRIMES[(attempt + 3) % len(LINE_PRIMES)]
        a = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, size=3)]
        b = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, size=3)]
        ra = restrict_line_mod(A, a, b, p)
        if ra is None:
            continue
        rp = restrict_line_mod(P, a, b, p)
        if rp is None:
            continue
        return not _univ_rem_mod(rp, ra, p)
    return True  # could not decide; let the exact division try


def certify_coprime(P: HomoPoly, Q: HomoPoly, seed: int = 0, attempts: int = 4) -> bool:
    """True only with a proof that gcd(P, Q) is constant.

    Restrict both to a line whose images keep full degree mod p; a constant
    univariate gcd then forces any common factor to be constant.  False means
    "unknown" (caller should fall back to the exact gcd).
    """
    if P.is_zero() or Q.is_zero():
        return False
    rng = np.random.default_rng(seed ^ 0x5EED)
    for attempt in range(attempts):
        p = LINE_PRIMES[attempt % len(LINE_PRIMES)]
        a = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, size=3)]
        b = [int(x) for x in rng.integers(-(10**6), 10**6 + 1, size=3)]
        if all(v == 0 for v in a):
            continue
        rp = restrict_line_mod(P, a, b, p)
        if rp is None:
            continue
        rq = restrict_line_mod(Q, a, b, p)
        if rq is None:
            continue
        if len(univ_gcd_mod(rp, rq, p)) - 1 == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Pairwise-coprime factor base
# ---------------------------------------------------------------------------


class CoprimeBase:
    """Maintains a list of pairwise-coprime primitive polynomials (the atoms).

    ``decompose`` expresses a polynomial as unit * product of atom powers,
    inserting new atoms (and splitting existing ones) as needed.  Split events
    are returned so callers can rewrite exponent dictionaries.
    """

    def __init__(self, seed: int = 0):
        self.atoms: list = []
        self.seed = seed
        self._cert_calls = 0

    def decompose(self, poly: HomoPoly):
        """(unit, {atom_index: exponent}, split_events) with unit in {+1, -1} * content."""
        if poly.is_zero():
            raise ValueError("cannot decompose the zero polynomial")
        unit, P = poly.primitive_normalized()
        exps: dict = {}
        splits: list = []
        idx = 0
        while idx < len(self.atoms):
            atom = self.atoms[idx]
            if atom.degree > P.degree:
                idx += 1
                continue
            if len(atom.terms) * len(P.terms) > 200_000:
                self._cert_calls += 1
                if not may_divide(atom, P, seed=self.seed + self._cert_calls):
                    idx += 1
                    continue
            q = divexact(P, atom)
            if q is not None:
                exps[idx] = exps.get(idx, 0) + 1
                s, P = q.primitive_normalized()
                unit *= s
                continue  # same atom may divide again
            idx += 1
        while P.degree >= 1:
            # coprime-ify the leftover against the base, splitting as required
            interacted = False
            for aidx in range(len(self.atoms)):
                atom = self.atoms[aidx]
                self._cert_calls += 1
                if certify_coprime(P, atom, seed=self.seed + self._cert_calls):
                    continue
                g = homo_gcd(P, atom)
                _, g = g.primitive_normalized()
                if g.degree == 0:
                    continue
                interacted = True
                splits.extend(self._split_atom(aidx, g))
                # retry division from the top with the refined base
                break
            if interacted:
                idx = 0
                while idx < len(self.atoms):
                    atom = self.atoms[idx]
                    q = divexact(P, atom) if atom.degree <= P.degree else None
                    if q is not None:
                        exps[idx] = exps.get(idx, 0) + 1
                        s, P = q.primitive_normalized()
                        unit *= s
                        continue
                    idx += 1
                if P.degree == 0:
                    break
                continue
            # genuinely new atom
            self.atoms.append(P)
            exps[len(self.atoms) - 1] = exps.get(len(self.atoms) - 1, 0) + 1
            P = HomoPoly.monomial(1, 0, 0, 0)
            break
        if P.degree == 0:
            s, _ = P.primitive_normalized()
            unit *= s if s else 1
        return unit, exps, splits

    def _split_atom(self, aidx: int, g: HomoPoly):
        """Replace atom a with g, appending a/g; returns [(aidx, new_idx)]."""
        atom = self.atoms[aidx]
        cof = divexact(atom, g)
        if cof is None:
            raise ReductionFailure("claimed factor does not divide its atom")
        s, cof = cof.primitive_normalized()
        if s < 0:
            raise ReductionFailure("sign drift while splitting an atom")
        events = []
        self.atoms[aidx] = g
        if cof.degree >= 1:
            self.atoms.append(cof)
            events.append((aidx, len(self.atoms) - 1))
        return events
