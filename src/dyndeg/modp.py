"""Arithmetic on int64 residue arrays modulo word-size primes.

A univariate polynomial over F_p is a numpy int64 array of residues,
coefficients descending, reduced into [0, p) and stripped (the leading one
nonzero, the zero polynomial empty); the kernels pass polynomials to each
other in that form, so no result goes through a Python list and back.

The int64 rule: a sum formed in int64 adds at most 2048 products of two
residues, so it stays below 2^63 while 2048 p^2 < 2^63; a sum of another
shape proves its bound where it is formed.  The primes come from one table
per bit size k, the primes in (2^(k-1), 2^k) ascending (``prime_table``),
generated on first use and kept:
- the line primes, ``LINE_PRIMES``, the first eight of k = 26, have
  p < 2^25.01: a residue product stays below 2^50.02, a sum below 2^61.02;
- the word-size primes of ``degrees`` serve sums of at most N products,
  with k = floor((63 - bitlen N) / 2) so that N 2^(2k) < 2^63.
The Miller-Rabin bases include 2, 3, 5, 7, 11, 13 and 17, which is
deterministic below 3.4 * 10^14, far above 2^31.
"""

from __future__ import annotations

from functools import partial, reduce

import numpy as np

from .errors import ResourceExhausted
from .powering import binary_power

_SUM_TERMS = 2048  # residue products one int64 sum adds at most
_PRIMES = {}  # k -> the primes in (2^(k-1), 2^k) found so far, ascending


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


def prime_table(k: int, count: int) -> tuple:
    """The first count primes in (2^(k-1), 2^k), ascending, k >= 2."""
    primes = _PRIMES.setdefault(k, [])
    n = primes[-1] + 2 if primes else (1 << (k - 1)) + 1  # the next odd candidate
    while len(primes) < count:
        if n >> k:
            raise ResourceExhausted(f"needs more primes than (2^{k - 1}, 2^{k}) holds")
        if _is_probable_prime(n):
            primes.append(n)
        n += 2
    return tuple(primes[:count])


# ~2^25: small enough for int64-safe numpy modular arithmetic, large enough
# for interpolation grids beyond any degree the packing allows
LINE_PRIMES = prime_table(26, 8)


def _strip(f: np.ndarray) -> np.ndarray:
    """f with its leading zeros dropped: f itself when it has none, else a view."""
    if not len(f) or f[0]:
        return f
    nonzero = np.flatnonzero(f)
    return f[nonzero[0]:] if len(nonzero) else f[:0]


def _power_table(r: np.ndarray, top: int, p) -> np.ndarray:
    """Rows r^0..r^top of the residue vector r, filled by doubling.

    p is one prime, or a vector of them, one per entry of r."""
    table = np.empty((top + 1, len(r)), dtype=np.int64)
    table[0] = 1
    k = 1
    while k <= top:  # rows below k are filled
        m = min(k, top + 1 - k)
        table[k : k + m] = table[:m] * (table[k - 1] * r % p) % p
        k += m
    return table


def _interpolate_mod(values: np.ndarray, p: int) -> np.ndarray:
    """Interpolation of the residues values at nodes 0..n-1 over F_p, n <= 2048; ascending residues.

    The Newton coefficients are the scaled forward differences
    N_j = sum over i <= j of f(i)/i! * (-1)^(j-i)/(j-i)!, one convolution
    of at most n <= 2048 products in each sum.  The Newton form
    sum_j N_j (x - 0)...(x - j + 1) becomes monomial coefficients by one
    Horner step per node, out <- out * (x - k) + N_k for k = n-1, ..., 0:
    an entry adds a residue to k * out[m] < 2^11 * 2^25.01, far inside
    int64, and is reduced mod p after each step.
    """
    n = len(values)
    if n > _SUM_TERMS:
        raise ValueError("an int64 interpolation sum could overflow: more than 2048 nodes")
    inv = [0, 1] + [0] * (n - 2)
    for step in range(2, n):  # p = (p // step) * step + p % step, read mod p
        inv[step] = -(p // step) * inv[p % step] % p
    inv_fact = [1] * n
    for step in range(1, n):
        inv_fact[step] = inv_fact[step - 1] * inv[step] % p
    inv_fact = np.array(inv_fact, dtype=np.int64)
    signed = inv_fact.copy()
    signed[1::2] = -signed[1::2] % p
    newton = np.convolve(values * inv_fact % p, signed)[:n]
    out = np.zeros(n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        out = (np.concatenate((newton[k : k + 1], out[:-1])) - k * out) % p
    return out


def univ_gcd_mod(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd over F_p of two reduced, stripped residue arrays (descending)."""
    while len(g):
        f, g = g, _univ_rem_mod(f, g, p)
    if not len(f):
        return f
    return f * pow(int(f[0]), -1, p) % p


def _univ_rem_mod(r: np.ndarray, g: np.ndarray, p: int, inverse: list | None = None) -> np.ndarray:
    """Remainder of r by g over F_p, both reduced, stripped residue arrays and g nonempty.

    The result is reduced and stripped; r and g are not modified.  Two
    routes, picked by the quotient length nq = len(r) - deg g and by
    ``inverse``.  When 0 < nq <= 2048 and either the quotient is longer
    than g or ``inverse`` is given, the quotient is computed in one pass:
    the reversed g is inverted as a power series by Newton iteration,
    h <- h (2 - g h) mod x^2k, the quotient is r[:nq] * h mod x^nq (a
    descending array read ascending is the reversed polynomial), and the
    remainder is the low deg g coefficients of r - q g, which only the low
    deg g coefficients of q reach.  ``inverse``, when given, is the
    one-item list that ``_product_mod`` keeps beside g over its reductions:
    the route takes h from it and stores back the longest h computed.  The
    truncated series inverse is unique, so an h taken from the list or
    extended gives the same quotient.  Each ``np.convolve`` there adds at
    most min(len) <= nq <= 2048 products; each result is reduced mod p.

    Otherwise the division loop subtracts q * g from a copy of r in place,
    one quotient coefficient per step, and reduces it mod p only every 2048
    steps and at the end: between reductions an entry takes at most 2048
    products q * g[k] below p^2, so it stays below p + 2^61.02 < 2^63 in
    magnitude.
    """
    dg = len(g) - 1
    if dg == 0:
        return r[:0]
    nq = len(r) - dg
    if 0 < nq <= _SUM_TERMS and (inverse is not None or dg + 1 < nq):
        h = inverse[0] if inverse else np.array([pow(int(g[0]), -1, p)], dtype=np.int64)
        k = len(h)
        while k < nq:
            k = min(2 * k, nq)
            e = -np.convolve(g[:k], h)[:k] % p
            e[0] = (e[0] + 2) % p
            h = np.convolve(h, e)[:k] % p
        if inverse is not None:
            inverse[:] = [h]
        q = np.convolve(r[:nq], h[:nq])[:nq] % p
        rem = (r[nq:] - np.convolve(q[-dg:], g)[-dg:]) % p
    else:
        r = r.copy()
        inv_lc = pow(int(g[0]), -1, p)
        for i in range(nq):
            if i and not i % _SUM_TERMS:
                r[i:] %= p
            q = int(r[i]) * inv_lc % p
            if q:
                r[i : i + dg + 1] -= q * g
        rem = r[max(nq, 0) :] % p
    return _strip(rem)


def univ_mul_mod(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Product over F_p, p prime, of two reduced, stripped residue arrays (descending).

    The product of the leading residues is nonzero mod p, so the reduced
    product is stripped.  Each product coefficient is a sum of at most
    min(len f, len g) residue products.  While that is at most 2048,
    ``np.convolve`` sums them exactly in int64.  Longer inputs on both sides
    occur (the line oracle's evaluations on a curve at iterate 4), and
    take a Kronecker product: each array is packed into one Python int,
    entry i in bits 80i..80i+79, and the two ints are multiplied exactly.
    Slot k of the product is then coefficient k of the convolution, since
    no coefficient carries into the next slot: that holds while
    min(len f, len g) * p^2 < 2^80, so for any length below 2^29.9 at the
    line primes.  Each slot is unpacked as its low 64 and high 16 bits and
    reduced mod p.
    """
    if not len(f) or not len(g):
        return f[:0]
    if min(len(f), len(g)) <= _SUM_TERMS:
        return np.convolve(f, g) % p
    n = len(f) + len(g) - 1
    slots = np.frombuffer((_pack_slots(f) * _pack_slots(g)).to_bytes(n * 10, "little"), dtype=np.uint8).reshape(n, 10)
    low = slots[:, :8].copy().view("<u8")[:, 0] % np.uint64(p)
    high = slots[:, 8:].copy().view("<u2")[:, 0].astype(np.int64)
    return (low.astype(np.int64) + high * ((1 << 64) % p)) % p


def _pack_slots(f: np.ndarray) -> int:
    """The residue array f as one int, entry i in the 80-bit slot i (bits 80i..80i+79)."""
    slots = np.zeros((len(f), 10), dtype=np.uint8)
    slots[:, :8] = f.astype("<i8").view(np.uint8).reshape(len(f), 8)
    return int.from_bytes(slots.tobytes(), "little")


def univ_pow_mod(f: np.ndarray, e: int, p: int) -> np.ndarray:
    """f^e over F_p by binary powering: popcount(e) + bit_length(e) - 1 products for e >= 1."""
    return binary_power(f, e, np.ones(1, dtype=np.int64), partial(univ_mul_mod, p=p))


def weighted_sum_mod(terms, length: int, p: int) -> np.ndarray:
    """Sum over terms (c, arrays) of c times the product of the arrays, aligned at the constant term; stripped.

    A term with c = 0 mod p reads none of its arrays, so they may be raised
    on demand.  At most 2048 * 2049 / 2 < 2^22 terms, each with at least one
    array and at most length coefficients: a sum of line-prime residues stays
    below 2^47.01."""
    acc, mul = np.zeros(length, dtype=np.int64), partial(univ_mul_mod, p=p)
    for c, arrays in terms:
        if c % p:
            r = reduce(mul, arrays) * (c % p) % p
            acc[length - len(r) :] += r
    return _strip(acc % p)


def _product_mod(factors, g: np.ndarray, p: int) -> np.ndarray:
    """The product of the residue arrays factors mod g over F_p, reduced after each factor.

    Each reduction is a remainder by g with one series inverse of g, kept in
    a local one-item list that ``_univ_rem_mod`` reads and extends: for a
    quotient of at most 2048 coefficients (a factor of at most 2048) that is
    the Newton route, convolutions and no step per quotient coefficient.
    """
    acc, inverse = np.ones(1, dtype=np.int64), []
    for f in factors:
        acc = univ_mul_mod(acc, f, p)
        if len(acc) >= len(g):
            acc = _univ_rem_mod(acc, g, p, inverse)
    return acc
