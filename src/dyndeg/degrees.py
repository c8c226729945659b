"""Degree sequences of map iterates: the composition recursion and series checks.

The inner degree data (d_j) comes from the Gaussian-integer module; this module
owns the sequence containers, the convolution recursion producing (e_n), the
generating-series identity checked coefficient by coefficient, and the
topological degree.

Both convolutions run on residues modulo word-size primes, vectorized in
numpy across the primes (multimodular arithmetic and Chinese remaindering:
von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).
``e_sequence`` runs the recursion e_n = d_n + sum_{j<n} e_j d_{n-j} on
residues and rebuilds each e_n exactly by CRT.  ``series_identity_check``
forms every coefficient of (2 + Delta_f)(1 - Delta_h) on residues, offline
(one pass per e_i over all later coefficients), and reads a coefficient as
zero only when it vanishes modulo every prime.  The number of primes comes
from the bounds below, never from a setting, so both results are exact and
involve no randomness.

- Growth.  With G_0 = 1 and G_n = sum_{j=1..n} d_j G_{n-j}, e_n = 2 G_n for
  n >= 1.  If sum_{j<=N} d_j R^-j <= 1, then G_n <= R^n for n <= N, by
  induction, so primes whose product exceeds 2 R^N determine every e_n.
  With R = 2^s the test is one Horner pass of shifts,
  sum_j d_j 2^(s(N-j)) <= 2^(sN).  It starts at
  s0 = max_j ceil(bits(d_j) / j); s0 + 1 always passes (d_j R^-j < 2^-j),
  so there are at most two passes.  This holds for any positive d.
- Check.  With ê_0 = 2 and ê_i = e_i, coefficient k >= 1 of the product is
  c_k = e_k - sum_{0<=i<k} ê_i d_{k-i}, a difference of two nonnegative
  integers, so |c_k| < 2^beta with
  beta = max(max_k bits(e_k), max_{i<k<=N}(bits(ê_i) + bits(d_{k-i})) + bitlen(N)),
  and c_k = 0 modulo primes whose product exceeds 2^beta proves c_k = 0.
  The bound comes from the integers the check is handed, whoever computed
  them.
- int64.  The primes are ``modp``'s word-size primes for sums of at most N
  products, in (2^(k-1), 2^k) with k = floor((63 - bitlen N) / 2).  Two
  more sums have bounds of their own:
  - residues: an integer, first reduced modulo the product of a group's
    primes (one big-integer division), is its 16-bit limbs times
    2^(16i) mod p, one int64 matrix product.  A sum of w limb products stays
    below w 2^(k+16) <= 2^63 for w <= 2^(47-k), so a group's product has at
    most 2^(47-k) limbs: at most (2^(51-k) - 15) / k primes.
  - CRT: with m the product of a group's primes, the residues r_p times the
    16-bit limbs of c_p = (m/p)((m/p)^-1 mod p) give the limb sums of
    sum_p r_p c_p, which is e_n modulo m.  A limb sum over g primes stays
    below g 2^(k+16) <= 2^63 for g <= 2^(47-k); more primes are split into
    groups.

  No float or BLAS product is taken.

Across groups, e_n is rebuilt by Garner's mixed-radix step: with e_n known
modulo the product P of the groups before, one more group adds the digit
((e_n mod m) - (e_n mod P)) (P^-1 mod m) mod m, times P.  Each row takes
only the groups its own bound needs: once P > 2^(sn+1), e_n mod P is e_n,
so rows of small n stop after the first groups.

The primes come from ``modp``'s table per k, generated on first use and
kept, and the powers 2^(16i) mod p from its power table.  The primes run
in groups and the integers in row blocks, so an int64 temporary holds at
most _BLOCK_WORDS entries, or one prime's row when that alone is longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import isqrt, prod

import numpy as np

from .modp import _power_table, prime_table

_BLOCK_WORDS = 1 << 17  # int64 entries of a temporary: one group's table or one row block
_RESIDUE_ROWS = 32  # rows of a residue block, each block as wide as its own largest value

_ORIGINS = ("monomial_d", "composed_e")


@dataclass(frozen=True)
class DegreeSequence:
    """Exact integer degree sequence, indexed from ``start_index``."""

    values: tuple
    start_index: int
    origin: str
    gammas: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.origin not in _ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        if any(v < 1 for v in self.values):
            raise ValueError("degree sequences have entries >= 1")
        if self.origin == "composed_e":
            if self.start_index != 0 or (self.values and self.values[0] != 1):
                raise ValueError("composed sequences start at index 0 with value 1")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        """Entry at the true index (respecting start_index)."""
        pos = index - self.start_index
        if pos < 0 or pos >= len(self.values):
            raise IndexError(f"index {index} outside [{self.start_index}, {self.last_index}]")
        return self.values[pos]

    @property
    def last_index(self):
        return self.start_index + len(self.values) - 1

    def indices(self):
        return range(self.start_index, self.start_index + len(self.values))

    def to_json_obj(self):
        # decimal strings: entries overflow fixed-width consumers quickly
        return {
            "start_index": self.start_index,
            "origin": self.origin,
            "values": [str(v) for v in self.values],
        }


def e_sequence(d: DegreeSequence, N: int) -> DegreeSequence:
    """Degrees of iterates of the composed map from the inner degrees via

        e_n = d_n + sum_{j=0}^{n-1} e_j * d_{n-j},  e_0 = 1.

    ``d`` must cover indices 1..N.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > 0 and (d.start_index > 1 or d.last_index < N):
        raise ValueError(f"need d_1..d_{N}, have d_{d.start_index}..d_{d.last_index}")
    first = 1 - d.start_index  # position of d_1 in d.values
    dv = d.values[first : first + N]
    values = [0] * N  # values[n - 1]: e_n modulo the product of the groups so far
    if N:
        k = _word_bits(N)
        s = _growth_rate(dv)  # e_n <= 2^(sn+1)
        primes = _moduli(k, s * N + 1)
        modulus = 1
        for group in _groups(len(primes), k, N + 1):
            p = primes[group]
            m = prod(p)
            # e_n with s n + 1 < bits(modulus) lies below the (odd) modulus already
            done = max(0, -(-(modulus.bit_length() - 1) // s) - 1)
            inv = pow(modulus % m, -1, m)
            residues = _recursion_mod(_residues(dv, p), np.array(p, dtype=np.int64))
            for i, y in enumerate(_crt(residues[done:], p), done):  # Garner: one mixed-radix digit per group
                x = values[i]
                values[i] = x + modulus * ((y - x % m) * inv % m)
            modulus *= m
    return DegreeSequence(values=(1, *values), start_index=0, origin="composed_e")


def series_identity_check(d: DegreeSequence, e: DegreeSequence, N: int) -> int:
    """Verify (2 + Delta_f)(1 - Delta_h) = 2 through order N, exactly.

    With Delta_f = sum_{j>=1} e_j z^j and Delta_h = sum_{j>=1} d_j z^j the
    product's constant term is 2, and its coefficient k >= 1 is
    e_k - 2 d_k - sum_{0<i<k} e_i d_{k-i}.  Returns the largest M <= N such
    that coefficients 1..M vanish; N means full success, 0 means failure
    already at order 1.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if e.start_index != 0 or e[0] != 1:
        raise ValueError("e must be a composed_e-style sequence with e_0 = 1")
    if N > 0 and (d.last_index < N or e.last_index < N):
        raise ValueError("both sequences must reach index N")
    if N == 0:
        return 0
    dv = [d[j] for j in range(1, N + 1)]
    ev = [2, *(e[i] for i in range(1, N + 1))]  # ê_0 = 2 carries the 2 d_k term
    d_bits = list(accumulate((v.bit_length() for v in dv), max))  # d_bits[m - 1]: max over d_1..d_m
    beta = max(
        max(v.bit_length() for v in ev[1:]),
        max(ev[i].bit_length() + d_bits[N - 1 - i] for i in range(N)) + N.bit_length(),
    )
    k = _word_bits(N)
    primes = _moduli(k, beta)
    order = N  # coefficients 1..order vanish modulo every group so far
    for group in _groups(len(primes), k, N + 1):
        D = _residues(dv[:order], primes[group])
        E = _residues(ev[: order + 1], primes[group])
        p = np.array(primes[group], dtype=np.int64)
        conv = np.zeros_like(E)  # row k: sum_{i<k} ê_i d_{k-i}, unreduced
        scratch = np.empty_like(D)
        for i in range(order):
            conv[i + 1 :] += np.multiply(E[i], D[: order - i], out=scratch[: order - i])
        bad = np.flatnonzero((conv[1:] % p != E[1:]).any(axis=1))
        if len(bad):
            order = int(bad[0])  # coefficient bad[0] + 1 is the first nonzero one
            if order == 0:
                return 0
    return order


def _word_bits(N: int) -> int:
    """k such that N products of two residues below 2^k sum below 2^63."""
    return (63 - N.bit_length()) // 2


def _moduli(k: int, bits: int) -> tuple:
    """The first primes in (2^(k-1), 2^k) whose product exceeds 2^bits."""
    return prime_table(k, max(1, -(-bits // (k - 1))))  # each prime exceeds 2^(k-1)


def _growth_rate(dv) -> int:
    """The first s of s0, s0 + 1 with sum_j d_j 2^(s(N-j)) <= 2^(sN); then e_n <= 2^(sn+1) for n <= N."""
    N = len(dv)
    s = max(-(-v.bit_length() // j) for j, v in enumerate(dv, 1))
    total = 0
    for v in dv:
        total = (total << s) + v
    if total > 1 << (s * N):
        s += 1  # passes: d_j 2^(-(s0+1)j) < 2^-j
    return s


def _groups(count: int, k: int, rows: int):
    """Slices of the primes: at most 2^(47-k) each (the CRT limb-sum bound),
    with a product of at most 2^(47-k) limbs (the residue limb-sum bound),
    and few enough that a group's rows x primes table and its primes x limbs
    tables (powers of 2^16 and CRT constants) hold at most _BLOCK_WORDS entries."""
    # the product of g primes lies below 2^(gk): at most (gk + 15)/16 limbs, and
    # at most gk/16 + 4 in either table
    size = min(
        1 << (47 - k),
        ((1 << (51 - k)) - 15) // k,
        _BLOCK_WORDS // rows,
        isqrt(16 * _BLOCK_WORDS // (k + 64)),
    )
    return [slice(start, start + size) for start in range(0, count, max(1, size))]


def _limb_count(v: int) -> int:
    """Number of 16-bit limbs of v >= 0, at least one."""
    return max(1, -(-v.bit_length() // 16))


def _limbs(values, width: int):
    """rows x width int64 array of the 16-bit limbs of nonnegative integers, least first."""
    raw = b"".join(v.to_bytes(2 * width, "little") for v in values)
    return np.frombuffer(raw, dtype="<u2").reshape(len(values), width).astype(np.int64)


def _residues(values, primes: tuple):
    """len(values) x len(primes) int64 array of each value modulo each prime.

    Each value is first reduced modulo the primes' product m, one big-integer
    division, so the limb products below cost at most limbs(m) per row."""
    m = prod(primes)
    values = [v % m for v in values]
    p = np.array(primes, dtype=np.int64)
    width = _limb_count(max(values))
    powers = np.ascontiguousarray(_power_table(65536 % p, width - 1, p).T)  # powers[:, i] = 2^(16i) mod p
    out = np.empty((len(values), len(p)), dtype=np.int64)
    rows = max(1, min(_RESIDUE_ROWS, _BLOCK_WORDS // width))
    for start in range(0, len(values), rows):
        block = values[start : start + rows]
        limbs = _limbs(block, _limb_count(max(block)))
        out[start : start + len(block)] = np.einsum("ij,kj->ik", limbs, powers[:, : limbs.shape[1]]) % p
    return out


def _recursion_mod(D, p):
    """Residues of e_1..e_N (rows) from those of d_1..d_N, one column per prime.

    Runs G_0 = 1, G_n = sum_{j=1..n} d_j G_{n-j} (e_n = 2 G_n) one index at a
    time on one row of residues per prime; each sum has at most N products of
    two residues.
    """
    N, g = D.shape
    rev = np.ascontiguousarray(D[::-1].T)  # rev[:, i] = d_{N-i}
    G = np.empty((g, N + 1), dtype=np.int64)
    G[:, 0] = 1
    for n in range(1, N + 1):
        G[:, n] = np.einsum("pi,pi->p", G[:, :n], rev[:, N - n :]) % p
    return np.ascontiguousarray((2 * G[:, 1:] % p[:, None]).T)


def _crt(residues, p) -> list:
    """Each row's integer modulo m, the product of the primes p, from its
    residues (one column per prime): sum_q r_q c_q mod m with
    c_q = (m/q)((m/q)^-1 mod q)."""
    m = prod(p)
    c = [m // q * pow(m // q % q, -1, q) for q in p]
    quarter = -(-_limb_count(m) // 4)  # every c_q < m has at most 4 * quarter limbs
    limbs = _limbs(c, 4 * quarter)
    # row r*quarter + a holds limb 4a + r, at bit 64a + 16r: the limb sums of one
    # r sit together as 64-bit words, and four from_bytes rebuild a row's integer
    table = np.ascontiguousarray(limbs.reshape(len(c), quarter, 4).transpose(2, 1, 0)).reshape(4 * quarter, len(c))
    step = 8 * quarter
    rows = max(1, _BLOCK_WORDS // (4 * quarter))
    out = []
    for start in range(0, len(residues), rows):
        block = np.einsum("ij,kj->ik", residues[start : start + rows], table)
        view = memoryview(block.astype("<i8", copy=False)).cast("B")
        for i in range(len(block)):
            o = 4 * step * i
            out.append(
                (
                    int.from_bytes(view[o : o + step], "little")
                    + (int.from_bytes(view[o + step : o + 2 * step], "little") << 16)
                    + (int.from_bytes(view[o + 2 * step : o + 3 * step], "little") << 32)
                    + (int.from_bytes(view[o + 3 * step : o + 4 * step], "little") << 48)
                )
                % m
            )
    return out


def lambda2(zeta) -> int:
    """Topological degree of the monomial factor: the norm of the Gaussian parameter."""
    n = zeta.re * zeta.re + zeta.im * zeta.im
    if n == 0:
        raise ValueError("zeta must be nonzero")
    return n
