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
forms every coefficient of (2 + Delta_f)(1 - Delta_h) on residues of the
e_i it is handed, whoever computed them, and reads a coefficient as zero
only when it vanishes modulo every prime.  The number of primes comes from
the bounds below, never from a setting, so both results are exact and
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
  products, in (2^(k-1), 2^k) with k = floor((63 - bitlen N) / 2), so
  N 2^(2k) < 2^63.  Both convolutions form one coefficient per prime as
  one dot product of two residue rows, reduced mod p once: the recursion's
  G_n adds the n products d_j G_{n-j}, the check's sum_{i<k} ê_i d_{k-i}
  adds k <= N products.  Two more sums have bounds of their own:
  - residues: an integer, first reduced modulo the product of a group's
    primes (one big-integer division), is its 16-bit limbs times
    2^(16i) mod p, one int64 matrix product.  A sum of w limb products stays
    below w 2^(k+16) <= 2^63 for w <= 2^(47-k), so a group's product has at
    most 2^(47-k) limbs: at most (2^(51-k) - 15) / k primes.
  - CRT: with m the product of some primes, the residues r_p times the
    16-bit limbs of c_p = (m/p)((m/p)^-1 mod p) give the limb sums of
    sum_p r_p c_p, which is e_n modulo m.  A limb sum over g primes stays
    below g 2^(k+16) <= 2^63 for g <= 2^(47-k); more primes are split into
    groups.

  No float or BLAS product is taken.

Each conversion is done once, and each row is only as wide as its bound:
- Shared table.  While one group holds all the primes (at N = 200 a group
  holds 151 primes, and |zeta| <= 1000 needs at most 101, a table under
  170 KB), the residues of d_1..d_N are kept on the ``DegreeSequence`` d,
  for one N at a time, and both ``e_sequence`` and
  ``series_identity_check`` read them; the check adds columns when beta
  needs more primes than the recursion took.  Longer inputs convert d
  group by group and keep nothing.
- Prefix CRT.  In the first group, which is a prefix of the prime table,
  the rows are rebuilt in blocks of _RESIDUE_ROWS.  A block whose last row
  n has the bound 2^(sn+1) is rebuilt from the first
  q = ceil((sn+1)/(k-1)) primes, the count ``_moduli`` takes for sn+1
  bits, or from the whole group when that is shorter (later groups then
  add their Garner digits).  Each prime exceeds 2^(k-1), so the product of
  the q primes exceeds every e_n of the block, and e_n modulo it is e_n.
  The table's first primes lie just above 2^(k-1), so no shorter prefix
  exceeds the bound while the product of the q stays below
  2^(q(k-1)+1).  The constants c_p of a prefix and their limb table are
  built on first use per (k, q) and kept, like the prime table.  Later
  groups rebuild each row they serve from the whole group.

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
_RESIDUE_ROWS = 32  # rows of a residue block (as wide as its largest value) or a prefix CRT block

_PREFIX_CRT = {}  # (k, q) -> _crt_constants of the first q primes of (2^(k-1), 2^k)

_ORIGINS = ("monomial_d", "composed_e")


@dataclass(frozen=True)
class DegreeSequence:
    """Exact integer degree sequence, indexed from ``start_index``."""

    values: tuple
    start_index: int
    origin: str
    gammas: tuple = field(default=None, compare=False)
    # N -> residues of d_1..d_N modulo the degree kernel's primes (see _d_residues)
    _residue_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    dv = _inner_values(d, N)
    values = [0] * N  # values[n - 1]: e_n modulo the product of the groups so far
    if N:
        k = _word_bits(N)
        s = _growth_rate(dv)  # e_n <= 2^(sn+1)
        primes = _moduli(k, s * N + 1)
        groups = _groups(len(primes), k, N + 1)
        modulus = 1
        for group in groups:
            p = primes[group]
            m = prod(p)
            # e_n with s n + 1 < bits(modulus) lies below the (odd) modulus already
            done = max(0, -(-(modulus.bit_length() - 1) // s) - 1)
            inv = pow(modulus % m, -1, m)
            D = _d_residues(d, dv, k, len(p)) if len(groups) == 1 else _residues(dv, p)
            residues = _recursion_mod(D, np.array(p, dtype=np.int64))
            if modulus == 1:  # the first group is a prefix of the prime table
                rebuilt = []
                for start in range(0, N, _RESIDUE_ROWS):
                    stop = min(N, start + _RESIDUE_ROWS)
                    q = min(len(p), _prime_count(k, s * stop + 1))  # e_n < 2^(s stop + 1) in this block
                    rebuilt += _crt(residues[start:stop, :q], *_prefix_constants(k, q))
            else:
                rebuilt = _crt(residues[done:], *_crt_constants(p))
            for i, y in enumerate(rebuilt, done):  # Garner: one mixed-radix digit per group
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
    dv = _inner_values(d, N)
    if e.last_index < N:
        raise ValueError(f"need e_0..e_{N}, have e_0..e_{e.last_index}")
    if N == 0:
        return 0
    ev = (2, *e.values[1 : N + 1])  # ê_0 = 2 carries the 2 d_k term
    d_bits = list(accumulate((v.bit_length() for v in dv), max))  # d_bits[m - 1]: max over d_1..d_m
    beta = max(
        max(v.bit_length() for v in ev[1:]),
        max(ev[i].bit_length() + d_bits[N - 1 - i] for i in range(N)) + N.bit_length(),
    )
    k = _word_bits(N)
    primes = _moduli(k, beta)
    groups = _groups(len(primes), k, N + 1)
    order = N  # coefficients 1..order vanish modulo every group so far
    for group in groups:
        p = primes[group]
        D = _d_residues(d, dv, k, len(p)) if len(groups) == 1 else _residues(dv[:order], p)
        E = _residues(ev[: order + 1], p)
        conv = _convolution_mod(D[:order], E, np.array(p, dtype=np.int64))
        bad = np.flatnonzero((conv != E[1:]).any(axis=1))
        if len(bad):
            order = int(bad[0])  # coefficient bad[0] + 1 is the first nonzero one
            if order == 0:
                return 0
    return order


def _inner_values(d: DegreeSequence, N: int) -> tuple:
    """d_1..d_N; ValueError unless d covers them."""
    if N > 0 and (d.start_index > 1 or d.last_index < N):
        raise ValueError(f"need d_1..d_{N}, have d_{d.start_index}..d_{d.last_index}")
    first = 1 - d.start_index  # position of d_1 in d.values
    return d.values[first : first + N]


def _word_bits(N: int) -> int:
    """k such that N products of two residues below 2^k sum below 2^63."""
    return (63 - N.bit_length()) // 2


def _prime_count(k: int, bits: int) -> int:
    """Primes of (2^(k-1), 2^k) whose product exceeds 2^bits: each exceeds 2^(k-1)."""
    return max(1, -(-bits // (k - 1)))


def _moduli(k: int, bits: int) -> tuple:
    """The first primes in (2^(k-1), 2^k) whose product exceeds 2^bits."""
    return prime_table(k, _prime_count(k, bits))
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


def _d_residues(d: DegreeSequence, dv, k: int, count: int):
    """Residues of dv = d_1..d_N modulo the first count primes of (2^(k-1), 2^k), one column each.

    The table is kept on d for this N and extended by columns when a caller
    needs more primes, so the recursion and the check convert d once."""
    N = len(dv)
    table = d._residue_table.get(N)
    have = 0 if table is None else table.shape[1]
    if have < count:
        new = _residues(dv, prime_table(k, count)[have:])
        table = new if table is None else np.hstack((table, new))
        table.flags.writeable = False
        d._residue_table.clear()  # one N at a time
        d._residue_table[N] = table
    return table[:, :count]


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


def _convolution_mod(D, E, p):
    """Residues of sum_{0<=i<k} ê_i d_{k-i} for k = 1..n (rows), one column per prime,
    from those of d_1..d_n (D) and ê_0..ê_n (E): one dot product of at most n
    products of two residues per coefficient, the recursion's shape."""
    n, g = D.shape
    rev = np.ascontiguousarray(D[::-1].T)  # rev[:, i] = d_{n-i}
    Et = np.ascontiguousarray(E.T)  # Et[:, i] = ê_i
    conv = np.empty((g, n), dtype=np.int64)
    for k in range(1, n + 1):
        conv[:, k - 1] = np.einsum("pi,pi->p", Et[:, :k], rev[:, n - k :])
    return (conv % p[:, None]).T


def _crt_constants(p) -> tuple:
    """(m, table) for rebuilding integers modulo m, the product of the primes p:
    table holds the 16-bit limbs of c_q = (m/q)((m/q)^-1 mod q), one column per prime."""
    m = prod(p)
    c = [m // q * pow(m // q % q, -1, q) for q in p]
    quarter = -(-_limb_count(m) // 4)  # every c_q < m has at most 4 * quarter limbs
    limbs = _limbs(c, 4 * quarter)
    # row r*quarter + a holds limb 4a + r, at bit 64a + 16r: the limb sums of one
    # r sit together as 64-bit words, and four from_bytes rebuild a row's integer
    table = np.ascontiguousarray(limbs.reshape(len(c), quarter, 4).transpose(2, 1, 0)).reshape(4 * quarter, len(c))
    return m, table


def _prefix_constants(k: int, q: int) -> tuple:
    """``_crt_constants`` of the first q primes of (2^(k-1), 2^k), built on first use and kept."""
    key = (k, q)
    if key not in _PREFIX_CRT:
        _PREFIX_CRT[key] = _crt_constants(prime_table(k, q))
    return _PREFIX_CRT[key]


def _crt(residues, m: int, table) -> list:
    """Each row's integer modulo m from its residues (one column per prime of
    ``_crt_constants``' table): sum_q r_q c_q mod m."""
    quarter = len(table) // 4
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
