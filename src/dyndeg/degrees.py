"""Degree sequences of map iterates: the composition recursion and series checks.

The inner degree data (d_j) comes from the Gaussian-integer module; this module
owns the sequence containers, the convolution recursion producing (e_n), the
truncated generating-series identity, and the topological degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import mul

_ORIGINS = ("monomial_d", "composed_e", "oracle")


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

    def to_csv_text(self):
        lines = ["index,value"]
        lines += [f"{i},{self[i]}" for i in self.indices()]
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        # decimal strings: entries overflow fixed-width consumers quickly
        return {
            "start_index": self.start_index,
            "origin": self.origin,
            "values": [str(v) for v in self.values],
        }

    def to_json_text(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)


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
    rev = d.values[first : first + N][::-1]  # d_N, ..., d_1
    e = [1]
    for n in range(1, N + 1):
        tail = rev[N - n :]  # d_n, ..., d_1
        e.append(tail[0] + sum(map(mul, e, tail)))
    return DegreeSequence(values=tuple(e), start_index=0, origin="composed_e")


class TruncatedIntSeries:
    """Integer power series truncated at a fixed order; arithmetic is exact mod z^(N+1)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("order must be >= 0")
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        self.coeffs = c
        self.order = order

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedIntSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._check(other)
        return TruncatedIntSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other):
        self._check(other)
        return TruncatedIntSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other):
        self._check(other)
        N = self.order
        rev = other.coeffs[::-1]  # b_N, ..., b_0
        out = [sum(map(mul, self.coeffs, rev[N - k :])) for k in range(N + 1)]  # a_i * b_(k-i)
        return TruncatedIntSeries(out, N)

    def _check(self, other):
        if not isinstance(other, TruncatedIntSeries) or other.order != self.order:
            raise ValueError("series orders must match")

    def __repr__(self):
        return f"TruncatedIntSeries({self.coeffs!r})"


def _delta_series(seq: DegreeSequence, N: int) -> TruncatedIntSeries:
    """sum_{j=1}^{N} seq_j z^j as a truncated series."""
    coeffs = [0] * (N + 1)
    for j in range(1, N + 1):
        coeffs[j] = seq[j]
    return TruncatedIntSeries(coeffs, N)


def series_identity_check(d: DegreeSequence, e: DegreeSequence, N: int) -> int:
    """Verify (2 + Delta_f)(1 - Delta_h) = 2 through order N, exactly.

    Returns the largest M <= N such that the product has constant term 2 and
    vanishing coefficients at orders 1..M; N means full success, 0 means
    failure already at order 1.
    """
    if e.start_index != 0 or e[0] != 1:
        raise ValueError("e must be a composed_e-style sequence with e_0 = 1")
    if N > 0 and (d.last_index < N or e.last_index < N):
        raise ValueError("both sequences must reach index N")
    two = TruncatedIntSeries([2], N)
    one = TruncatedIntSeries([1], N)
    prod = (two + _delta_series(e, N)) * (one - _delta_series(d, N))
    if prod.coeffs[0] != 2:
        raise ValueError("constant term is not 2; malformed sequences")
    M = 0
    while M < N and prod.coeffs[M + 1] == 0:
        M += 1
    return M


def lambda2(zeta) -> int:
    """Topological degree of the monomial factor: the norm of the Gaussian parameter."""
    n = zeta.re * zeta.re + zeta.im * zeta.im
    if n == 0:
        raise ValueError("zeta must be nonzero")
    return n
