"""Degree sequences of map iterates: the composition recursion and series checks.

The inner degree data (d_j) comes from the Gaussian-integer module; this module
owns the sequence containers, the convolution recursion producing (e_n), the
generating-series identity checked coefficient by coefficient, and the
topological degree.
"""

from __future__ import annotations

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
    rev = [d[j] for j in range(N, 0, -1)]  # d_N, ..., d_1
    for k in range(1, N + 1):
        tail = rev[N - k :]  # d_k, ..., d_1
        if e[k] - 2 * tail[0] - sum(map(mul, e.values[1:k], tail[1:])):
            return k - 1
    return N


def lambda2(zeta) -> int:
    """Topological degree of the monomial factor: the norm of the Gaussian parameter."""
    n = zeta.re * zeta.re + zeta.im * zeta.im
    if n == 0:
        raise ValueError("zeta must be nonzero")
    return n
