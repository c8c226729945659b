"""Binary powering, the one routine behind every integer power in dyndeg."""

from __future__ import annotations

from operator import mul as _mul


def binary_power(x, n: int, one, mul=_mul):
    """x^n for n >= 0, with ``one`` the identity of the multiplication ``mul``.

    Right-to-left binary method (Knuth, TAOCP Vol. 2, 4.6.3): the result
    takes a factor at each set bit of n, and x is squared between bits but
    not after the top one, so n >= 1 costs popcount(n) + bit_length(n) - 1
    products.  Each product is ``mul(result, x)`` or ``mul(x, x)`` (by
    default ``result * x`` and ``x * x``), in that order, so interval types
    see the same operations on every run.
    """
    if n < 0:
        raise ValueError("negative exponent")
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result
