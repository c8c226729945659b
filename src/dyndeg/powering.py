"""Binary powering, the one routine behind every integer power in dyndeg."""

from __future__ import annotations


def binary_power(x, n: int, one):
    """x^n for n >= 0, with ``one`` the identity of x's multiplication.

    Right-to-left binary method (Knuth, TAOCP Vol. 2, 4.6.3): the result
    takes a factor at each set bit of n, and x is squared between bits but
    not after the top one, so n >= 1 costs popcount(n) + bit_length(n) - 1
    products.  Each product is ``result * x`` or ``x * x``, in that order,
    so interval types see the same operations on every run.
    """
    if n < 0:
        raise ValueError("negative exponent")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result
