import random
import subprocess
import sys

import numpy as np
import pytest
import sympy

from dyndeg.errors import ResourceExhausted
from dyndeg.modp import LINE_PRIMES, _interpolate_mod, _power_table, prime_table


def consecutive_primes(above: int, count: int) -> list:
    got = [sympy.nextprime(above)]
    while len(got) < count:
        got.append(sympy.nextprime(got[-1]))
    return got


@pytest.mark.parametrize("k", [24, 25, 26, 27])
def test_prime_table_skips_no_prime(k):
    # the bit sizes that N <= 10^4 uses: each table starts at the first prime
    # above 2^(k-1) and runs through consecutive primes
    assert list(prime_table(k, 40)) == consecutive_primes(1 << (k - 1), 40)


def test_line_primes_are_the_first_of_26_bits():
    assert list(LINE_PRIMES) == consecutive_primes(1 << 25, 8)


def test_prime_table_stops_at_its_bit_size():
    assert prime_table(3, 2) == (5, 7)
    with pytest.raises(ResourceExhausted):
        prime_table(3, 3)
    assert prime_table(3, 1) == (5,)


@pytest.mark.parametrize("p", [LINE_PRIMES[0], LINE_PRIMES[7]])
@pytest.mark.parametrize("n", [1, 2, 3, 47, 48, 455, 2048])
def test_interpolate_recovers_the_polynomial_of_its_values(n, p):
    # a polynomial of degree below n, evaluated at 0..n-1 on Python ints by
    # Horner, is the one interpolant of those values
    rng = random.Random(n)
    coeffs = [rng.randrange(p) for _ in range(n - 1)] + [p - 1]  # ascending
    values = []
    for x in range(n):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        values.append(v)
    assert _interpolate_mod(np.array(values, dtype=np.int64), p).tolist() == coeffs


def test_interpolate_refuses_more_than_2048_nodes():
    with pytest.raises(ValueError):
        _interpolate_mod(np.ones(2049, dtype=np.int64), LINE_PRIMES[0])


@pytest.mark.parametrize("top", [0, 1, 2, 37, 64])
def test_power_table_with_a_vector_of_moduli(top):
    primes = prime_table(27, 6)
    rng = random.Random(top)
    r = [rng.randrange(p) for p in primes]
    r[0] = 65536 % primes[0]  # the limb base of degrees' residues
    table = _power_table(np.array(r, dtype=np.int64), top, np.array(primes, dtype=np.int64))
    assert table.tolist() == [[pow(x, e, p) for x, p in zip(r, primes)] for e in range(top + 1)]


def test_degree_kernel_imports_no_polynomials():
    code = (
        "import sys, dyndeg.degrees, dyndeg.solver, dyndeg.diophantine; "
        "assert 'dyndeg.polynomials' not in sys.modules, sorted(sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
