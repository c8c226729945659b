import pytest
from hypothesis import given, strategies as st

from dyndeg.powering import binary_power


class Counted:
    """An integer whose products are counted in a shared list."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        self.log.append((self.value, other.value))
        return Counted(self.value * other.value, self.log)


class TestBinaryPower:
    @given(st.integers(-50, 50), st.integers(0, 300))
    def test_value_and_product_count(self, x, n):
        log = []
        got = binary_power(Counted(x, log), n, Counted(1, log))
        assert got.value == x**n
        assert len(log) == (bin(n).count("1") + n.bit_length() - 1 if n else 0)

    def test_zeroth_power_is_one(self):
        one = object()
        assert binary_power(3, 0, one) is one

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            binary_power(3, -1, 1)
