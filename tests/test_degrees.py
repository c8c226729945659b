import subprocess
import sys
import tracemalloc
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from dyndeg import degrees
from dyndeg.degrees import DegreeSequence, e_sequence, lambda2, series_identity_check
from dyndeg.gaussian import GaussianInt, d_sequence, is_admissible

Z = GaussianInt
ZETA = Z(1, 2)


def reference_e(d, N):
    """e_0..e_N by the exact big-integer recursion e_n = d_n + sum_{j<n} e_j d_{n-j}."""
    first = 1 - d.start_index
    rev = d.values[first : first + N][::-1]  # d_N, ..., d_1
    e = [1]
    for n in range(1, N + 1):
        tail = rev[N - n :]  # d_n, ..., d_1
        e.append(tail[0] + sum(map(mul, e, tail)))
    return tuple(e)


def reference_check(d, e, N):
    """Largest M <= N with coefficients 1..M of (2 + Delta_f)(1 - Delta_h) zero, exactly."""
    rev = [d[j] for j in range(N, 0, -1)]  # d_N, ..., d_1
    for k in range(1, N + 1):
        tail = rev[N - k :]  # d_k, ..., d_1
        if e[k] - 2 * tail[0] - sum(map(mul, e.values[1:k], tail[1:])):
            return k - 1
    return N


def inner(values):
    return DegreeSequence(values=tuple(values), start_index=1, origin="monomial_d")


def composed(values):
    return DegreeSequence(values=tuple(values), start_index=0, origin="composed_e")


def zetas(bound):
    pairs = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
    return pairs.map(lambda z: Z(*z)).filter(is_admissible)


@st.composite
def positive_sequences(draw):
    """Positive d that stress where the growth bound starts: d_1 = 1 then steep
    growth, a constant, or one huge term among small ones."""
    N = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["steep", "constant", "spike"]))
    if kind == "steep":  # s0 is set by a late term, not by d_1
        rate = draw(st.integers(2, 64))
        return [1] + [draw(st.integers(1 << (rate * (j - 1)), 1 << (rate * j))) for j in range(2, N + 1)]
    if kind == "constant":
        return [draw(st.integers(1, 1 << 70))] * N
    values = [draw(st.integers(1, 3)) for _ in range(N)]
    values[draw(st.integers(0, N - 1))] = draw(st.integers(1 << 100, 1 << 600))
    return values


class TestESequence:
    def test_e0(self):
        d = d_sequence(ZETA, 1)
        assert e_sequence(d, 0)[0] == 1

    def test_e1(self):
        d = d_sequence(ZETA, 1)
        e = e_sequence(d, 1)
        assert e[1] == 10  # d_1 + e_0*d_1 with d_1 = 5

    def test_e2_e3(self):
        e = e_sequence(d_sequence(ZETA, 3), 3)
        assert (e[2], e[3]) == (66, 454)

    def test_strictly_increasing(self):
        e = e_sequence(d_sequence(ZETA, 40), 40)
        for n in range(40):
            assert e[n + 1] > e[n]

    def test_submultiplicative(self):
        e = e_sequence(d_sequence(ZETA, 24), 24)
        for m in range(0, 13):
            for n in range(0, 13):
                assert e[m + n] <= e[m] * e[n]

    def test_requires_enough_d(self):
        with pytest.raises(ValueError):
            e_sequence(d_sequence(ZETA, 3), 5)
        # d_2..d_4 reaches index 3 but lacks d_1
        late = DegreeSequence((3, 4, 5), start_index=2, origin="monomial_d")
        e = e_sequence(d_sequence(ZETA, 3), 3)
        with pytest.raises(ValueError, match="need d_1..d_3, have d_2..d_4"):
            e_sequence(late, 3)
        with pytest.raises(ValueError, match="need d_1..d_3, have d_2..d_4"):
            series_identity_check(late, e, 3)


class TestSeriesIdentity:
    def test_order_zero(self):
        d = d_sequence(ZETA, 1)
        e = e_sequence(d, 1)
        assert series_identity_check(d, e, 0) == 0

    @pytest.mark.parametrize("zeta", [Z(1, 2), Z(-3, 4), Z(2, 1), Z(3, 2)])
    def test_full_verification_to_50(self, zeta):
        d = d_sequence(zeta, 50)
        e = e_sequence(d, 50)
        assert series_identity_check(d, e, 50) == 50

    def test_perturbation_detected_at_order_one(self):
        d = d_sequence(ZETA, 50)
        e = e_sequence(d, 50)
        bad = DegreeSequence(
            values=(1, 11) + e.values[2:], start_index=0, origin="composed_e"
        )
        assert series_identity_check(d, bad, 50) == 0

    def test_perturbation_detected_mid_sequence(self):
        d = d_sequence(ZETA, 30)
        e = e_sequence(d, 30)
        vals = list(e.values)
        vals[7] += 1
        bad = DegreeSequence(values=tuple(vals), start_index=0, origin="composed_e")
        assert series_identity_check(d, bad, 30) == 6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.sampled_from([-3, -1, 1, 2]), st.booleans())
    def test_first_perturbed_order_property(self, k, delta, perturb_d):
        # coefficient k moves by delta (e_k) or -2 delta (d_k); lower orders do not
        d = d_sequence(ZETA, 30)
        e = e_sequence(d, 30)
        if perturb_d:
            vals = list(d.values)
            vals[k - 1] += delta
            d = DegreeSequence(values=tuple(vals), start_index=1, origin="monomial_d")
        else:
            vals = list(e.values)
            vals[k] += delta
            e = DegreeSequence(values=tuple(vals), start_index=0, origin="composed_e")
        assert series_identity_check(d, e, 30) == k - 1


class TestModularKernel:
    # the edges of the 32-row CRT blocks, each rebuilt from its own prime prefix
    @example(Z(1, 2), 31)
    @example(Z(1, 2), 32)
    @example(Z(1, 2), 33)
    @example(Z(1, 2), 64)
    @example(Z(1, 2), 65)
    @example(Z(903, 411), 31)
    @example(Z(903, 411), 32)
    @example(Z(903, 411), 33)
    @example(Z(903, 411), 64)
    @example(Z(903, 411), 65)
    @settings(max_examples=25, deadline=None)
    @given(zetas(1000), st.sampled_from([0, 1, 2, 3, 20, 200]))
    def test_psi_sequences_match_reference(self, zeta, N):
        d = d_sequence(zeta, N)
        assert e_sequence(d, N).values == reference_e(d, N)

    @settings(max_examples=2, deadline=None)
    @given(zetas(6))
    def test_psi_sequences_match_reference_at_1000(self, zeta):
        d = d_sequence(zeta, 1000)
        assert e_sequence(d, 1000).values == reference_e(d, 1000)

    @example([(1 << 41) - 1] + [1] * 29)  # the check's beta needs one more prime than the recursion took
    @settings(max_examples=60, deadline=None)
    @given(positive_sequences())
    def test_arbitrary_positive_sequences_match_reference(self, values):
        d = inner(values)
        e = e_sequence(d, len(values))
        assert e.values == reference_e(d, len(values))
        assert series_identity_check(d, e, len(values)) == len(values)

    def test_growth_bound_takes_the_second_pass(self):
        # s0 = 8 from d_1 = 255 fails: 255/2^8 + 65535/2^16 > 1; s0 + 1 = 9 passes
        assert degrees._growth_rate((255, 65535)) == 9
        assert degrees._growth_rate((1, 1, 1)) == 1
        d = inner((255, 65535))
        assert e_sequence(d, 2).values == reference_e(d, 2)

    def test_running_example_iterates_four_to_six(self):
        assert e_sequence(d_sequence(ZETA, 6), 6).values[4:] == (3114, 21368, 146488)

    @pytest.mark.parametrize("spike", [2**2000, 2**2000 - 1, 2**1999 + 1, 3], ids=["2^2000", "2^2000-1", "2^1999+1", "3"])
    def test_rows_complete_at_their_own_prefix(self, spike):
        # e_n lies near its bound 2^(sn+1): e_1 is rebuilt from the first prime
        # group alone, and each later group serves only the rows whose bound
        # reaches past the groups before it
        d = inner((spike,) + (1,) * 19)
        primes = degrees._moduli(degrees._word_bits(20), degrees._growth_rate(d.values) * 20 + 1)
        assert spike == 3 or len(degrees._groups(len(primes), degrees._word_bits(20), 21)) > 5
        assert e_sequence(d, 20).values == reference_e(d, 20)

    def test_groups_and_row_blocks(self, monkeypatch):
        # tiny blocks force many prime groups and one-row residue and CRT blocks
        monkeypatch.setattr(degrees, "_BLOCK_WORDS", 64)
        for zeta, N in ((Z(503, 64), 40), (Z(-900, 417), 25)):
            d = d_sequence(zeta, N)
            e = e_sequence(d, N)
            assert e.values == reference_e(d, N)
            assert series_identity_check(d, e, N) == N
            vals = list(e.values)
            vals[N // 2] += 1
            assert series_identity_check(d, composed(vals), N) == N // 2 - 1

    def test_residues_of_long_integers(self):
        # values of 2^22 and 3.2 million bits against three primes near 2^31
        # are reduced modulo their product first
        primes = degrees._moduli(31, 90)
        values = [(1 << (1 << 22)) - 1, 3**2_000_000, 1]
        got = degrees._residues(values, primes)
        assert got.tolist() == [[v % p for p in primes] for v in values]

    @settings(max_examples=40, deadline=None)
    @given(zetas(1000), st.sampled_from([1, 3, 20, 200]), st.data())
    def test_corrupted_e_matches_reference(self, zeta, N, data):
        d = d_sequence(zeta, N)
        e = e_sequence(d, N)
        k = data.draw(st.integers(1, N))
        vals = list(e.values)
        how = data.draw(st.sampled_from(["+1", "-1", "+2^m", "-2^m", "to 1", "+M"]))
        if how == "+1":
            vals[k] += 1
        elif how == "-1":
            vals[k] -= 1
        elif how == "+2^m":
            vals[k] += 1 << data.draw(st.integers(0, 3 * vals[k].bit_length()))
        elif how == "-2^m":
            vals[k] -= 1 << data.draw(st.integers(0, vals[k].bit_length() - 2))
        elif how == "to 1":
            vals[k] = 1
        else:  # agrees with e_k modulo every prime of the recursion
            primes = degrees._moduli(degrees._word_bits(N), degrees._growth_rate(d.values) * N + 1)
            vals[k] += prod(primes)
            assert all((vals[k] - e[k]) % p == 0 for p in primes)
        bad = composed(vals)
        assert series_identity_check(d, bad, N) == reference_check(d, bad, N) == k - 1

    def test_d_converted_once(self, monkeypatch):
        # the recursion and the check read one residue table of d; the check's
        # bound needs no more primes than the recursion's here
        d = d_sequence(Z(517, -263), 200)
        converted = []
        residues = degrees._residues

        def spy(values, primes):
            converted.append(tuple(values) == d.values)
            return residues(values, primes)

        monkeypatch.setattr(degrees, "_residues", spy)
        e = e_sequence(d, 200)
        assert series_identity_check(d, e, 200) == 200
        assert converted.count(True) == 1

    def test_memory_bounded_at_1000(self):
        d = d_sequence(Z(503, 64), 1000)
        tracemalloc.start()
        try:
            e = e_sequence(d, 1000)
            order = series_identity_check(d, e, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert order == 1000
        # the output e holds 0.6 MB; every int64 temporary stays within one block
        assert peak < 12 * 2**20

    def test_no_primes_at_import(self):
        # the shared table holds only the eight line primes that polynomials reads
        code = "import dyndeg.cli, dyndeg.modp as m; assert {k: len(v) for k, v in m._PRIMES.items()} == {26: 8}, m._PRIMES"
        subprocess.run([sys.executable, "-c", code], check=True)


class TestLambda2:
    def test_running_example(self):
        assert lambda2(ZETA) == 5

    def test_squared_parameter(self):
        assert lambda2(Z(-3, 4)) == 25

    def test_unit(self):
        assert lambda2(Z(1, 0)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lambda2(Z(0, 0))


class TestSequenceContainer:
    def test_indexing(self):
        d = d_sequence(ZETA, 4)
        assert d[1] == 5 and d[4] == 48
        with pytest.raises(IndexError):
            d[0]
        with pytest.raises(IndexError):
            d[5]

    def test_origin_invariant(self):
        with pytest.raises(ValueError):
            DegreeSequence(values=(2, 3), start_index=0, origin="composed_e")
        with pytest.raises(ValueError):
            DegreeSequence(values=(0,), start_index=1, origin="monomial_d")
        with pytest.raises(ValueError, match="unknown origin"):
            DegreeSequence(values=(10,), start_index=1, origin="oracle")

    def test_json_decimal_strings(self):
        e = e_sequence(d_sequence(ZETA, 3), 3)
        obj = e.to_json_obj()
        assert obj["values"] == ["1", "10", "66", "454"]
