import pytest
from hypothesis import given, settings, strategies as st

from dyndeg.degrees import DegreeSequence, e_sequence, lambda2, series_identity_check
from dyndeg.gaussian import GaussianInt, d_sequence

Z = GaussianInt
ZETA = Z(1, 2)


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

    def test_csv_round_numbers(self):
        d = d_sequence(ZETA, 3)
        assert d.to_csv_text() == "index,value\n1,5\n2,8\n3,22\n"

    def test_json_decimal_strings(self):
        e = e_sequence(d_sequence(ZETA, 3), 3)
        obj = e.to_json_obj()
        assert obj["values"] == ["1", "10", "66", "454"]
