"""Precision-cap and resource-limit behavior."""

from fractions import Fraction

import pytest

from dyndeg.cli import main
from dyndeg.degrees import e_sequence, series_identity_check
from dyndeg.errors import PrecisionError
from dyndeg.gaussian import GaussianInt, d_sequence
from dyndeg.diophantine import cf_expand, regular_window_check, theta_interval
from dyndeg.oracle import PlaneRationalMap, compose, g_map, identity_map
from dyndeg.polynomials import HomoPoly
from dyndeg.solver import precision_cap, solve_lambda

ZETA = GaussianInt(1, 2)
D3 = d_sequence(ZETA, 3)


class TestPrecisionCap:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("DYNDEG_PRECISION_CAP", raising=False)
        assert precision_cap() == 1 << 16

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "4096")
        assert precision_cap() == 4096

    def test_solver_raises_at_cap(self, monkeypatch):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "64")
        with pytest.raises(PrecisionError):
            solve_lambda(ZETA, Fraction(1, 10**40))

    def test_cf_raises_at_cap(self, monkeypatch):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "32")
        ctx = theta_interval(ZETA, 16)
        with pytest.raises(PrecisionError):
            cf_expand(ctx, 60)

    def test_theta_interval_checks_cap_first(self, monkeypatch):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "64")
        with pytest.raises(PrecisionError, match="100 bits exceeds the cap of 64 bits"):
            theta_interval(ZETA, 100)

    def test_cli_exit3(self, monkeypatch, capsys):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "64")
        code = main(["lambda", "--zeta", "1+2i", "--digits", "40"])
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_rejects_tiny_cap(self, monkeypatch):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "4")
        with pytest.raises(ValueError):
            precision_cap()

    @pytest.mark.parametrize("raw", ["abc", "", "-5", "16.0"])
    def test_rejects_malformed_cap(self, monkeypatch, raw):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", raw)
        with pytest.raises(ValueError, match="must be an integer >= 16"):
            precision_cap()


class TestIndexBounds:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: regular_window_check(theta_interval(ZETA), 0, 2), "n must be >= 1"),
            (lambda: regular_window_check(theta_interval(ZETA), -3, 2), "n must be >= 1"),
            (lambda: series_identity_check(D3, e_sequence(D3, 3), -1), "N must be >= 0"),
        ],
        ids=["window-n0", "window-n-3", "identity-N-1"],
    )
    def test_rejects_index_below_range(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestReduceIdempotence:
    def test_on_raw_involution_square(self):
        # g's components evaluated at g's components, unreduced (degree 4)
        x = g_map().components
        raw = tuple(
            sum(((x[0].pow(i) * x[1].pow(j) * x[2].pow(k)).scale(c) for i, j, k, c in P.items()), HomoPoly.zero(0))
            for P in x
        )
        once = compose(PlaneRationalMap(components=raw), identity_map())
        twice = compose(PlaneRationalMap(components=once.components), identity_map())
        assert once.same_map(identity_map())
        assert once.components == twice.components
