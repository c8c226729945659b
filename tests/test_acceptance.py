"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

import pytest

from dyndeg.degrees import e_sequence, lambda2, series_identity_check
from dyndeg.diophantine import (
    badly_approximable_diagnostics,
    cf_expand,
    irregular_indices,
    octant_gamma,
    phi_n_eval,
    psi_n_eval,
    regular_window_check,
    theta_interval,
)
from dyndeg.gaussian import (
    GaussianInt,
    IntMatrix2x2,
    d_sequence,
    gamma_argmax,
    monomial_degree,
    psi,
)
from dyndeg.intervals import Dyadic
from dyndeg.oracle import (
    PlaneRationalMap,
    compose,
    composed_line_degree,
    degree_of_iterate,
    factored_line_degree,
    g_map,
    involution_checks,
    iterate_map,
    monomial_map,
)
from dyndeg.solver import alpha_of, solve_lambda

Z = GaussianInt
ZETA = Z(1, 2)
ZETA_SQ = Z(-3, 4)


def report(number, text):
    print(f"ACCEPTANCE {number:>2}: PASS - {text}")


@pytest.fixture(scope="module")
def lam_small():
    return solve_lambda(ZETA, Fraction(1, 10**9))


@pytest.fixture(scope="module")
def lam_large():
    return solve_lambda(ZETA_SQ, Fraction(1, 10**9))


@pytest.fixture(scope="module")
def f_map():
    return compose(g_map(), monomial_map(IntMatrix2x2.from_zeta(ZETA)))


@pytest.fixture(scope="module")
def deep_lambda():
    # enough resolution to certify the lag-200 defect (~1e-98)
    return solve_lambda(ZETA, Fraction(1, 10**120))


def test_01_lambda_reproduction(lam_small, lam_large):
    timings = []
    for zeta, digits in ((ZETA, "6.8575574092"), (ZETA_SQ, "13.4496076817")):
        t0 = time.perf_counter()
        enc = solve_lambda(zeta, Fraction(1, 10**9))
        timings.append(time.perf_counter() - t0)
        assert enc.width() <= Fraction(1, 10**9)
        printed = Fraction(digits)
        # the printed truncation must lie inside the certified interval
        assert enc.lo.to_fraction() <= printed + Fraction(1, 10**10)
        assert enc.hi.to_fraction() >= printed
    report(1, f"lambda digits reproduced at width<=1e-9 ({timings[0]:.3f}s, {timings[1]:.3f}s)")


def test_02_topological_degrees():
    assert lambda2(ZETA) == 5
    assert lambda2(ZETA_SQ) == 25
    report(2, "topological degrees 5 and 25, exact")


def test_03_regime_classification(lam_small, lam_large):
    assert Fraction(5) < lam_small.lo.to_fraction()  # small topological degree
    assert Fraction(25) > lam_large.hi.to_fraction()  # large topological degree
    report(3, "lambda_2 < lambda for 1+2i and lambda_2 > lambda for -3+4i")


def test_04_oracle_equivalence(f_map):
    t0 = time.perf_counter()
    e = e_sequence(d_sequence(ZETA, 3), 3)
    assert (e[1], e[2], e[3]) == (10, 66, 454)
    degs = [degree_of_iterate(f_map, n) for n in (1, 2, 3)]
    assert degs == [10, 66, 454]
    # independent route 1: random lines through f o f, which is never formed
    assert composed_line_degree(f_map, f_map, seed=101) == 66
    # independent route 2: random lines on the factored third iterate
    f3 = iterate_map(f_map, 3)
    assert factored_line_degree(f3, seed=102) == 454
    assert factored_line_degree(PlaneRationalMap(components=f_map.components), seed=103) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(4, f"iterate degrees 10/66/454 via reduction and random lines ({elapsed:.1f}s)")


def test_05_monomial_formula_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2024)

    def random_matrix():
        while True:
            m = IntMatrix2x2(*(rng.randint(-5, 5) for _ in range(4)))
            if m.det() != 0:
                return m

    matrices = [random_matrix() for _ in range(100)]
    for m in matrices:
        assert monomial_map(m).degree == monomial_degree(m)
    for m in matrices[:20]:
        hm = monomial_map(m)
        for n in range(1, 5):
            assert degree_of_iterate(hm, n) == monomial_degree(m**n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(5, f"monomial degree formula on 100 matrices + 20x4 iterates ({elapsed:.1f}s)")


def test_06_involution_suite():
    rep = involution_checks()
    assert rep.involution_identity
    assert rep.cremona_conjugacy
    assert rep.line_contractions == [True, True, True]
    report(6, "involution square, standard-form conjugacy, line contractions: exact")


def test_07_series_identity():
    for zeta in (ZETA, ZETA_SQ, Z(2, 1), Z(3, 2)):
        d = d_sequence(zeta, 50)
        e = e_sequence(d, 50)
        assert series_identity_check(d, e, 50) == 50
    report(7, "generating-series identity exact through order 50 for 4 parameters")


def test_08_root_equation_residual():
    enc = solve_lambda(ZETA, Fraction(1, 10**30))
    assert enc.width() <= Fraction(1, 10**30)
    N = enc.n_terms
    d = d_sequence(ZETA, N)
    prec = 256
    # t = 1/lambda rounded outward to 2^-prec
    (lam_lo, lam_hi), p = enc.interval.fixed()
    t_lo = Fraction((1 << prec + p) // lam_hi, 1 << prec)
    t_hi = Fraction(-((-1 << prec + p) // lam_lo), 1 << prec)
    # increasing function with positive coefficients: endpoint evaluation
    lo_sum = Fraction(0)
    hi_sum = Fraction(0)
    for j in range(N, 0, -1):
        lo_sum = (lo_sum + d[j]) * t_lo
        hi_sum = (hi_sum + d[j]) * t_hi
    sqrt5_hi = Dyadic.sqrt(Dyadic.from_int(5), prec, "ceil").to_fraction()
    x = sqrt5_hi * t_hi  # upper bound on |zeta| * t
    tail_hi = sqrt5_hi * x**N * x / (1 - x)
    assert lo_sum <= 1 <= hi_sum + tail_hi
    assert hi_sum + tail_hi - lo_sum < Fraction(1, 10**25)
    report(8, f"degree series at 1/lambda brackets 1 within {float(hi_sum + tail_hi - lo_sum):.1e}")


def test_09_gamma_dual_route():
    for zeta in (ZETA, Z(2, 1), Z(3, 2)):
        ctx = theta_interval(zeta, 192)
        for j in range(1, 10**5 + 1):
            assert octant_gamma(ctx, j)[1] == gamma_argmax(zeta, j)
    report(9, "octant route equals exact argmax for j <= 10^5, 3 parameters")


def test_10_psi_bounds():
    rng = random.Random(7)
    checked = 0
    while checked < 10**4:
        z = Z(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        p = psi(z)
        assert z.norm_sq() <= p * p <= 5 * z.norm_sq()
        checked += 1
    report(10, "norm comparability of the support function on 10^4 samples, exact")


def test_11_periodic_approximation_window(deep_lambda):
    ctx = theta_interval(ZETA, 256)
    alpha = alpha_of(ZETA, deep_lambda)
    tol = Fraction(1, 10**110)
    for n in (50, 100, 200):
        box = phi_n_eval(ctx, n, alpha)
        assert box.re.lo.sign() > 0
        assert box.re.hi.to_fraction() < 1
        assert box.re.width().to_fraction() <= Fraction(1, 10**6)
        value = psi_n_eval(ctx, n, alpha, tol)
        assert value.lo.sign() > 0
        assert value.hi.to_fraction() < 1
        assert value.width().to_fraction() <= Fraction(1, 10**6)
    report(11, "certified 0 < Re Phi_n < 1 and 0 < Psi_n < 1 at n in {50,100,200}")


def test_12_continued_fraction_validity():
    ctx = theta_interval(ZETA, 192)
    cf = cf_expand(ctx, 20)
    # frozen after confirmation by an independent high-precision oracle
    # (tests/test_diophantine.py::TestContinuedFraction::test_against_independent_oracle)
    assert cf.coefficients[:5] == (0, 5, 1, 2, 12)
    for i, (m, n) in enumerate(cf.convergents):
        err_lo, err_hi = (Fraction(n * e, 1 << cf.precision_bits) - m for e in cf.theta)
        assert max(abs(err_lo), abs(err_hi)) < Fraction(1, n)
        if i % 2 == 0:
            assert err_lo > 0
        else:
            assert err_hi < 0
    report(12, "20 certified convergents; approximation inequality and alternation hold")


def test_13_empirical_irregularity_reports():
    # The transcendence statement itself is not machine-checkable; the
    # replacement artifacts are the property suites above plus finite-window
    # irregularity evidence, which must exist and be well-formed.
    ctx = theta_interval(ZETA, 256)
    rep = irregular_indices(ZETA, 210, 5 * 210)
    assert rep.irregular  # evidence exists on this window
    assert rep.min_excess == 61 and rep.min_pair_gap == 22 and rep.min_shifted_gap == 5
    irregular = set(rep.irregular)
    for (i, j), v in rep.beta.items():
        assert min(i, j) in (0, 210) and max(i, j) in irregular
        assert rep.beta[(j, i)] == v.conj() and not v.is_zero()
    # a window where the all-regular proposition is witnessed with its hypothesis
    witness = regular_window_check(ctx, 1345, Fraction(3, 2))
    assert witness.hypothesis_certified and witness.passed
    # diagnostics report finite statistics without asserting limit behavior
    diag = badly_approximable_diagnostics(cf_expand(ctx, 20))
    assert diag.kappa.lo.sign() > 0 and diag.kappa.hi.to_fraction() < 1
    assert diag.max_denominator_ratio <= diag.max_coefficient + 1
    report(13, "finite-window irregularity evidence recorded; no limit claims asserted")
