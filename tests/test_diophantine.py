import hashlib
from fractions import Fraction
from math import ceil

import mpmath
import pytest

from dyndeg.errors import AdmissibilityError, InconsistencyError
from dyndeg.gaussian import GaussianInt, gamma_argmax
from dyndeg import diophantine
from dyndeg.diophantine import (
    OCTANT_TO_GAMMA,
    ThetaContext,
    badly_approximable_diagnostics,
    cf_expand,
    irregular_indices,
    octant_gamma,
    phi_n_eval,
    psi_n_eval,
    regular_window_check,
    theta_interval,
)
from dyndeg.intervals import (
    ComplexInterval,
    Dyadic,
    RealInterval,
    abs_sq,
    abs_sup,
    box_product,
    gaussian_product,
    scale_int,
    squeeze,
    widen,
)
from dyndeg.powering import binary_power
from dyndeg.solver import alpha_of, phi_eval, solve_lambda

Z = GaussianInt
ZETA = Z(1, 2)


def theta_bounds(ctx):
    """(lo, hi) Fractions of a theta enclosure [A, B] * 2^-p."""
    return tuple(Fraction(e, 1 << ctx.precision_bits) for e in ctx.theta)


def offset_bounds(theta, p, n, m):
    """(lo, hi) Fractions of n * theta - m for theta = [A, B] * 2^-p."""
    return tuple(Fraction(n * e, 1 << p) - m for e in theta)


def overlap(x, y) -> bool:
    """Whether the real intervals x and y, as (lo, hi) Fractions, meet."""
    return max(x[0], y[0]) <= min(x[1], y[1])


def fractions_of(iv):
    return iv.lo.to_fraction(), iv.hi.to_fraction()


def mp_theta(zeta, dps=150):
    mpmath.mp.dps = dps
    t = mpmath.atan2(zeta.im, zeta.re) / (2 * mpmath.pi)
    if t < 0:
        t += 1
    return t


def mp_cf_coefficients(zeta, depth, dps=150):
    """Independent continued-fraction oracle at >= 256 bits of working precision."""
    x = mp_theta(zeta, dps)
    out = []
    for _ in range(depth + 1):
        a = int(mpmath.floor(x))
        out.append(a)
        x = 1 / (x - a)
    return tuple(out)


class TestThetaInterval:
    def test_reference_value(self):
        lo, hi = theta_bounds(theta_interval(ZETA, 128))
        v = Fraction("0.17620819117478")
        assert lo <= v + Fraction(1, 10**14)
        assert hi >= v

    def test_against_mpmath(self):
        for zeta in (ZETA, Z(-3, 4), Z(2, 1), Z(3, 2), Z(1, -2), Z(-5, -3)):
            lo, hi = theta_bounds(theta_interval(zeta, 160))
            truth = Fraction(mpmath.nstr(mp_theta(zeta), 40, strip_zeros=False))
            slack = Fraction(1, 10**35)
            assert lo - slack <= truth
            assert truth <= hi + slack

    def test_first_quadrant_bound(self):
        for zeta in (ZETA, Z(2, 1), Z(5, 3)):
            lo, hi = theta_bounds(theta_interval(zeta, 96))
            assert hi < Fraction(1, 4)
            assert lo > 0

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            theta_interval(Z(1, 1), 96)

    def test_nesting(self):
        coarse = theta_bounds(theta_interval(ZETA, 96))
        fine = theta_bounds(theta_interval(ZETA, 192))
        assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]
        assert fine[1] - fine[0] < coarse[1] - coarse[0]

    def test_refined_is_nested(self):
        ctx = theta_interval(ZETA, 64)
        (lo, hi), (finer_lo, finer_hi) = theta_bounds(ctx), theta_bounds(ctx.refined(256))
        assert lo <= finer_lo <= finer_hi <= hi


class TestContinuedFraction:
    def test_frozen_depth4(self):
        # digits confirmed by the independent oracle below before freezing
        cf = cf_expand(theta_interval(ZETA, 128), 4)
        assert cf.coefficients == (0, 5, 1, 2, 12)
        assert cf.convergents == ((0, 1), (1, 5), (1, 6), (3, 17), (37, 210))

    def test_depth0(self):
        cf = cf_expand(theta_interval(ZETA, 64), 0)
        assert cf.coefficients == (0,)

    @pytest.mark.parametrize("zeta", [ZETA, Z(-3, 4), Z(2, 1), Z(3, 2), Z(1, -2)])
    def test_against_independent_oracle(self, zeta):
        cf = cf_expand(theta_interval(zeta, 128), 20)
        assert cf.coefficients == mp_cf_coefficients(zeta, 20)

    def test_approximation_inequality_certified(self):
        cf = cf_expand(theta_interval(ZETA, 128), 20)
        for (m, n) in cf.convergents:
            err = offset_bounds(cf.theta, cf.precision_bits, n, m)
            assert max(abs(err[0]), abs(err[1])) < Fraction(1, n)

    def test_convergents_coprime_increasing(self):
        from math import gcd

        cf = cf_expand(theta_interval(ZETA, 128), 20)
        prev = 0
        for (m, n) in cf.convergents:
            assert gcd(m, n) == 1
            assert n >= prev
            prev = n
        assert cf.convergents[-1][1] > cf.convergents[1][1]

    def test_denominator_recurrence(self):
        cf = cf_expand(theta_interval(ZETA, 128), 12)
        ns = [n for (_, n) in cf.convergents]
        ms = [m for (m, _) in cf.convergents]
        for i in range(2, len(ns)):
            a = cf.coefficients[i]
            assert ns[i] == a * ns[i - 1] + ns[i - 2]
            assert ms[i] == a * ms[i - 1] + ms[i - 2]

    def test_17_times_theta_inequality(self):
        # |17*theta - 3| < 1/17, certified
        ctx = theta_interval(ZETA, 128)
        err = offset_bounds(ctx.theta, ctx.precision_bits, 17, 3)
        assert max(abs(err[0]), abs(err[1])) < Fraction(1, 17)

    def test_determinism(self):
        a = cf_expand(theta_interval(ZETA, 128), 10)
        b = cf_expand(theta_interval(ZETA, 128), 10)
        assert a.coefficients == b.coefficients
        assert a.theta == b.theta


@pytest.fixture
def refinements(monkeypatch):
    """The precisions octant_gamma refines theta to, in call order."""
    seen = []
    real = diophantine.theta_interval

    def counted(zeta, bits):
        seen.append(bits)
        return real(zeta, bits)

    monkeypatch.setattr(diophantine, "theta_interval", counted)
    return seen


class TestOctantGamma:
    def test_first_indices(self):
        ctx = theta_interval(ZETA, 128)
        assert octant_gamma(ctx, 1) == (1, Z(1, -2))
        assert octant_gamma(ctx, 2) == (2, Z(0, -2))
        assert octant_gamma(ctx, 3) == (4, Z(-2, 0))

    def test_lookup_table_is_complete(self):
        assert sorted(OCTANT_TO_GAMMA) == list(range(8))

    @pytest.mark.parametrize("zeta", [ZETA, Z(2, 1), Z(3, 2)])
    def test_matches_exact_argmax(self, zeta):
        ctx = theta_interval(zeta, 160)
        for j in range(1, 2001):
            assert octant_gamma(ctx, j)[1] == gamma_argmax(zeta, j)

    def test_fourth_quadrant_parameter(self):
        ctx = theta_interval(Z(1, -2), 128)
        for j in range(1, 200):
            assert octant_gamma(ctx, j)[1] == gamma_argmax(Z(1, -2), j)

    @pytest.mark.parametrize("zeta", [ZETA, Z(-3, 4), Z(503, 64)])
    def test_refines_from_eight_bits(self, zeta, refinements):
        ctx = theta_interval(zeta, 8)
        for j in range(1, 10**4 + 1):
            assert octant_gamma(ctx, j)[1] == gamma_argmax(zeta, j)
        assert refinements and max(refinements) >= 32

    def test_endpoints_with_different_exponents(self, refinements):
        # lo = 1/8 (a Dyadic of exponent -3, hi's is -63) and j*lo is an octant
        # boundary for every j, so the strict lower bound must send each call to 128 bits
        hi = theta_interval(ZETA, 64).theta[1]
        ctx = ThetaContext(ZETA, 64, (1 << 61, hi))
        assert (Dyadic.make(1 << 61, -64).exp, Dyadic.make(hi, -64).exp) == (-3, -63)
        for j in range(1, 2001):
            assert octant_gamma(ctx, j)[1] == gamma_argmax(ZETA, j)
        assert refinements == [128] * 2000

    @pytest.mark.parametrize(
        "zeta, octants, argmaxes",
        [
            (
                Z(503, 64),
                "b6f3280ba7c1ea0f6a789a00a63378bdb8ae8d789278fe15c068704271c903e2",
                "45e8ad8efbb294b836e3d86723c929e9f5e331c3ff0184405481b1579a9b4c74",
            ),
            (
                Z(-16, 282),
                "4d1fc846230c33ec8f2af7a0e57c4b71e51f5e8a9a7b9291122de8951b87e472",
                "88c856abab8e3c1eb3187a7989937c5df7c441d6d69684346b2b61619884004a",
            ),
            (
                Z(999, -998),
                "307ae153c16cc01a5adad36af36361ac1fe4dc2ac5bd7269ef2a47583a5521fb",
                "bfeb48c524edfa71d557f667d1cdc44e19e9ced3a6ea6c054119b683198ad742",
            ),
        ],
    )
    def test_survey_size_sweeps_pinned(self, zeta, octants, argmaxes):
        ctx = theta_interval(zeta, 128)
        by_octant = [(k, g.re, g.im) for k, g in (octant_gamma(ctx, j) for j in range(1, 1001))]
        by_argmax = [(g.re, g.im) for g in (gamma_argmax(zeta, j) for j in range(1, 1001))]
        assert hashlib.sha256(repr(by_octant).encode()).hexdigest() == octants
        assert hashlib.sha256(repr(by_argmax).encode()).hexdigest() == argmaxes


class TestIrregularIndices:
    def test_regular_window_empty(self):
        # n = 1345 is a deep convergent denominator; window up to 2n is clean
        rep = irregular_indices(ZETA, 1345, 2690)
        assert rep.irregular == ()
        assert rep.min_excess is None

    def test_frozen_n210(self):
        rep = irregular_indices(ZETA, 210, 1050)
        assert rep.irregular[:4] == (271, 354, 437, 498)
        assert rep.min_excess == 61
        assert rep.min_pair_gap == 22
        assert rep.min_shifted_gap == 5
        assert len(rep.irregular) == 16

    @pytest.mark.parametrize(
        "zeta, n, window_end",
        [
            (Z(1, 2), 210, 1050),
            (Z(-11, -8), 100, 701),
            (Z(2, 1), 12, 40),  # two exact hits j = j2 + n
            (Z(3, 1), 5, 100),
            (Z(517, -263), 210, 1050),  # 840 irregular indices, 630 exact hits
        ],
    )
    def test_min_shifted_gap_matches_pairwise_definition(self, zeta, n, window_end):
        rep = irregular_indices(zeta, n, window_end)
        pairwise = min(
            (abs(j - j2 - n) for j in rep.irregular for j2 in rep.irregular if j != j2 + n),
            default=None,
        )
        assert rep.min_shifted_gap == pairwise

    def test_beta_sparsity_pattern(self):
        n = 210
        rep = irregular_indices(ZETA, n, 1050)
        irregular = set(rep.irregular)
        for (i, j), v in rep.beta.items():
            small, big = min(i, j), max(i, j)
            assert small in (0, n)
            assert big in irregular
            assert rep.beta[(j, i)] == v.conj()
            assert not v.is_zero()

    def test_beta_values_are_gamma_differences(self):
        rep = irregular_indices(ZETA, 50, 120)
        for j in rep.irregular:
            c = gamma_argmax(ZETA, j) - gamma_argmax(ZETA, j - 50)
            assert rep.beta[(j, 0)] == c
            assert rep.beta[(j, 50)] == -c

    def test_csv_shape(self):
        rep = irregular_indices(ZETA, 50, 80)
        lines = rep.beta_csv_text().strip().splitlines()
        assert lines[0] == "n,i,j,beta_re,beta_im"
        assert len(lines) == 1 + len(rep.beta)

    def test_inadmissible_rejected_first(self):
        # admissibility is checked before the window, as theta_interval did
        with pytest.raises(AdmissibilityError, match="integer multiple of 1\\+i"):
            irregular_indices(Z(1, 1), 0, 0)


class TestRegularWindowCheck:
    def test_theorem_witness(self):
        # n = 1345: the approximation hypothesis holds for C = 1.5, so the
        # window must be all-regular
        ctx = theta_interval(ZETA, 256)
        rw = regular_window_check(ctx, 1345, Fraction(3, 2))
        assert rw.hypothesis_certified is True
        assert rw.passed and rw.first_irregular is None

    def test_frozen_n210(self):
        ctx = theta_interval(ZETA, 192)
        rw = regular_window_check(ctx, 210, 2)
        assert not rw.passed
        assert rw.first_irregular == 271
        assert rw.hypothesis_certified is False

    def test_aperiodicity_at_n1(self):
        ctx = theta_interval(ZETA, 128)
        rw = regular_window_check(ctx, 1, 10)
        assert not rw.passed
        assert rw.first_irregular == 2


class TestBadApproxDiagnostics:
    def test_depth20_statistics(self):
        ctx = theta_interval(ZETA, 160)
        cf = cf_expand(ctx, 20)
        diag = badly_approximable_diagnostics(cf)
        assert diag.max_coefficient == 43
        assert diag.kappa.lo.sign() > 0
        assert diag.kappa.hi.to_fraction() < 1
        assert diag.max_denominator_ratio <= diag.max_coefficient + 1

    def test_kappa_below_one_for_any_theta(self):
        for zeta in (ZETA, Z(3, 2), Z(-3, 4)):
            cf = cf_expand(theta_interval(zeta, 160), 15)
            diag = badly_approximable_diagnostics(cf)
            assert diag.kappa.hi.to_fraction() < 1

    def test_requires_depth(self):
        cf = cf_expand(theta_interval(ZETA, 128), 1)
        with pytest.raises(ValueError):
            badly_approximable_diagnostics(cf)


@pytest.fixture(scope="module")
def alpha50():
    enc = solve_lambda(ZETA, Fraction(1, 10**45))
    return alpha_of(ZETA, enc)


class TestPhiN:
    def test_inside_unit_interval_n50(self, alpha50):
        ctx = theta_interval(ZETA, 192)
        box = phi_n_eval(ctx, 50, alpha50)
        assert box.re.lo.sign() > 0
        assert box.re.hi.to_fraction() < 1

    def test_n1_geometric_series_identity(self, alpha50):
        # Phi_1(a) = gamma(1) a / (1 - a): compare against direct summation of
        # the periodic series gamma(1) * sum a^j with a tail bound
        ctx = theta_interval(ZETA, 128)
        box = phi_n_eval(ctx, 1, alpha50)
        g1 = gamma_argmax(ZETA, 1)
        a, pa = alpha50.fixed()
        s = Fraction(abs_sup(a, pa, 96), 1 << 96)
        n_terms, prec = 60, 256
        power, total = squeeze(a, pa - prec), (0, 0, 0, 0)
        for _ in range(n_terms):
            total = tuple(t + e for t, e in zip(total, gaussian_product(power, g1)))
            power = box_product(power, a, pa)
        # |gamma| <= sqrt(5) < 3
        direct = [Fraction(e, 1 << prec) for e in widen(total, ceil(3 * s**n_terms / (1 - s) * 2**prec))]
        assert overlap(direct[:2], fractions_of(box.re))
        assert overlap(direct[2:], fractions_of(box.im))

    def test_defect_decreases_along_n(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**130))
        alpha = alpha_of(ZETA, enc)
        ctx = theta_interval(ZETA, 192)
        defects = []
        for n in (50, 100, 200):
            box = phi_n_eval(ctx, n, alpha)
            defects.append(1 - box.re.hi.to_fraction())
        assert defects[0] > defects[1] > defects[2] > 0


class TestPsiN:
    def test_tolerance_read_as_phi_eval_reads_it(self, alpha50):
        ctx = theta_interval(ZETA, 192)
        box = psi_n_eval(ctx, 10, alpha50, Fraction(1, 1 << 60))
        assert psi_n_eval(ctx, 10, alpha50, Dyadic.make(1, -60)) == box
        for tol in (0, Dyadic.make(0, 0)):
            with pytest.raises(ValueError):
                psi_n_eval(ctx, 10, alpha50, tol)

    def test_routes_intersect_and_inside_unit(self):
        enc = solve_lambda(ZETA, Fraction(1, 10**60))
        alpha = alpha_of(ZETA, enc)
        ctx = theta_interval(ZETA, 192)
        psi = psi_n_eval(ctx, 50, alpha, Fraction(1, 10**50))
        assert psi.lo.sign() > 0
        assert psi.hi.to_fraction() < 1

    def test_matches_scaled_defect(self):
        # Psi_n = 2|1-a^n|^2 (1 - Re Phi_n) when Re Phi = 1 exactly; compare
        # against the closed-form box within its width
        enc = solve_lambda(ZETA, Fraction(1, 10**60))
        alpha = alpha_of(ZETA, enc)
        ctx = theta_interval(ZETA, 192)
        n = 50
        psi = psi_n_eval(ctx, n, alpha, Fraction(1, 10**50))
        box = phi_n_eval(ctx, n, alpha)
        a, pa = alpha.fixed()
        rl, rh, il, ih = binary_power(a, n, (1, 1, 0, 0), box_product)  # exact, over 2^(n pa)
        one = 1 << n * pa
        weight = [Fraction(w, 1 << 2 * n * pa) for w in scale_int(abs_sq((one - rh, one - rl, -ih, -il)), 2)]
        products = [w * (1 - x) for w in weight for x in fractions_of(box.re)]
        assert overlap((min(products), max(products)), fractions_of(psi))

    def test_empty_window_small_value(self):
        # n = 1345: no irregular index until far beyond the truncation, so the
        # bilinear route is tail-only and the defect is tiny
        enc = solve_lambda(ZETA, Fraction(1, 10**60))
        alpha = alpha_of(ZETA, enc)
        ctx = theta_interval(ZETA, 256)
        psi = psi_n_eval(ctx, 1345, alpha, Fraction(1, 10**40))
        assert abs(psi.lo.to_fraction()) < Fraction(1, 10**38)
        assert abs(psi.hi.to_fraction()) < Fraction(1, 10**38)


def _box_digest(box):
    parts = (box.re, box.im) if hasattr(box, "im") else (box,)
    text = " ".join(f"{d.man}p{d.exp}" for iv in parts for d in (iv.lo, iv.hi))
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the exact endpoints of the Phi, Phi_n and Psi_n boxes (lambda to
# 1e-60, theta at 192 bits, tail tolerance 1e-40), recorded before the three
# evaluators shared one power table; n = 200 exceeds Phi's 128 terms.
BOX_DIGESTS = {
    ((1, 2), 50): (
        "bf3c7e372e31e4f1f91d8e22261922ecb8035cc70386489617da185b967e52c9",
        "c72251b4ce7d6a3d23d19d297749938645d36f896f2f3ee13d0ea9996af69bf8",
        "a503e0349c4338e8f7e6537a72861e171cc2ba3ad004f3ab86ebbdf5955b036f",
    ),
    ((1, 2), 200): (
        "bf3c7e372e31e4f1f91d8e22261922ecb8035cc70386489617da185b967e52c9",
        "71fbcad5e37fffe6212eee8a16b9675840afa2052b2b4835a6d86c08aab53f53",
        "c1a5f6daa6973c0565de140f08139cb8f7e0cbecd7f0036b4ec2cfb8724e3392",
    ),
    ((-7, 23), 50): (
        "9259a7072b8cc2b9600e0b9cabd32489b984a1662cc47d77d7471af500151e4a",
        "6b6dd3fdd1d3cb5d629dcee4fc3d9a0e22b1beaeba4fd60e07c55994d3b83f82",
        "8e7da5907e91f3145300bc3e86bc6929c56e40d635f87209c25d5f4549f845f4",
    ),
    ((-7, 23), 200): (
        "9259a7072b8cc2b9600e0b9cabd32489b984a1662cc47d77d7471af500151e4a",
        "314616393ba38c3044e3e5e42601e9e84499d7d62e904870905d09866d38f4cd",
        "77fc1e649abde5cd1f6a66da45998ec0cdec5799434f45426888c20990cadf76",
    ),
    ((31, -44), 50): (
        "57afa8ca6aa8c8d07bbdd914b8edefe48fd2865a1e22ff33a461b477e340d1b5",
        "34b38438f01747a7aae0ccc6318cb8e05ef314d13f315df928005f59258d02bb",
        "36ca6fca3ba9348b0a676888db73f7b588cc7d7e5bd9de425e9ce599ff24361b",
    ),
    ((31, -44), 200): (
        "57afa8ca6aa8c8d07bbdd914b8edefe48fd2865a1e22ff33a461b477e340d1b5",
        "5ea101ea19ded801ade45f4955a0edcd88937ffbcb5c0068897a8656f17bae61",
        "d97bfa38c322a65f972cc442e706d1c8ad7b1881769a9a880a377199a8154744",
    ),
    ((-3, 4), 50): (
        "6c6d9fb99a4146036d2dccda060fbf7664ff825c2c1e39a032e9ab9495614569",
        "8a026d3e9c49636f007f6d55043ae5acdfd0ec6b73be0a0a2fcd5c99a5e0648e",
        "696ccce4d8b81950449c680cca06ab2d10a315b207d657968d813186b6deaf6f",
    ),
    ((-3, 4), 200): (
        "6c6d9fb99a4146036d2dccda060fbf7664ff825c2c1e39a032e9ab9495614569",
        "823e87943507ef254e6361c3b9300b2a8bacbe1759d1c8023a3909fd67dfdaf8",
        "0ca61a18e4e7404ab6b964c9cb0af2690be1f681e678c5db2d795471ca0b5b50",
    ),
    ((2, 1), 50): (
        "1a788b7582c5fd12a266c4c2046411ea548bc086e94ee7c38e3aea4e4e39738b",
        "8960b69e8ff3d433273e9345dcdf46b8dc273779038f94e7b525ad5589af10ee",
        "d2c6ce2083d596fcb5593a08d57b395c9b135ba06f4e664c86f670efa5f65993",
    ),
    ((2, 1), 200): (
        "1a788b7582c5fd12a266c4c2046411ea548bc086e94ee7c38e3aea4e4e39738b",
        "245025240e61d34ade66d15482b825b67e455ec46b9daad555cbd9572351dff5",
        "323bd5074541abd57112fbdcea03e1f993a326fddf53986c76e0bf389d512ef3",
    ),
}


@pytest.mark.parametrize("zeta, n", list(BOX_DIGESTS))
def test_series_boxes_bit_identical(zeta, n):
    z = Z(*zeta)
    alpha = alpha_of(z, solve_lambda(z, Fraction(1, 10**60)))
    ctx = theta_interval(z, 192)
    tol = Fraction(1, 10**40)
    boxes = (phi_eval(z, alpha, tol), phi_n_eval(ctx, n, alpha), psi_n_eval(ctx, n, alpha, tol))
    assert tuple(_box_digest(b) for b in boxes) == BOX_DIGESTS[(zeta, n)]


# SHA-256 of the Phi, Phi_n and Psi_n boxes in the benchmark's lambda-deep
# configuration (lambda to 1e-150, theta at 256 bits, n = 100, tail tolerance
# 1e-110), recorded from the ComplexInterval series loop before the table ran
# on integers.
LAMBDA_DEEP_DIGESTS = {
    (1, 2): (
        "2379bf9d6061c4ff1bfb1c5f4f4724e2f90f9b74b1e614d253cf206880381244",
        "f3645e49a91c753c9d079b65fe9a20db8150556befbf2ee8bc2587de05e754d7",
        "d551f5a32dcf409aa114cdb0dec398e777ce5dc407dc9c6d7bb8c23dbc32dff3",
    ),
    (-7, 23): (
        "5cde9067bb7788ef1456853e20d7f750025f2624f36ef096f22bbf38be94c077",
        "caee7a7454298418f493152b77ecec2a22111667fc76b68ddd6dae47b6fb616d",
        "1b17f235ef97cd411643dd12c58068962346b196bc4ff6a9b145a3886f10fd03",
    ),
    (42, -45): (
        "3f36978543fce971a10643f714d70d2d0f8728e2c800c432b433d275045de719",
        "b75d60f9122d35ab4bb1f39e526df5f3c22debfb0c68ae09f67a68e79da90fca",
        "9fc769fa70ebf6ecb1dfdd8be09256fda029584f224e778d0bec2cf7acaad806",
    ),
}


@pytest.mark.parametrize("zeta", list(LAMBDA_DEEP_DIGESTS))
def test_lambda_deep_boxes_bit_identical(zeta):
    z = Z(*zeta)
    alpha = alpha_of(z, solve_lambda(z, Fraction(1, 10**150)))
    ctx = theta_interval(z, 256)
    tol = Fraction(1, 10**110)
    boxes = (phi_eval(z, alpha, tol), phi_n_eval(ctx, 100, alpha), psi_n_eval(ctx, 100, alpha, tol))
    assert tuple(_box_digest(b) for b in boxes) == LAMBDA_DEEP_DIGESTS[zeta]


# hand-built alpha boxes that straddle an axis; the second has a lower
# endpoint at 2^-200, finer than phi_n_eval's 96-bit working precision
STRADDLING_ALPHAS = {
    "imaginary-axis": ComplexInterval(
        RealInterval(Dyadic.make(-3, -12), Dyadic.make(5, -7)),
        RealInterval(Dyadic.make(11, -5), Dyadic.make(23, -6)),
    ),
    "real-axis": ComplexInterval(
        RealInterval(Dyadic.make(-(1211 << 189) - 1, -200), Dyadic.make(-1211, -11)),
        RealInterval(Dyadic.make(-7, -23), Dyadic.make(3, -15)),
    ),
}

# SHA-256 of phi_n_eval's box for 1+2i at those alphas, recorded as above
STRADDLING_DIGESTS = {
    ("imaginary-axis", 37): "135b46231393232b4fff8497b22dceece602edf93d3ece7214820e12bf283f75",
    ("imaginary-axis", 100): "506c9b0a19ba8b7b3be7f911e43297ac801ac991969639ce896259f1eb1f5e39",
    ("real-axis", 37): "df246569063cb1469c8a5e95569d369307076420bfd5da090c5779e2e9b9cd09",
    ("real-axis", 100): "3aabc4c7d6e1f92d676b6f36ed0f00b32c72602bacee2736cb18e6eb9f500a28",
}


@pytest.mark.parametrize("name, n", list(STRADDLING_DIGESTS))
def test_straddling_alpha_phi_n_bit_identical(name, n):
    box = phi_n_eval(theta_interval(ZETA, 128), n, STRADDLING_ALPHAS[name])
    assert _box_digest(box) == STRADDLING_DIGESTS[(name, n)]
