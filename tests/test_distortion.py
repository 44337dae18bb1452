"""Tests for distortion functions and their normal-variable coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xolopt.distortion import (
    REFERENCE_QUANTILES,
    DistortionMeasure,
    normal_cdf,
    normal_quantile,
    parse_measure,
    phi_normal_by_quadrature,
)
from xolopt.errors import DomainError, NumericalFailure

ALL_MEASURES = [
    DistortionMeasure.var(0.75),
    DistortionMeasure.es(0.75),
    DistortionMeasure.dual_power(2.0),
    DistortionMeasure.gini(0.5),
    DistortionMeasure.pht(0.4),
    DistortionMeasure.wang(0.7),
]


class TestNormalQuantile:
    def test_reference_table(self):
        for p, z in REFERENCE_QUANTILES:
            assert normal_quantile(p) == pytest.approx(z, abs=1e-12)

    def test_symmetry_and_inverse(self):
        assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75))
        assert normal_cdf(normal_quantile(0.9)) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)

    def test_reference_table_to_the_last_digits(self):
        for p, z in REFERENCE_QUANTILES:
            assert abs(normal_quantile(p) - z) <= 1e-15

    def test_within_8_ulp_of_40_digit_mpmath(self):
        mp = pytest.importorskip("mpmath")
        tails = np.logspace(-10, math.log10(0.5), 60)
        grid = np.concatenate([tails, 1.0 - tails, np.linspace(0.001, 0.999, 61)])
        with mp.workdps(40):
            for p in grid:
                exact = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(float(p)) - 1)
                ulp = math.ulp(float(exact)) if exact != 0 else math.ulp(0.0)
                err = abs(mp.mpf(normal_quantile(float(p))) - exact) / ulp
                assert err <= 8, (p, float(err))


class TestDistortionShapes:
    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.describe())
    def test_endpoints(self, measure):
        assert measure.h(0.0) == 0.0
        assert measure.h(1.0) == 1.0

    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.describe())
    def test_monotone_nondecreasing(self, measure):
        s = np.linspace(0.0, 1.0, 201)
        vals = measure.h(s)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))

    @given(s=st.floats(0.0, 1.0))
    def test_dominates_identity_for_concave_kinds(self, s):
        """Concave distortions sit on or above the diagonal."""
        for measure in ALL_MEASURES[1:]:
            assert measure.h(s) >= s - 1e-12

    def test_explicit_values(self):
        assert DistortionMeasure.var(0.75).h(0.8) == 1.0
        assert DistortionMeasure.var(0.75).h(0.7) == 0.0
        assert DistortionMeasure.es(0.75).h(0.1) == pytest.approx(0.4)
        assert DistortionMeasure.dual_power(2.0).h(0.5) == pytest.approx(0.75)
        assert DistortionMeasure.gini(1.0).h(0.5) == pytest.approx(0.75)
        assert DistortionMeasure.pht(0.5).h(0.25) == pytest.approx(0.5)
        assert DistortionMeasure.wang(0.0).h(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_h_prime_matches_finite_difference(self):
        s = np.linspace(0.05, 0.95, 19)
        eps = 1e-6
        for measure in ALL_MEASURES[1:]:
            if measure.kind == "es":
                # central differences straddle the kink at s = 1 - p
                pts = s[np.abs(s - (1.0 - measure.param)) > 1e-3]
            else:
                pts = s
            num = (measure.h(pts + eps) - measure.h(pts - eps)) / (2 * eps)
            np.testing.assert_allclose(
                measure.h_prime(pts), num, rtol=1e-4, atol=1e-6
            )

    def test_var_has_no_density(self):
        with pytest.raises(DomainError):
            DistortionMeasure.var(0.75).h_prime(0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            DistortionMeasure.var(0.75).h(1.2)
        with pytest.raises(DomainError):
            DistortionMeasure("var", 1.5)
        with pytest.raises(DomainError):
            DistortionMeasure("dualpower", 0.5)
        with pytest.raises(DomainError):
            DistortionMeasure("banana", 0.5)


class TestPhiNormal:
    """The scalar that replaces the plain normal quantile in objectives."""

    def test_var_is_plain_quantile(self):
        assert DistortionMeasure.var(0.75).phi_normal() == pytest.approx(
            0.6744897501960817, abs=1e-12
        )

    def test_es_closed_form(self):
        # density at the 0.75 quantile over the tail mass, frozen from
        # 30-digit arithmetic
        assert DistortionMeasure.es(0.75).phi_normal() == pytest.approx(
            1.27110629074, abs=1e-9
        )

    def test_gini_one_equals_dual_power_two(self):
        """Both distortions describe the max of two copies: phi = 1/sqrt(pi)."""
        target = 1.0 / math.sqrt(math.pi)
        assert DistortionMeasure.gini(1.0).phi_normal() == pytest.approx(
            target, abs=1e-9
        )
        assert DistortionMeasure.dual_power(2.0).phi_normal() == pytest.approx(
            target, abs=1e-9
        )

    def test_wang_is_shift(self):
        assert DistortionMeasure.wang(0.7).phi_normal() == pytest.approx(0.7)
        assert DistortionMeasure.wang(0.0).phi_normal() == 0.0

    def test_es_closed_form_matches_mpmath(self):
        """E[Z | Z > z_p] = density(z_p) / (1 - p), integrated at 30 digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            z_p = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(0.9) - 1)
            exact = mp.quad(lambda z: z * mp.npdf(z), [z_p, mp.inf]) / (1 - mp.mpf(0.9))
            assert abs(DistortionMeasure.es(0.9).phi_normal() - exact) <= 1e-13 * exact

    # gini and pht have no closed form: TestPhiRule checks their rule
    # against mpmath
    @pytest.mark.parametrize(
        "measure", [DistortionMeasure.wang(1.1)], ids=lambda m: m.describe()
    )
    def test_closed_forms_match_quadrature(self, measure):
        assert measure.phi_normal() == pytest.approx(
            phi_normal_by_quadrature(measure), abs=1e-8
        )

    def test_identity_distortion_is_centered(self):
        """h(s) = s gives the plain mean of Z, which is zero."""
        assert DistortionMeasure.gini(0.0).phi_normal() == pytest.approx(
            0.0, abs=1e-10
        )
        assert DistortionMeasure.pht(0.0).phi_normal() == pytest.approx(
            0.0, abs=1e-10
        )

    def test_stronger_distortion_larger_phi(self):
        betas = [0.0, 0.2, 0.4, 0.6, 0.8]
        phis = [DistortionMeasure.pht(b).phi_normal() for b in betas]
        assert all(a < b for a, b in zip(phis, phis[1:]))


def _mpmath_phi(mp, kind, beta):
    """The integral of z h'(S(z)) density(z) over the real line, in mpmath."""
    b = mp.mpf(beta)

    def h_prime(z):
        surv, cdf = mp.erfc(z / mp.sqrt(2)) / 2, mp.erfc(-z / mp.sqrt(2)) / 2
        if kind == "dualpower":
            return b * cdf ** (b - 1)
        if kind == "gini":
            return 1 + b - 2 * b * surv
        if kind == "pht":
            return (1 - b) * surv ** (-b)
        return mp.exp(b * z - b * b / 2)  # wang: the quantile of S(z) is -z

    points = [-mp.inf, -10, -3, 0, 3, 10, 40, mp.inf]
    return mp.quad(lambda z: z * h_prime(z) * mp.npdf(z), points)


#: Just below the largest pht parameter the rule accepts (0.956427).
LARGEST_PHT = 0.9564


class TestPhiRule:
    """phi_normal_by_quadrature: one trapezoid rule through h_prime."""

    @pytest.mark.parametrize(
        "kind, beta",
        [("dualpower", b) for b in (1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0)]
        + [("gini", b) for b in (0.0, 0.3, 1.0)]
        + [("pht", b) for b in (0.0, 0.25, 0.5, 0.8, 0.9, 0.95, LARGEST_PHT)]
        + [("wang", 1.1)],
    )
    def test_matches_30_digit_mpmath(self, kind, beta):
        mp = pytest.importorskip("mpmath")
        measure = DistortionMeasure(kind, beta)
        with mp.workdps(30):
            exact = _mpmath_phi(mp, kind, beta)
        value = phi_normal_by_quadrature(measure)
        # h(s) = s at dualpower:1, gini:0 and pht:0, where phi is 0
        identity = beta == (1.0 if kind == "dualpower" else 0.0)
        scale = 1.0 if identity else abs(exact)
        assert abs(value - exact) <= 1e-12 * scale

    @pytest.mark.parametrize("beta", [0.97, 0.99, 0.995])
    def test_pht_near_one_is_a_numerical_failure(self, beta):
        """The integrand decays like exp(-(1 - beta) z^2 / 2): at these
        parameters it has not died out at the ends of the rule's range."""
        with pytest.raises(NumericalFailure):
            DistortionMeasure.pht(beta).phi_normal()

    @pytest.mark.parametrize(
        "measure",
        [DistortionMeasure.var(0.75), DistortionMeasure.es(0.9)],
        ids=lambda m: m.describe(),
    )
    def test_jumping_h_prime_is_refused(self, measure):
        with pytest.raises(DomainError):
            phi_normal_by_quadrature(measure)


class TestParseMeasure:
    def test_round_trip(self):
        m = parse_measure("es:0.9")
        assert m.kind == "es"
        assert m.param == pytest.approx(0.9)
        assert parse_measure("VAR:0.75") == DistortionMeasure.var(0.75)

    @pytest.mark.parametrize("text", ["es", "es:a", "es:0.9:1", "nope:0.5"])
    def test_rejects_malformed(self, text):
        with pytest.raises(DomainError):
            parse_measure(text)
