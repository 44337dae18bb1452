"""Tests for severity models, empirical distributions, and loss summaries."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xolopt import severity
from xolopt.errors import AllZero, DegenerateVariance, DomainError, NonfiniteMoment
from xolopt.severity import (
    EmpiricalLosses,
    ParetoII,
    kde_density,
    summary_and_lorenz,
)

# Closed-form values for ParetoII(9, 8) at d = 1, frozen from 30-digit
# arithmetic on the survival-integral identities.
SBAR_1 = 0.346439416115
MU1_1 = 0.610255656871
MU2_1 = 0.504025859982
NU1_1 = 0.389744343129
NU2_1 = 1.00219973947


class TestParetoII:
    """Closed forms, sampling, and validation for the Pareto severity."""

    def setup_method(self):
        self.model = ParetoII(9.0, 8.0)

    def test_survival_basics(self):
        assert self.model.survival(0.0) == pytest.approx(1.0)
        assert self.model.survival(8.0) == pytest.approx(2.0 ** -9.0)
        assert self.model.survival(1e9) < 1e-60

    def test_mean_and_second_moment(self):
        assert self.model.mean() == pytest.approx(1.0, abs=1e-14)
        assert self.model.second_moment() == pytest.approx(16.0 / 7.0, abs=1e-13)

    def test_truncated_moments_closed_form(self):
        tm = self.model.truncated_moments(1.0)
        assert tm.sbar == pytest.approx(SBAR_1, abs=1e-10)
        assert tm.mu1 == pytest.approx(MU1_1, abs=1e-10)
        assert tm.mu2 == pytest.approx(MU2_1, abs=1e-10)
        assert tm.nu1 == pytest.approx(NU1_1, abs=1e-10)
        assert tm.nu2 == pytest.approx(NU2_1, abs=1e-10)

    @pytest.mark.parametrize("alpha,lam", [(9.0, 8.0), (2.5, 3.0), (5.0, 1.0)])
    @pytest.mark.parametrize("d", [0.3, 1.0, 4.0])
    def test_moments_match_quadrature(self, alpha, lam, d):
        """Survival-integral quadrature agrees with closed forms to 1e-8."""
        integrate = pytest.importorskip("scipy.integrate")
        model = ParetoII(alpha, lam)
        tm = model.truncated_moments(d)
        mu1, _ = integrate.quad(model.survival, 0.0, d)
        nu1, _ = integrate.quad(model.survival, d, np.inf)
        mu2, _ = integrate.quad(lambda x: 2.0 * x * model.survival(x), 0.0, d)
        nu2, _ = integrate.quad(lambda x: 2.0 * (x - d) * model.survival(x), d, np.inf)
        assert tm.mu1 == pytest.approx(mu1, abs=1e-8)
        assert tm.nu1 == pytest.approx(nu1, abs=1e-8)
        assert tm.mu2 == pytest.approx(mu2, abs=1e-8)
        assert tm.nu2 == pytest.approx(nu2, abs=1e-8)

    @pytest.mark.parametrize("d", [0.2, 1.0, 3.0])
    def test_moment_derivatives_by_finite_difference(self, d):
        """mu1' = survival and nu2' = -2 nu1, central difference at 1e-4."""
        h = 1e-5
        lo = self.model.truncated_moments(d - h)
        hi = self.model.truncated_moments(d + h)
        mid = self.model.truncated_moments(d)
        assert (hi.mu1 - lo.mu1) / (2 * h) == pytest.approx(mid.sbar, abs=1e-4)
        assert (hi.nu2 - lo.nu2) / (2 * h) == pytest.approx(-2.0 * mid.nu1, abs=1e-4)
        assert (hi.mu2 - lo.mu2) / (2 * h) == pytest.approx(
            2.0 * d * mid.sbar, abs=1e-4
        )
        assert (hi.nu1 - lo.nu1) / (2 * h) == pytest.approx(-mid.sbar, abs=1e-4)

    @given(
        d=st.floats(0.05, 50.0),
        alpha=st.floats(2.2, 12.0),
        lam=st.floats(0.5, 20.0),
    )
    def test_moment_identities(self, d, alpha, lam):
        """Capped plus excess pieces recombine into the full moments."""
        model = ParetoII(alpha, lam)
        tm = model.truncated_moments(d)
        assert tm.mu1 + tm.nu1 == pytest.approx(model.mean(), rel=1e-10)
        full_m2 = model.second_moment()
        assert tm.mu2 + tm.nu2 + 2.0 * d * tm.nu1 == pytest.approx(full_m2, rel=1e-9)
        assert 0.0 < tm.sbar < 1.0
        assert tm.mu2 <= d * tm.mu1 + 1e-12

    @pytest.mark.parametrize(
        "alpha,lam", [(9.0, 8.0), (2.5, 3.0), (50.0, 2.0), (0.7, 1.0)]
    )
    def test_capped_variance_against_40_digit_quadrature(self, alpha, lam):
        """Var(X wedge d) keeps full relative accuracy down to tiny caps,
        where mu2 - mu1^2 cancels to O(d^3), and on both sides of the cap
        where the series hands over to the closed form."""
        mp = pytest.importorskip("mpmath")
        switch = lam / (2.0 * max(alpha, 1.0))
        ds = np.array([1e-4, 3e-3, 0.02, 1.0, 20.0, 0.4 * switch,
                       switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)])
        model = ParetoII(alpha, lam)
        grid = model.moment_grid(ds)["var"]
        with mp.workdps(40):
            a, scale = mp.mpf(alpha), mp.mpf(lam)

            def surv(x):
                return (1 + x / scale) ** (-a)

            for d, from_grid in zip(ds, grid):
                d_mp = mp.mpf(float(d))
                mu1 = mp.quad(surv, [0, d_mp])
                mu2 = 2 * mp.quad(lambda x: x * surv(x), [0, d_mp])
                exact = mu2 - mu1 ** 2
                for value in (from_grid, model.truncated_moments(float(d)).var):
                    assert abs(value - exact) / exact <= 1e-12, (d, value)

    @pytest.mark.parametrize(
        "alpha,lam", [(9.0, 8.0), (2.5, 3.0), (50.0, 2.0), (0.7, 1.0), (0.5, 2.0)]
    )
    def test_capped_moments_against_high_precision(self, alpha, lam):
        """gap, mu1 and mu2 to 1e-12 relative, and the capped skewness and
        excess kurtosis to 1e-9 max(1, |kappa|), from d/scale = 1e-8 to 20
        and on both sides of every point where the series hands over to the
        closed form: u = t max(a, 1) = 1/2 in `moment_grid` and
        t max(a, 4) = 2 in `higher_truncated_moments`.

        The reference is the closed form over w = 1 + x/scale, summed in
        130-digit arithmetic, where its cancellation (about 60 digits at
        d/scale = 1e-8) costs nothing."""
        mp = pytest.importorskip("mpmath")
        switches = (0.5 / max(alpha, 1.0), 2.0 / max(alpha, 4.0))
        ts = [1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 5.0, 20.0]
        ts += [s * (1.0 + side) for s in switches for side in (-1e-9, 1e-9)]
        ds = lam * np.array(ts)
        model = ParetoII(alpha, lam)
        grid = model.moment_grid(ds)
        higher = model.higher_truncated_moments(ds)
        with mp.workdps(130):
            a, scale = mp.mpf(alpha), mp.mpf(lam)
            for i, d in enumerate(ds):
                d_mp = mp.mpf(float(d))
                c = 1 + d_mp / scale

                def integral(m):  # of w^(m-1-a) over [1, c]
                    return mp.log(c) if m == a else (c ** (m - a) - 1) / (m - a)

                m1, m2, m3, m4 = (
                    k * scale ** k * sum((-1) ** (k - m) * mp.binomial(k - 1, m - 1)
                                         * integral(m) for m in range(1, k + 1))
                    for k in range(1, 5)
                )
                var = m2 - m1 ** 2
                exact = {
                    "gap": d_mp - m1, "mu1": m1, "mu2": m2,
                    "kappa3": (m3 - 3 * m1 * m2 + 2 * m1 ** 3) / var ** 1.5,
                    "kappa4": (m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4) / var ** 2 - 3,
                }
                tm = model.truncated_moments(float(d))
                for key in ("gap", "mu1", "mu2"):
                    for value in (grid[key][i], getattr(tm, key)):
                        assert abs(value - exact[key]) <= 1e-12 * exact[key], (key, d, value)
                hm = model.higher_truncated_moments(float(d))
                for key in ("kappa3", "kappa4"):
                    bound = 1e-9 * max(1, abs(exact[key]))
                    for value in (getattr(higher, key)[i], getattr(hm, key)):
                        assert abs(value - exact[key]) <= bound, (key, d, value)

    @given(d=st.floats(1e-8, 50.0), alpha=st.floats(0.5, 60.0))
    def test_capped_variance_same_alone_or_in_a_grid(self, d, alpha):
        model = ParetoII(alpha, 2.0)
        ds = np.array([1e-9, d, 0.5 * d, 100.0])
        grid = model.moment_grid(ds)
        tm = model.truncated_moments(d)
        for key in ("var", "gap", "mu2"):
            assert grid[key][1] == getattr(tm, key)
        assert 0.0 < grid["var"][1] <= 0.25 * d * d  # a variable on [0, d]
        higher, hm = model.higher_truncated_moments(ds), model.higher_truncated_moments(d)
        for key in ("kappa3", "kappa4"):
            assert getattr(higher, key)[1] == getattr(hm, key)

    def test_infinite_mean_rejected(self):
        with pytest.raises((DomainError, NonfiniteMoment)):
            ParetoII(0.9, 8.0).mean()

    def test_sampling_determinism_and_range(self):
        a = self.model.sample(500, 42)
        b = self.model.sample(500, 42)
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 0.0)
        assert self.model.sample(500, 43)[0] != a[0]

    def test_sample_matches_survival(self):
        x = self.model.sample(200000, 12)
        for q in (0.5, 1.0, 2.0):
            frac = float(np.mean(x > q))
            assert frac == pytest.approx(self.model.survival(q), abs=0.005)

    def test_density_integrates_to_one(self):
        integrate = pytest.importorskip("scipy.integrate")
        val, _ = integrate.quad(self.model.density, 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestHigherTruncatedMoments:
    def test_skewness_approaches_untruncated_value(self):
        """At a huge cap the capped skewness equals the full skewness."""
        hm = ParetoII(9.0, 8.0).higher_truncated_moments(1e6)
        assert hm.kappa3 == pytest.approx(2.93960, abs=1e-3)

    def test_kappa_positive_for_right_skewed(self):
        hm = ParetoII(9.0, 8.0).higher_truncated_moments(2.0)
        assert hm.kappa3 > 0.0
        assert np.isfinite(hm.kappa4)


class TestEmpiricalLosses:
    def test_survival_is_strict_count(self):
        emp = EmpiricalLosses([1.0, 2.0, 2.0, 5.0])
        assert emp.survival(0.5) == pytest.approx(1.0)
        assert emp.survival(2.0) == pytest.approx(0.25)
        assert emp.survival(5.0) == 0.0

    def test_quantile_order_statistic(self):
        emp = EmpiricalLosses([3.0, 1.0, 2.0, 4.0])
        # ceil(n p) rule: p = 0.5 picks the 2nd order statistic
        assert emp.quantile(0.5) == pytest.approx(2.0)
        assert emp.quantile(0.75) == pytest.approx(3.0)
        assert emp.quantile(0.76) == pytest.approx(4.0)

    def test_moment_grid_matches_direct_sums(self):
        rng = np.random.default_rng(3)
        x = rng.pareto(4.0, size=400) * 2.0
        emp = EmpiricalLosses(x)
        for d in (0.1, 0.7, 3.0):
            g = emp.moment_grid(np.array([d]))
            capped = np.minimum(x, d)
            assert g["mu1"][0] == pytest.approx(capped.mean(), rel=1e-12)
            assert g["mu2"][0] == pytest.approx((capped**2).mean(), rel=1e-12)
            assert g["nu1"][0] == pytest.approx(
                np.maximum(x - d, 0.0).mean(), rel=1e-12
            )
            assert g["nu2"][0] == pytest.approx(
                (np.maximum(x - d, 0.0) ** 2).mean(), rel=1e-12
            )
            assert g["sbar"][0] == pytest.approx(np.mean(x > d), rel=1e-12)
            # the estimators rely on this exact arithmetic
            assert g["var"][0] == g["mu2"][0] - g["mu1"][0] ** 2

    def test_higher_moments_match_central_moments(self):
        rng = np.random.default_rng(5)
        x = rng.pareto(4.0, size=400) * 2.0
        emp = EmpiricalLosses(x)
        for d in (0.1, 0.7, 3.0):
            hm = emp.higher_truncated_moments(d)
            capped = np.minimum(x, d)
            dev = capped - capped.mean()
            var = capped.var()
            assert hm.d == d
            assert hm.kappa3 == pytest.approx((dev**3).mean() / var**1.5, rel=1e-9)
            assert hm.kappa4 == pytest.approx((dev**4).mean() / var**2 - 3.0, rel=1e-9)

    def test_truncated_moments_agree_with_grid(self):
        x = np.array([0.2, 0.9, 1.4, 2.2, 7.0])
        emp = EmpiricalLosses(x)
        tm = emp.truncated_moments(1.0)
        g = emp.moment_grid(np.array([1.0]))
        assert tm.mu1 == pytest.approx(g["mu1"][0], rel=1e-14)
        assert tm.nu2 == pytest.approx(g["nu2"][0], rel=1e-14)

    def test_bootstrap_resampling_determinism(self):
        emp = EmpiricalLosses(np.arange(1.0, 51.0))
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        np.testing.assert_array_equal(
            emp.sample_rng(30, rng1), emp.sample_rng(30, rng2)
        )

    def test_rejects_negative_losses(self):
        with pytest.raises(DomainError):
            EmpiricalLosses([1.0, -0.5, 2.0])


class TestKnots:
    """The knot tables the spread-rule solver reads."""

    def test_lomax_knots_are_smooth(self):
        model = ParetoII(9.0, 8.0)
        t = model.knots()
        knots = t["knots"]
        assert knots.size == 1000
        assert knots[0] == pytest.approx(model.quantile(1e-4), rel=1e-12)
        assert knots[-1] == pytest.approx(model.quantile(1.0 - 1e-6), rel=1e-12)
        np.testing.assert_allclose(np.diff(np.log(knots)), math.log(knots[-1] / knots[0]) / 999)
        assert np.array_equal(t["below"], knots)
        assert np.array_equal(t["sbar_left"], t["sbar"])
        for key, column in model.moment_grid(knots).items():
            assert np.array_equal(t[key], column)
        d = 0.5 * (knots[500] + knots[501])
        assert model.moments_in_cell(d, 500) == {
            key: column[0] for key, column in model.moment_grid(np.array([d])).items()}
        assert model.knots() is t and not knots.flags.writeable

    @pytest.mark.parametrize("shape", [1.5, 2.0, 2.5, 3.0, 4.999, 5.0, 9.0, 50.0])
    def test_lomax_float_reads_equal_grid_entries_bit_for_bit(self, shape):
        """A float goes through the kernel alone with the arithmetic its
        entry gets in an array: the binomial sum below shape 5, the tail sum
        from 5 up (at 2 the integral log(1 + t) stands in for m = a), and
        the small-cap series, infinite and NaN values included."""
        model = ParetoII(shape, 8.0)
        t = model.knots()
        knots = t["knots"]
        rng = np.random.default_rng(int(shape * 1000))
        random = np.exp(rng.uniform(math.log(knots[0] / 100), math.log(knots[-1] * 100), 300))
        extremes = np.array([1e-300, 1e300])
        grid = np.concatenate([knots, random, extremes])

        def bits(x):
            return np.asarray(x, dtype=float).view(np.uint64)

        # at 1e300 the moments of order above the shape overflow
        with np.errstate(over="ignore", invalid="ignore"):
            columns = model.moment_grid(grid)
            for i, d in enumerate(grid):
                alone = model.moment_grid(float(d))
                assert all(isinstance(v, float) for v in alone.values())
                for key, column in columns.items():
                    assert bits(alone[key]) == bits(column[i]), (key, d)
            for j in range(knots.size):
                inside = model.moments_in_cell(knots[j], j)
                assert {key: bits(v) for key, v in inside.items()} == {
                    key: bits(t[key][j]) for key in inside}
            positive = np.concatenate([knots, random, [1e300]])
            higher = model.higher_truncated_moments(positive)
            for i, d in enumerate(positive):
                hm = model.higher_truncated_moments(float(d))
                assert isinstance(hm.kappa3, float) and isinstance(hm.kappa4, float)
                assert bits([hm.kappa3, hm.kappa4]).tolist() == bits(
                    [higher.kappa3[i], higher.kappa4[i]]).tolist(), d
        # the capped variance underflows to 0 at 1e-300, alone or in a grid
        for d in (1e-300, np.array([1.0, 1e-300])):
            with pytest.raises(DegenerateVariance):
                model.higher_truncated_moments(d)

    def test_degenerate_grid_names_its_first_point_and_ends(self):
        """min(X, d) is constant for d at or below the smallest loss 1.0;
        the message names the first such retention of the grid and the
        grid's two ends, not the whole grid."""
        emp = EmpiricalLosses([1.0, 1.0, 2.0, 5.0])
        with pytest.raises(DegenerateVariance) as err:
            emp.higher_truncated_moments(np.array([1.5, 0.5, 3.0, 1.0, 0.8]))
        assert str(err.value) == ("capped loss at d=0.5 has zero variance (the first such "
                                  "point of 5 retentions from 1.5 to 0.8)")
        with pytest.raises(DegenerateVariance, match=r"^capped loss at d=0.5 has zero variance$"):
            emp.higher_truncated_moments(0.5)

    @pytest.mark.parametrize("zeros", [0, 40])
    def test_empirical_knots_end_at_the_0999_quantile(self, zeros):
        x = np.concatenate([np.zeros(zeros), np.round(ParetoII(9.0, 8.0).sample(3000, 4), 2)])
        emp = EmpiricalLosses(x)
        t = emp.knots()
        claims = t["knots"]
        assert np.array_equal(claims, np.unique(x[(x > 0.0) & (x <= emp.quantile(0.999))]))
        assert claims[-1] == emp.quantile(0.999) < x.max()
        assert np.array_equal(t["below"], np.nextafter(claims, 0.0))
        assert np.array_equal(t["k"], np.searchsorted(emp.losses, claims, side="right"))
        for key, column in emp.moment_grid(claims).items():
            assert np.array_equal(t[key], column)
        assert np.array_equal(t["sbar_left"], [np.mean(x >= c) for c in claims])
        # inside a cell the moments are those of moment_grid
        d = 0.5 * (claims[10] + claims[11])
        inside = emp.moments_in_cell(d, 10)
        assert inside == {key: column[0] for key, column in emp.moment_grid(np.array([d])).items()}
        assert emp.knots() is t and not claims.flags.writeable

    def test_empirical_knots_need_a_positive_claim(self):
        with pytest.raises(AllZero):
            EmpiricalLosses(np.zeros(50)).knots()


class TestKdeDensity:
    def test_matches_hand_gaussian_sum(self):
        x = np.array([1.0, 2.0])
        h = 0.5
        at = 1.5
        expected = np.mean(
            np.exp(-0.5 * ((at - x) / h) ** 2) / (h * math.sqrt(2 * math.pi))
        )
        got = kde_density(x, np.array([at]), bandwidth=h)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(1.0, size=300)
        grid = np.linspace(-3.0, 15.0, 4000)
        dens = kde_density(x, grid, bandwidth=0.2)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_blocks_of_points_move_no_bit_and_bound_memory(self, monkeypatch):
        """Each point's kernel terms are summed alone, so any block size gives
        the same bits; the default blocks keep the traced peak of 10 000
        losses x 200 points far below the 16 MB of the whole matrix."""
        x = np.random.default_rng(5).exponential(1.0, size=10_000)
        grid = np.linspace(0.0, 5.0, 200)
        tracemalloc.start()
        try:
            dens = kde_density(x, grid, bandwidth=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        for terms in (1, 7 * x.size, 1 << 30):
            monkeypatch.setattr(severity, "_KDE_TERMS", terms)
            np.testing.assert_array_equal(kde_density(x, grid, bandwidth=0.1), dens)

    @pytest.mark.parametrize("bandwidth", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_a_bandwidth_that_is_not_positive_and_finite(self, bandwidth):
        with pytest.raises(DomainError):
            kde_density([1.0, 2.0], [1.5], bandwidth)


class TestSummaryAndLorenz:
    def test_explicit_small_sample(self):
        out = summary_and_lorenz([1.0, 1.0, 2.0])
        assert out.count == 3
        assert out.mean == pytest.approx(4.0 / 3.0)
        assert out.median == pytest.approx(1.0)
        assert out.max == pytest.approx(2.0)

    def test_lorenz_endpoints_and_shape(self):
        rng = np.random.default_rng(8)
        out = summary_and_lorenz(rng.pareto(3.0, size=250) + 0.01)
        lor = out.lorenz
        assert tuple(lor[0]) == (0.0, 0.0)
        assert tuple(lor[-1]) == pytest.approx((1.0, 1.0))
        shares = np.diff(lor[:, 1])
        assert np.all(shares >= -1e-15)
        # convexity: ordered claims make increments nondecreasing
        assert np.all(np.diff(shares) >= -1e-12)
        assert np.all(lor[:, 1] <= lor[:, 0] + 1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            summary_and_lorenz([])
        with pytest.raises(AllZero):
            summary_and_lorenz([0.0, 0.0])
