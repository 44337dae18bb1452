"""Tests for severity models, empirical distributions, and loss summaries."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xolopt import severity
from xolopt.errors import AllZero, DegenerateVariance, DomainError, NonfiniteMoment
from xolopt.retention import StdDevLoading, effective_rho
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

    def test_moments_closed_form(self):
        g = self.model.moment_grid(1.0)
        assert g["sbar"] == pytest.approx(SBAR_1, abs=1e-10)
        assert g["mu1"] == pytest.approx(MU1_1, abs=1e-10)
        assert g["mu2"] == pytest.approx(MU2_1, abs=1e-10)
        assert g["nu1"] == pytest.approx(NU1_1, abs=1e-10)
        assert g["nu2"] == pytest.approx(NU2_1, abs=1e-10)

    @pytest.mark.parametrize("alpha,lam", [(9.0, 8.0), (2.5, 3.0), (5.0, 1.0)])
    @pytest.mark.parametrize("d", [0.3, 1.0, 4.0])
    def test_moments_match_quadrature(self, alpha, lam, d):
        """Survival-integral quadrature agrees with closed forms to 1e-8."""
        integrate = pytest.importorskip("scipy.integrate")
        model = ParetoII(alpha, lam)
        g = model.moment_grid(d)
        mu1, _ = integrate.quad(model.survival, 0.0, d)
        nu1, _ = integrate.quad(model.survival, d, np.inf)
        mu2, _ = integrate.quad(lambda x: 2.0 * x * model.survival(x), 0.0, d)
        nu2, _ = integrate.quad(lambda x: 2.0 * (x - d) * model.survival(x), d, np.inf)
        assert g["mu1"] == pytest.approx(mu1, abs=1e-8)
        assert g["nu1"] == pytest.approx(nu1, abs=1e-8)
        assert g["mu2"] == pytest.approx(mu2, abs=1e-8)
        assert g["nu2"] == pytest.approx(nu2, abs=1e-8)

    @pytest.mark.parametrize("d", [0.2, 1.0, 3.0])
    def test_moment_derivatives_by_finite_difference(self, d):
        """mu1' = survival and nu2' = -2 nu1, central difference at 1e-4."""
        h = 1e-5
        lo = self.model.moment_grid(d - h)
        hi = self.model.moment_grid(d + h)
        mid = self.model.moment_grid(d)
        assert (hi["mu1"] - lo["mu1"]) / (2 * h) == pytest.approx(mid["sbar"], abs=1e-4)
        assert (hi["nu2"] - lo["nu2"]) / (2 * h) == pytest.approx(-2.0 * mid["nu1"], abs=1e-4)
        assert (hi["mu2"] - lo["mu2"]) / (2 * h) == pytest.approx(
            2.0 * d * mid["sbar"], abs=1e-4
        )
        assert (hi["nu1"] - lo["nu1"]) / (2 * h) == pytest.approx(-mid["sbar"], abs=1e-4)

    @given(
        d=st.floats(0.05, 50.0),
        alpha=st.floats(2.2, 12.0),
        lam=st.floats(0.5, 20.0),
    )
    def test_moment_identities(self, d, alpha, lam):
        """Capped plus excess pieces recombine into the full moments."""
        model = ParetoII(alpha, lam)
        g = model.moment_grid(d)
        assert g["mu1"] + g["nu1"] == pytest.approx(model.mean(), rel=1e-10)
        full_m2 = model.second_moment()
        assert g["mu2"] + g["nu2"] + 2.0 * d * g["nu1"] == pytest.approx(full_m2, rel=1e-9)
        assert 0.0 < g["sbar"] < 1.0
        assert g["mu2"] <= d * g["mu1"] + 1e-12

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
                for value in (from_grid, model.moment_grid(float(d))["var"]):
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
                alone = model.moment_grid(float(d))
                for key in ("gap", "mu1", "mu2"):
                    for value in (grid[key][i], alone[key]):
                        assert abs(value - exact[key]) <= 1e-12 * exact[key], (key, d, value)
                hm = model.higher_truncated_moments(float(d))
                for key in ("kappa3", "kappa4"):
                    bound = 1e-9 * max(1, abs(exact[key]))
                    for value in (higher[key][i], hm[key]):
                        assert abs(value - exact[key]) <= bound, (key, d, value)

    @given(d=st.floats(1e-8, 50.0), alpha=st.floats(0.5, 60.0))
    def test_capped_variance_same_alone_or_in_a_grid(self, d, alpha):
        model = ParetoII(alpha, 2.0)
        ds = np.array([1e-9, d, 0.5 * d, 100.0])
        grid = model.moment_grid(ds)
        alone = model.moment_grid(d)
        for key in ("var", "gap", "mu2"):
            assert grid[key][1] == alone[key]
        assert 0.0 < grid["var"][1] <= 0.25 * d * d  # a variable on [0, d]
        higher, hm = model.higher_truncated_moments(ds), model.higher_truncated_moments(d)
        for key in ("kappa3", "kappa4"):
            assert higher[key][1] == hm[key]

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


class TestHigherMoments:
    def test_skewness_approaches_untruncated_value(self):
        """At a huge cap the capped skewness equals the full skewness."""
        hm = ParetoII(9.0, 8.0).higher_truncated_moments(1e6)
        assert hm["kappa3"] == pytest.approx(2.93960, abs=1e-3)

    def test_kappa_positive_for_right_skewed(self):
        hm = ParetoII(9.0, 8.0).higher_truncated_moments(2.0)
        assert hm["kappa3"] > 0.0
        assert np.isfinite(hm["kappa4"])

    def test_empirical_grid_is_read_in_chunks_with_the_bits_of_float_reads(self):
        """The (retentions x losses) matrices are built a chunk of retentions
        at a time: the knots of 5000 claims, but the first, where the capped
        loss has no variance, peak far below the 200 MB of one whole matrix,
        and each entry (every tenth is checked) has the bits of its
        retention read alone, in a grid of any shape."""
        emp = EmpiricalLosses(ParetoII(9.0, 8.0).sample(5000, 3))
        knots = emp.knots()["knots"][1:]
        tracemalloc.start()
        try:
            hm = emp.higher_truncated_moments(knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for i in range(0, knots.size, 10):
            d = knots[i]
            alone = emp.higher_truncated_moments(float(d))
            assert (alone["kappa3"].hex(), alone["kappa4"].hex()) == (
                float(hm["kappa3"][i]).hex(), float(hm["kappa4"][i]).hex()), d
        square = emp.higher_truncated_moments(knots[:12].reshape(3, 4))
        assert square["kappa3"].tobytes() == hm["kappa3"][:12].tobytes()
        assert square["kappa4"].tobytes() == hm["kappa4"][:12].tobytes()


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
            assert hm["kappa3"] == pytest.approx((dev**3).mean() / var**1.5, rel=1e-9)
            assert hm["kappa4"] == pytest.approx((dev**4).mean() / var**2 - 3.0, rel=1e-9)

    def test_a_float_read_agrees_with_the_grid(self):
        x = np.array([0.2, 0.9, 1.4, 2.2, 7.0])
        emp = EmpiricalLosses(x)
        alone = emp.moment_grid(1.0)
        g = emp.moment_grid(np.array([1.0]))
        assert alone["mu1"] == pytest.approx(g["mu1"][0], rel=1e-14)
        assert alone["nu2"] == pytest.approx(g["nu2"][0], rel=1e-14)

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
        assert model.moment_grid(d) == {
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
                inside = model.moment_grid(knots[j])
                assert {key: bits(v) for key, v in inside.items()} == {
                    key: bits(t[key][j]) for key in inside}
            positive = np.concatenate([knots, random, [1e300]])
            higher = model.higher_truncated_moments(positive)
            for i, d in enumerate(positive):
                hm = model.higher_truncated_moments(float(d))
                assert isinstance(hm["kappa3"], float) and isinstance(hm["kappa4"], float)
                assert bits([hm["kappa3"], hm["kappa4"]]).tolist() == bits(
                    [higher["kappa3"][i], higher["kappa4"][i]]).tolist(), d
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
        for key, column in emp.moment_grid(claims).items():
            assert np.array_equal(t[key], column)
        assert np.array_equal(t["sbar_left"], [np.mean(x >= c) for c in claims])
        # inside a cell the moments are those of moment_grid
        d = 0.5 * (claims[10] + claims[11])
        inside = emp.moment_grid(d)
        assert inside == {key: column[0] for key, column in emp.moment_grid(np.array([d])).items()}
        # below the first knot lie the zeros or no loss
        below = t["below"][0]
        assert emp.moment_grid(below) == {
            key: column[0] for key, column in emp.moment_grid(np.array([below])).items()}
        assert emp.knots() is t and not claims.flags.writeable

    @pytest.mark.parametrize("kind", ["lomax", "zeros", "ties"])
    def test_empirical_float_reads_equal_grid_entries_bit_for_bit(self, kind):
        """A float is read with the count of the losses at or below it, in
        the arithmetic its entry gets in an array: at every knot and every
        point below one, inside the cells, below the first knot (with the
        zeros or with no loss) and above the 0.999 quantile."""
        x = ParetoII(9.0, 8.0).sample(2000, 5)
        x = {"lomax": x, "zeros": np.concatenate([np.zeros(150), x]),
             "ties": np.round(x, 1)}[kind]
        emp = EmpiricalLosses(x)
        t = emp.knots()
        knots = t["knots"]
        grid = np.concatenate([
            knots, t["below"], 0.5 * (knots[:-1] + knots[1:]),
            [0.0, 0.5 * knots[0], 1e-300],
            np.linspace(knots[-1], 2.0 * x.max(), 50), [x.max(), np.nextafter(x.max(), 0.0)]])

        def bits(v):
            return np.asarray(v, dtype=float).view(np.uint64)

        columns = emp.moment_grid(grid)
        for i, d in enumerate(grid):
            alone = emp.moment_grid(float(d))
            assert all(isinstance(v, float) for v in alone.values())
            assert {key: bits(v) for key, v in alone.items()} == {
                key: bits(column[i]) for key, column in columns.items()}, d
        for j in range(knots.size):
            assert {key: bits(v) for key, v in emp.moment_grid(knots[j]).items()} == {
                key: bits(t[key][j]) for key in columns}

    @pytest.mark.parametrize("model", [ParetoII(9.0, 8.0), EmpiricalLosses([0.0, 0.5, 2.0, 3.0])],
                             ids=["lomax", "empirical"])
    @pytest.mark.parametrize("d,bad", [(-1.0, "-1.0"), (math.nan, "nan"),
                                       (np.array([0.5, -2.0, 1.0]), "-2.0"),
                                       (np.array([1.0, math.nan]), "nan")],
                             ids=["negative", "nan", "negative-entry", "nan-entry"])
    def test_a_negative_or_nan_retention_is_a_domain_error(self, model, d, bad):
        for read in (model.moment_grid, partial(effective_rho, model, StdDevLoading(0.5), 10)):
            with pytest.raises(DomainError, match=rf"^retention must be nonnegative, got {bad}$"):
                read(d)

    def test_empirical_knots_need_a_positive_claim(self):
        with pytest.raises(AllZero):
            EmpiricalLosses(np.zeros(50)).knots()


def _silverman_kde(x, at):
    """The reflected Gaussian density estimate at Silverman's bandwidth,
    written out over every claim and its mirror image."""
    x, at = np.asarray(x, dtype=float), np.asarray(at, dtype=float)[:, None]
    q1, q3 = np.quantile(x, [0.25, 0.75], method="inverted_cdf")
    spread = min(np.std(x), (q3 - q1) / 1.34) if q3 > q1 else np.std(x)
    h = 0.9 * spread * x.size ** -0.2
    kernel = np.exp(-0.5 * ((at - x) / h) ** 2) + np.exp(-0.5 * ((at + x) / h) ** 2)
    return kernel.sum(axis=1) / (x.size * h * math.sqrt(2 * math.pi))


class TestKdeDensity:
    @pytest.mark.parametrize("x", [[1.0, 2.0, 2.5, 4.0, 7.0],
                                   ParetoII(9.0, 8.0).sample(500, 6)], ids=["five", "lomax"])
    def test_matches_the_reflected_sum_at_silvermans_bandwidth(self, x):
        at = np.array([0.0, 0.05, 0.3, 1.5, 3.0, 12.0])
        # each term left out, more than 9h from the point, is below exp(-40.5)
        # in kernel units: at 12 the Lomax sum is 1e-58, and the estimate 0
        np.testing.assert_allclose(kde_density(x, at), _silverman_kde(x, at), rtol=1e-12,
                                   atol=1e-16)
        assert kde_density(EmpiricalLosses(x), 1.5) == kde_density(x, at)[3]

    def test_integrates_to_one_on_the_half_line(self):
        """Reflection keeps the mass that a kernel would put below 0."""
        x = np.random.default_rng(5).exponential(1.0, size=300)
        grid = np.linspace(0.0, 15.0, 4000)
        assert np.trapezoid(kde_density(x, grid), grid) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("c", [1e-3, 10.0, 1000.0])
    def test_density_is_free_of_the_claims_units(self, c):
        x = ParetoII(9.0, 8.0).sample(2000, 3)
        at = np.array([0.0, 0.1, 0.8, 2.0])
        np.testing.assert_allclose(c * kde_density(c * x, c * at), kde_density(x, at),
                                   rtol=1e-12)

    def test_quartiles_without_spread_fall_back_to_the_sd(self):
        x = np.concatenate([np.full(90, 2.0), [0.5, 1.0, 3.0, 6.0, 9.0]])
        assert np.quantile(x, 0.25, method="inverted_cdf") == np.quantile(
            x, 0.75, method="inverted_cdf")
        h = 0.9 * np.std(x) * x.size ** -0.2
        at = np.array([0.5, 2.0, 4.0])
        expected = sum(np.exp(-0.5 * ((at - s * v) / h) ** 2) for v in x for s in (1, -1))
        np.testing.assert_allclose(kde_density(x, at),
                                   expected / (x.size * h * math.sqrt(2 * math.pi)), rtol=1e-12)

    @pytest.mark.parametrize("at,bad", [(-0.5, "-0.5"), (math.nan, "nan"),
                                        (np.array([0.5, -2.0, math.nan]), "-2.0")],
                             ids=["negative", "nan", "negative-entry"])
    def test_a_negative_or_nan_point_is_a_domain_error(self, at, bad):
        emp = EmpiricalLosses(ParetoII(9.0, 8.0).sample(2000, 1))
        with pytest.raises(DomainError, match=rf"^density point must be nonnegative, got {bad}$"):
            kde_density(emp, at)

    @pytest.mark.parametrize("x", [np.full(50, 0.1), np.zeros(40)], ids=["equal", "zero"])
    def test_sample_without_spread_has_no_bandwidth(self, x):
        with pytest.raises(DegenerateVariance):
            kde_density(x, [0.1])

    def test_points_are_read_alone_and_bound_memory(self):
        """Each point's density is its own sum, the same bits alone as in an
        array, and the traced peak of 10 000 losses x 200 points stays far
        below the 16 MB of the whole kernel matrix."""
        x = np.random.default_rng(5).exponential(1.0, size=10_000)
        grid = np.linspace(0.0, 5.0, 200)
        tracemalloc.start()
        try:
            dens = kde_density(x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        np.testing.assert_array_equal([kde_density(x, at) for at in grid[::10]], dens[::10])


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
        for losses in ([1.0, math.nan, 2.0], [1.0, math.inf]):
            with pytest.raises(DomainError, match="^losses must be finite$"):
                summary_and_lorenz(losses)
        with pytest.raises(AllZero):
            summary_and_lorenz([0.0, 0.0])
