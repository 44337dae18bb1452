"""Tests for nonparametric retention estimation and asymptotic intervals."""

import math

import numpy as np
import pytest

from xolopt.distortion import DistortionMeasure
from xolopt.errors import AllZero, AtomConditionViolated, DomainError
from xolopt.inference import (
    estimate_decreasing,
    estimate_sd,
    estimate_sharpe,
    retention_curve,
)
from xolopt.severity import EmpiricalLosses, ParetoII

VAR75 = DistortionMeasure.var(0.75)

# Stationary points for ParetoII(9, 8) at p = 0.75 (30-digit root finding)
D_DECREASING = 0.54724741814
D_STDDEV = 0.818944971281
D_SHARPE = 0.321769977934

# Delta-method standard errors at the population law, scaled to sqrt(n):
# se(n) = SE_SCALE / sqrt(n).  The decreasing value is exact; the other two
# are the large-n limits of the plug-in formulas.
SE_SCALE = {"decreasing": 0.876148, "stddev": 2.634, "sharpe": 1.044}


@pytest.fixture(scope="module")
def big_sample():
    return ParetoII(9.0, 8.0).sample(20000, 101)


def _quadratic_se(x, delta, phi, d):
    """Delta-method standard error of the root of the decreasing rule's
    stationarity quadratic (d - mu1)^2 - (delta/phi)^2 (mu2 - mu1^2),
    linearised in its two capped moments mu1 and mu2."""
    q = (delta / phi) ** 2
    capped = np.minimum(x, d)
    mu1 = capped.mean()
    sbar = np.mean(x > d)
    c0 = 2.0 * (d - mu1) * (1.0 - sbar) - q * (2.0 * d * sbar - 2.0 * mu1 * sbar)
    c = np.array([2.0 * (d - mu1) - 2.0 * q * mu1, q])
    sigma = np.cov(np.column_stack([capped, capped * capped]), rowvar=False, bias=True)
    return math.sqrt(c @ sigma @ c) / (abs(c0) * math.sqrt(x.size))


class TestEstimateDecreasing:
    def test_consistency_and_se(self, big_sample):
        n = big_sample.size
        se_true = SE_SCALE["decreasing"] / math.sqrt(n)
        result = estimate_decreasing(big_sample, 0.5, VAR75)
        assert result.d_hat == pytest.approx(D_DECREASING, abs=4 * se_true)
        assert result.std_error == pytest.approx(se_true, rel=0.25)
        lo, hi = result.ci
        assert lo < result.d_hat < hi
        assert result.n == n
        assert set(result.coefficients) == {"c0", "c1", "c2", "c3", "c4", "c5"}

    def test_wald_interval_width_tracks_level(self, big_sample):
        narrow = estimate_decreasing(big_sample, 0.5, VAR75, level=0.80)
        wide = estimate_decreasing(big_sample, 0.5, VAR75, level=0.99)
        assert wide.ci[1] - wide.ci[0] > narrow.ci[1] - narrow.ci[0]
        assert narrow.d_hat == wide.d_hat

    def test_duplicating_the_sample_scales_se_by_root_two(self, big_sample):
        x = big_sample[:5000]
        once = estimate_decreasing(x, 0.5, VAR75)
        twice = estimate_decreasing(np.concatenate([x, x]), 0.5, VAR75)
        assert twice.d_hat == pytest.approx(once.d_hat, rel=1e-12)
        assert twice.std_error == pytest.approx(
            once.std_error / math.sqrt(2.0), rel=1e-9
        )

    def test_scale_equivariance(self, big_sample):
        x = big_sample[:5000]
        base = estimate_decreasing(x, 0.5, VAR75)
        scaled = estimate_decreasing(2.0 * x, 0.5, VAR75)
        assert scaled.d_hat == pytest.approx(2.0 * base.d_hat, rel=1e-9)
        assert scaled.std_error == pytest.approx(2.0 * base.std_error, rel=1e-6)

    def test_bootstrap_agrees_with_plug_in_se(self, big_sample):
        """Resampling spread is an independent check on the sandwich SE."""
        x = big_sample[:2000]
        plug_in = estimate_decreasing(x, 0.5, VAR75)
        rng = np.random.default_rng(77)
        emp = EmpiricalLosses(x)
        reps = []
        for _ in range(200):
            reps.append(
                estimate_decreasing(emp.sample_rng(x.size, rng), 0.5, VAR75).d_hat
            )
        boot_se = float(np.std(reps, ddof=1))
        assert plug_in.std_error == pytest.approx(boot_se, rel=0.25)

    @pytest.mark.parametrize("size, delta, p", [(500, 0.5, 0.75), (2000, 0.3, 0.9),
                                                (20000, 0.5, 0.75)])
    def test_se_matches_the_stationarity_quadratic(self, big_sample, size, delta, p):
        """The shared linearisation gives the decreasing rule the standard
        error of its own stationarity quadratic."""
        x = big_sample[:size]
        measure = DistortionMeasure.var(p)
        result = estimate_decreasing(x, delta, measure)
        assert result.std_error == pytest.approx(
            _quadratic_se(x, delta, measure.phi_normal(), result.d_hat), rel=1e-9)

    def test_small_sample_rejected(self):
        with pytest.raises(DomainError):
            estimate_decreasing(np.linspace(1.0, 2.0, 29), 0.5, VAR75)

    def test_zero_inflated_sample_rejected(self):
        x = np.concatenate([np.zeros(400), np.linspace(0.1, 5.0, 600)])
        with pytest.raises(AtomConditionViolated):
            estimate_decreasing(x, 0.5, VAR75)


class TestEstimateSpreadRules:
    def test_stddev_consistency(self, big_sample):
        n = big_sample.size
        se_true = SE_SCALE["stddev"] / math.sqrt(n)
        result = estimate_sd(big_sample, 0.5, VAR75)
        assert result.d_hat == pytest.approx(D_STDDEV, abs=4 * se_true)
        assert result.std_error == pytest.approx(se_true, rel=0.30)
        assert set(result.coefficients) == {"b0", "b1", "b2", "b3", "b4", "b5"}

    def test_sharpe_consistency(self, big_sample):
        n = big_sample.size
        se_true = SE_SCALE["sharpe"] / math.sqrt(n)
        result = estimate_sharpe(big_sample, 0.5, VAR75)
        assert result.d_hat == pytest.approx(D_SHARPE, abs=4 * se_true)
        assert result.std_error == pytest.approx(se_true, rel=0.30)
        assert set(result.coefficients) == {"a0", "a1", "a2", "a3", "a4", "a5"}

    @pytest.mark.parametrize("estimator", [estimate_sd, estimate_sharpe])
    def test_duplicating_the_sample_scales_se_by_root_two(
        self, big_sample, estimator
    ):
        x = big_sample[:4000]
        once = estimator(x, 0.5, VAR75)
        twice = estimator(np.concatenate([x, x]), 0.5, VAR75)
        assert twice.d_hat == pytest.approx(once.d_hat, rel=1e-12)
        assert twice.std_error == pytest.approx(
            once.std_error / math.sqrt(2.0), rel=1e-9
        )

    @pytest.mark.parametrize("estimator", [estimate_sd, estimate_sharpe])
    def test_all_zero_losses_raise_without_a_warning(self, estimator):
        """The atom check meets a layer without spread; numpy must not warn."""
        with pytest.raises(AllZero):
            estimator(np.zeros(100), 0.5, VAR75)

    def test_json_payload_shape(self, big_sample):
        out = estimate_sd(big_sample[:2000], 0.5, VAR75).to_json_dict()
        assert out["rule"] == "stddev"
        assert out["measure"] == "var:0.75"
        assert out["ci"][0] < out["d_hat"] < out["ci"][1]
        assert isinstance(out["warnings"], list)


def _plug_in_objective(x, rule, phi, d):
    """phi sd(min(X, d)) plus the ceded load at rho0 = 0.5, straight from the
    sample, for each d."""
    out = []
    for chunk in np.array_split(np.asarray(d, dtype=float), max(1, len(d) // 200)):
        excess = np.maximum(x - chunk[:, None], 0.0)
        nu1 = excess.mean(axis=1)
        spread = np.sqrt((excess * excess).mean(axis=1) - nu1 ** 2)
        load = nu1 * spread if rule == "stddev" else nu1 / spread
        out.append(phi * np.minimum(x, chunk[:, None]).std(axis=1) + 0.5 * load)
    return np.concatenate(out)


class TestPlugInMinimum:
    """The estimate is the minimiser of the plug-in objective: no distinct
    claim in the search range and no point of a dense scan is lower."""

    @pytest.mark.parametrize("rule, estimator", [("stddev", estimate_sd),
                                                 ("sharpe", estimate_sharpe)])
    @pytest.mark.parametrize("sample", ["duplicates", "zeros", "both"])
    def test_no_claim_or_scan_point_is_lower(self, rule, estimator, sample):
        base = ParetoII(9.0, 8.0).sample(600, 3)
        x = {
            "duplicates": np.round(base, 2),
            "zeros": np.concatenate([np.zeros(60), base[:540]]),
            "both": np.concatenate([np.zeros(30), np.round(base[:570], 1)]),
        }[sample]
        d_hat = estimator(x, 0.5, VAR75).d_hat
        pos = x[(x > 0.0) & (x <= EmpiricalLosses(x).quantile(0.999)) & (x < x.max())]
        points = np.concatenate([np.unique(pos), np.geomspace(pos.min(), pos.max(), 2000)])
        phi = VAR75.phi_normal()
        got = _plug_in_objective(x, rule, phi, [d_hat])[0]
        assert got <= _plug_in_objective(x, rule, phi, points).min() * (1.0 + 1e-12)

    def test_sharpe_estimate_does_not_move_with_operation_order(self, monkeypatch):
        """Writing the load as (rho0/s) nu1 instead of rho0 nu1/s changes the
        objective by rounding only, which must not move the estimate."""
        from xolopt.retention import SharpeLoading

        x = ParetoII(9.0, 8.0).sample(2000, 0)
        base = estimate_sharpe(x, 0.5, VAR75).d_hat

        def load(self, n, nu1, spread):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(spread > 0.0, (self.rho0 / spread) * nu1, np.inf)

        def marginal_load(self, n, sbar, nu1, nu2):
            spread = np.sqrt(nu2 - nu1 ** 2)
            return (-(self.rho0 / spread) * sbar
                    + (self.rho0 / spread ** 3) * (1.0 - sbar) * nu1 ** 2)

        monkeypatch.setattr(SharpeLoading, "load", load)
        monkeypatch.setattr(SharpeLoading, "marginal_load", marginal_load)
        assert estimate_sharpe(x, 0.5, VAR75).d_hat == pytest.approx(base, rel=1e-12)


class TestRetentionCurve:
    def test_loading_sweep_is_increasing(self, big_sample):
        grid = np.geomspace(0.003, 0.03, 5)
        points = retention_curve(big_sample, "decreasing", "rho", grid, 0.9)
        vals = [pt.d_hat for pt in points]
        assert all(np.isfinite(vals))
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(pt.ci_lo < pt.d_hat < pt.ci_hi for pt in points)

    def test_risk_level_sweep_is_decreasing(self, big_sample):
        grid = np.linspace(0.8, 0.95, 4)
        points = retention_curve(big_sample, "stddev", "p", grid, 0.005)
        vals = [pt.d_hat for pt in points]
        assert all(np.isfinite(vals))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_failed_point_becomes_gap_marker(self, big_sample):
        """A nonpositive loading cannot be mapped to a rule parameter."""
        grid = np.array([0.005, -1.0, 0.02])
        points = retention_curve(big_sample[:2000], "decreasing", "rho", grid, 0.9)
        assert np.isnan(points[1].d_hat)
        assert "DomainError" in points[1].error
        assert points[0].error is None and np.isfinite(points[0].d_hat)
        assert points[2].error is None and np.isfinite(points[2].d_hat)

    def test_programming_error_is_not_a_gap(self, big_sample, monkeypatch):
        from xolopt import inference

        def broken(*args, **kwargs):
            raise TypeError("broken estimator")

        monkeypatch.setattr(inference, "estimate_decreasing", broken)
        with pytest.raises(TypeError, match="broken estimator"):
            retention_curve(big_sample[:2000], "decreasing", "rho", [0.01], 0.9)

    def test_rejects_unknown_family_and_sweep(self, big_sample):
        with pytest.raises(DomainError):
            retention_curve(big_sample, "banana", "rho", [0.01], 0.9)
        with pytest.raises(DomainError):
            retention_curve(big_sample, "decreasing", "sideways", [0.01], 0.9)

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    def test_spread_rules_hit_target_effective_loading(self, big_sample, family):
        """A direct estimate round-trips through its own effective loading."""
        from xolopt.retention import SharpeLoading, StdDevLoading, effective_rho

        emp = EmpiricalLosses(big_sample[:4000])
        measure = DistortionMeasure.var(0.9)
        if family == "stddev":
            direct = estimate_sd(emp, 0.5, measure)
            rule = StdDevLoading(0.5)
        else:
            direct = estimate_sharpe(emp, 0.5, measure)
            rule = SharpeLoading(0.5)
        rho_target = effective_rho(emp, rule, emp.n, direct.d_hat)
        points = retention_curve(emp, family, "rho", [rho_target], 0.9)
        assert points[0].error is None
        assert points[0].d_hat == pytest.approx(direct.d_hat, rel=1e-5)
