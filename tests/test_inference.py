"""Tests for nonparametric retention estimation and asymptotic intervals."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from xolopt import inference
from xolopt.dataio import make_synthetic_losses
from xolopt.distortion import DistortionMeasure
from xolopt.errors import AllZero, AtomConditionViolated, DomainError
from xolopt.inference import estimate, retention_curve
from xolopt.retention import _RULES, DecreasingLoading, SharpeLoading, StdDevLoading
from xolopt.severity import EmpiricalLosses, ParetoII, kde_density

VAR75 = DistortionMeasure.var(0.75)

# Stationary points for ParetoII(9, 8) at p = 0.75 (30-digit root finding)
D_DECREASING = 0.54724741814
D_STDDEV = 0.818944971281
D_SHARPE = 0.321769977934

# analyze's default effective-loading grid
RHO_GRID = np.geomspace(0.001, 0.05, 12)

# Delta-method standard errors at the population law, scaled to sqrt(n):
# se(n) = SE_SCALE / sqrt(n).  The decreasing value is exact; the other two
# are the large-n limits of the plug-in formulas.
SE_SCALE = {"decreasing": 0.876148, "stddev": 2.634, "sharpe": 1.044}


@pytest.fixture(scope="module")
def big_sample():
    return ParetoII(9.0, 8.0).sample(20000, 101)


def _density_at_fixed_bandwidth(losses, at):
    """The Gaussian density estimate at the fixed bandwidth 0.1 and without
    reflection, which the standard-error algebra tests below were pinned on."""
    x = losses.losses if isinstance(losses, EmpiricalLosses) else np.asarray(losses)
    z = (at - x) / 0.1
    return float(np.exp(-0.5 * z * z).sum() / (x.size * 0.1 * math.sqrt(2.0 * math.pi)))


@pytest.fixture()
def fixed_bandwidth(monkeypatch):
    """Holds the density behind every standard error at bandwidth 0.1, so
    that a test of the linearisation does not see the bandwidth move with
    the sample size."""
    monkeypatch.setattr(inference, "kde_density", _density_at_fixed_bandwidth)


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


class TestEstimateArguments:
    """A caller's mistake is an error before any solve, never a result or a gap."""

    def test_rule_without_an_estimator_is_a_domain_error(self, big_sample):
        with pytest.raises(DomainError, match="constant rule has no large-sample estimator"):
            estimate(big_sample[:2000], _RULES["constant"](0.3), VAR75)

    def test_estimated_rules_are_the_rules_with_coefficients(self):
        # the CLI's choices come from retention.ESTIMATED_RULES, so that the
        # parser does not load this module
        assert inference.ESTIMATED_RULES == ("decreasing", "stddev", "sharpe")
        assert {cls.name for cls in inference._PREFIX} == set(inference.ESTIMATED_RULES)

    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_bad_level_raises_before_any_solve(self, big_sample, level, monkeypatch):
        solves = []
        solve = inference.solve_retention

        def spy(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(inference, "solve_retention", spy)
        x = big_sample[:2000]
        with pytest.raises(DomainError, match="confidence level must be in"):
            retention_curve(x, "stddev", "rho", np.geomspace(0.005, 0.02, 4), 0.9, level=level)
        with pytest.raises(DomainError, match="confidence level must be in"):
            estimate(x, StdDevLoading(0.5), VAR75, level=level)
        assert solves == []


class TestEstimateDecreasing:
    def test_consistency_and_se(self, big_sample):
        n = big_sample.size
        se_true = SE_SCALE["decreasing"] / math.sqrt(n)
        result = estimate(big_sample, DecreasingLoading(0.5), VAR75)
        assert result.d_hat == pytest.approx(D_DECREASING, abs=4 * se_true)
        assert result.std_error == pytest.approx(se_true, rel=0.25)
        lo, hi = result.ci
        assert lo < result.d_hat < hi
        assert result.n == n
        assert set(result.coefficients) == {"c0", "c1", "c2", "c3", "c4", "c5"}

    def test_wald_interval_width_tracks_level(self, big_sample):
        narrow = estimate(big_sample, DecreasingLoading(0.5), VAR75, level=0.80)
        wide = estimate(big_sample, DecreasingLoading(0.5), VAR75, level=0.99)
        assert wide.ci[1] - wide.ci[0] > narrow.ci[1] - narrow.ci[0]
        assert narrow.d_hat == wide.d_hat

    def test_duplicating_the_sample_scales_se_by_root_two(self, big_sample):
        x = big_sample[:5000]
        once = estimate(x, DecreasingLoading(0.5), VAR75)
        twice = estimate(np.concatenate([x, x]), DecreasingLoading(0.5), VAR75)
        assert twice.d_hat == pytest.approx(once.d_hat, rel=1e-12)
        assert twice.std_error == pytest.approx(
            once.std_error / math.sqrt(2.0), rel=1e-9
        )

    def test_scale_equivariance(self, big_sample):
        x = big_sample[:5000]
        base = estimate(x, DecreasingLoading(0.5), VAR75)
        scaled = estimate(2.0 * x, DecreasingLoading(0.5), VAR75)
        assert scaled.d_hat == pytest.approx(2.0 * base.d_hat, rel=1e-9)
        assert scaled.std_error == pytest.approx(2.0 * base.std_error, rel=1e-6)

    def test_bootstrap_agrees_with_plug_in_se(self, big_sample):
        """Resampling spread is an independent check on the sandwich SE."""
        x = big_sample[:2000]
        plug_in = estimate(x, DecreasingLoading(0.5), VAR75)
        rng = np.random.default_rng(77)
        emp = EmpiricalLosses(x)
        reps = []
        for _ in range(200):
            reps.append(
                estimate(emp.sample_rng(x.size, rng), DecreasingLoading(0.5), VAR75).d_hat
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
        result = estimate(x, DecreasingLoading(delta), measure)
        assert result.std_error == pytest.approx(
            _quadratic_se(x, delta, measure.phi_normal(), result.d_hat), rel=1e-9)

    def test_small_sample_rejected(self):
        with pytest.raises(DomainError):
            estimate(np.linspace(1.0, 2.0, 29), DecreasingLoading(0.5), VAR75)

    def test_zero_inflated_sample_rejected(self):
        x = np.concatenate([np.zeros(400), np.linspace(0.1, 5.0, 600)])
        with pytest.raises(AtomConditionViolated):
            estimate(x, DecreasingLoading(0.5), VAR75)


class TestEstimateSpreadRules:
    def test_stddev_consistency(self, big_sample):
        n = big_sample.size
        se_true = SE_SCALE["stddev"] / math.sqrt(n)
        result = estimate(big_sample, StdDevLoading(0.5), VAR75)
        assert result.d_hat == pytest.approx(D_STDDEV, abs=4 * se_true)
        assert result.std_error == pytest.approx(se_true, rel=0.30)
        assert set(result.coefficients) == {"b0", "b1", "b2", "b3", "b4", "b5"}

    def test_sharpe_consistency(self, big_sample):
        n = big_sample.size
        se_true = SE_SCALE["sharpe"] / math.sqrt(n)
        result = estimate(big_sample, SharpeLoading(0.5), VAR75)
        assert result.d_hat == pytest.approx(D_SHARPE, abs=4 * se_true)
        assert result.std_error == pytest.approx(se_true, rel=0.30)
        assert set(result.coefficients) == {"a0", "a1", "a2", "a3", "a4", "a5"}

    @pytest.mark.parametrize("rule", [StdDevLoading, SharpeLoading])
    def test_duplicating_the_sample_scales_se_by_root_two(
        self, big_sample, rule, fixed_bandwidth
    ):
        x = big_sample[:4000]
        once = estimate(x, rule(0.5), VAR75)
        twice = estimate(np.concatenate([x, x]), rule(0.5), VAR75)
        assert twice.d_hat == pytest.approx(once.d_hat, rel=1e-12)
        assert twice.std_error == pytest.approx(
            once.std_error / math.sqrt(2.0), rel=1e-9
        )

    @pytest.mark.parametrize("c", [10.0, 100.0])
    @pytest.mark.parametrize("rule, power", [(StdDevLoading, -1), (SharpeLoading, 1)])
    def test_scale_equivariance(self, big_sample, rule, power, c):
        """With the claims times c, and the rule parameter, which carries the
        claims' units, rescaled to match (rho0 / c for stddev, rho0 c for
        sharpe), the estimate and its standard error scale by c: the density
        behind the standard error takes its bandwidth from the claims."""
        x = big_sample[:5000]
        base = estimate(x, rule(0.5), VAR75)
        scaled = estimate(c * x, rule(0.5 * c ** power), VAR75)
        assert scaled.d_hat == pytest.approx(c * base.d_hat, rel=1e-9)
        assert scaled.std_error == pytest.approx(c * base.std_error, rel=1e-9)

    @pytest.mark.parametrize("rule", [StdDevLoading, SharpeLoading])
    def test_all_zero_losses_raise_without_a_warning(self, rule):
        """The atom check meets a layer without spread; numpy must not warn."""
        with pytest.raises(AllZero):
            estimate(np.zeros(100), rule(0.5), VAR75)

    def test_json_payload_shape(self, big_sample):
        out = estimate(big_sample[:2000], StdDevLoading(0.5), VAR75).to_json_dict()
        assert out["rule"] == "stddev"
        assert out["measure"] == "var:0.75"
        assert out["ci"][0] < out["d_hat"] < out["ci"][1]
        assert isinstance(out["warnings"], list)

    def test_interval_is_cut_at_zero_with_a_warning(self):
        """130 claims, ninety of them 1.5: the Sharpe estimate sits at the
        float below 1.5 with a standard error near 1, and the 95% Wald
        interval would reach to -0.415, a negative retention."""
        x = np.array([1.5] * 90 + [v for v in (0.5, 1.0, 3.0, 6.0, 9.0) for _ in range(8)])
        result = estimate(x, SharpeLoading(0.5), VAR75)
        assert result.d_hat == np.nextafter(1.5, 0.0)
        assert result.ci == (0.0, pytest.approx(3.415, abs=1e-3))
        assert result.warnings == ["confidence interval cut at 0; its lower end was -0.415033"]
        # an interval above 0 is left as it is, without a warning
        uncut = estimate(ParetoII(9.0, 8.0).sample(2000, 1), SharpeLoading(0.5), VAR75)
        assert uncut.ci[0] > 0.0 and uncut.warnings == []


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


def _sample(name):
    """600 claims with ties, zeros or a heavy-claim shape."""
    base = ParetoII(9.0, 8.0).sample(600, 3)
    if name == "heavy":
        # a Lomax(2.6, 1.2) body floored at 1e-3, with three claims blown up
        x = np.maximum(ParetoII(2.6, 1.2).sample(600, 3), 1e-3)
        x[[5, 250, 590]] = x[[5, 250, 590]] * 80.0 + 50.0
        return x
    return {
        "duplicates": np.round(base, 2),
        "zeros": np.concatenate([np.zeros(60), base[:540]]),
        "both": np.concatenate([np.zeros(30), np.round(base[:570], 1)]),
    }[name]


SAMPLES = ["duplicates", "zeros", "both", "heavy"]


class TestPlugInMinimum:
    """The estimate is the minimiser of the plug-in objective: no distinct
    claim in the search range and no point of a dense scan is lower."""

    @pytest.mark.parametrize("rule", ["stddev", "sharpe"])
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_no_claim_or_scan_point_is_lower(self, rule, sample):
        x = _sample(sample)
        d_hat = estimate(x, _RULES[rule](0.5), VAR75).d_hat
        pos = x[(x > 0.0) & (x <= EmpiricalLosses(x).quantile(0.999)) & (x < x.max())]
        points = np.concatenate([np.unique(pos), np.geomspace(pos.min(), pos.max(), 2000)])
        phi = VAR75.phi_normal()
        got = _plug_in_objective(x, rule, phi, [d_hat])[0]
        assert got <= _plug_in_objective(x, rule, phi, points).min() * (1.0 + 1e-12)

    @pytest.mark.parametrize("sample", SAMPLES)
    def test_decreasing_estimate_is_a_sign_change_of_the_condition(self, sample):
        """The plug-in (d - mu1)^2 - (delta/phi)^2 var(min(X, d)), straight
        from the sample, changes sign at the estimate."""
        x = _sample(sample)
        d_hat = estimate(x, DecreasingLoading(0.5), VAR75).d_hat
        q = (0.5 / VAR75.phi_normal()) ** 2

        def condition(d):
            capped = np.minimum(x, d)
            return (d - capped.mean()) ** 2 - q * capped.var()

        assert condition(d_hat * (1.0 - 1e-9)) <= 0.0 < condition(d_hat * (1.0 + 1e-9))

    def test_kink_estimate_is_pinned(self, fixed_bandwidth):
        """Lomax(9, 8), 2000 claims, seed 2: the sharpe derivative rises
        through zero across a claim, and the estimate is that claim, on the
        side where the derivative is smaller in size."""
        x = ParetoII(9.0, 8.0).sample(2000, 2)
        result = estimate(x, SharpeLoading(0.5), VAR75)
        assert result.d_hat == 0.28753243914300874
        assert result.d_hat in x
        assert result.std_error == pytest.approx(0.0223141265462831, abs=1e-12)

    def test_sharpe_estimate_does_not_move_with_operation_order(self, monkeypatch):
        """Writing the load as (rho0/s) nu1 instead of rho0 nu1/s, and its
        rate of fall with the products grouped the other way, changes the
        objective and its derivative by rounding only, which must not move
        the estimate.  The load shape is patched where both the Brent steps
        and a model's knot columns read it; a fresh model shows that the
        patch reaches the derivative's limits at the knots."""
        from xolopt import severity
        from xolopt.retention import _knot_sides

        x = ParetoII(9.0, 8.0).sample(2000, 0)
        rule, phi = SharpeLoading(0.5), VAR75.phi_normal()
        base = estimate(x, rule, VAR75).d_hat
        base_limits = _knot_sides(EmpiricalLosses(x), rule, phi, x.size)[1:]

        def load(self, n, nu1, spread):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(spread > 0.0, (self.rho0 / spread) * nu1, np.inf)

        def load_shape(k, sbar, nu1_sq, power, lower):
            return sbar * power + ((k * (1.0 - sbar)) * (nu1_sq * lower) if k else 0.0)

        monkeypatch.setattr(SharpeLoading, "load", load)
        monkeypatch.setattr(severity, "_load_shape", load_shape)
        limits = _knot_sides(EmpiricalLosses(x), rule, phi, x.size)[1:]
        assert [a.tobytes() for a in limits] != [a.tobytes() for a in base_limits]
        assert estimate(x, rule, VAR75).d_hat == pytest.approx(base, rel=1e-12)


class TestRetentionCurve:
    @pytest.mark.parametrize("family", ["constant", "sl", "bogus"])
    def test_a_family_without_an_estimator_is_a_domain_error(self, big_sample, family):
        with pytest.raises(DomainError, match=f"^unknown rule family '{family}'$"):
            retention_curve(big_sample[:2000], family, "rho", [0.01], 0.9)

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

        monkeypatch.setattr(inference, "_linearise", broken)
        with pytest.raises(TypeError, match="broken estimator"):
            retention_curve(big_sample[:2000], "decreasing", "rho", [0.01], 0.9)

    def test_rejects_unknown_family_and_sweep(self, big_sample):
        with pytest.raises(DomainError):
            retention_curve(big_sample, "banana", "rho", [0.01], 0.9)
        with pytest.raises(DomainError):
            retention_curve(big_sample, "decreasing", "sideways", [0.01], 0.9)

    @pytest.mark.parametrize("family", ["decreasing", "stddev", "sharpe"])
    def test_every_family_reads_the_density_at_the_samples_bandwidth(
        self, big_sample, family, monkeypatch
    ):
        """Every spread-rule standard error, of one estimate and of each
        curve point, reads the density estimate of the claims themselves at
        d_hat, so at the bandwidth that `kde_density` works out from them;
        no bandwidth is passed.  At a flat rate's root the density's
        coefficient vanishes, and the decreasing rule reads no density."""
        x = big_sample[:2000]
        rule = _RULES[family](0.5)
        seen = []

        def kde(losses, at):
            value = kde_density(losses, at)
            seen.append((losses, at, value))
            return value

        monkeypatch.setattr(inference, "kde_density", kde)
        one = estimate(x, rule, VAR75)
        curve = retention_curve(x, family, "rho", [0.01, 0.02], 0.9)
        reads = [one.d_hat] + [pt.d_hat for pt in curve] if rule.spread_dependent else []
        assert [at for _, at, _ in seen] == reads
        for losses, at, value in seen:
            assert np.array_equal(losses.losses, np.sort(x))
            assert value == kde_density(x, at)

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    def test_knots_are_built_once_per_curve(self, big_sample, family, monkeypatch):
        """Every fixed-point step of every point reuses the sample's table."""
        builds = []
        build = EmpiricalLosses._build_knots

        def spy(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(EmpiricalLosses, "_build_knots", spy)
        points = retention_curve(big_sample[:2000], family, "rho", [0.01, 0.02], 0.9)
        assert all(pt.error is None for pt in points)
        assert len(builds) == 1

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    def test_spread_rules_hit_target_effective_loading(self, big_sample, family):
        """A direct estimate round-trips through its own effective loading."""
        from xolopt.retention import SharpeLoading, StdDevLoading, effective_rho

        emp = EmpiricalLosses(big_sample[:4000])
        measure = DistortionMeasure.var(0.9)
        if family == "stddev":
            direct = estimate(emp, StdDevLoading(0.5), measure)
            rule = StdDevLoading(0.5)
        else:
            direct = estimate(emp, SharpeLoading(0.5), measure)
            rule = SharpeLoading(0.5)
        rho_target = effective_rho(emp, rule, emp.n, direct.d_hat)
        points = retention_curve(emp, family, "rho", [rho_target], 0.9)
        assert points[0].error is None
        assert points[0].d_hat == pytest.approx(direct.d_hat, rel=1e-5)

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    def test_fixed_point_takes_few_solves_to_a_relative_tolerance(
        self, big_sample, family, monkeypatch
    ):
        """On the default grid a spread-rule point costs at most 8 solves on
        average, the final estimate included, and the parameter it returns
        satisfies |target(param) - param| <= 1e-8 param."""
        from xolopt import inference

        solve = inference.solve_retention
        estimate_at = inference._estimate_at_effective_rho
        calls, points = [0], []

        def counting(*args):
            calls[0] += 1
            return solve(*args)

        def recording(emp, cls, rho, measure, *rest):
            before = calls[0]
            result, param = estimate_at(emp, cls, rho, measure, *rest)
            d_hat = solve(emp, cls(param), measure, emp.n).d_star
            target = rho / inference.effective_rho(emp, cls(1.0), emp.n, d_hat)
            points.append((calls[0] - before, param, target))
            return result, param

        monkeypatch.setattr(inference, "solve_retention", counting)
        monkeypatch.setattr(inference, "_estimate_at_effective_rho", recording)
        retention_curve(big_sample[:2000], family, "rho", RHO_GRID, 0.9)
        assert len(points) >= 6
        assert np.mean([solves for solves, _, _ in points]) <= 8.0
        for _, param, target in points:
            assert abs(target - param) <= 1e-8 * param

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    def test_point_solves_only_inside_the_fixed_point(self, big_sample, family, monkeypatch):
        """The estimate at the converged parameter reuses the fixed point's
        last solve, so a point costs exactly its evaluations of target."""
        from xolopt import inference

        solve, fixed = inference.solve_retention, inference.fixed_point
        estimate_at = inference._estimate_at_effective_rho
        calls, evaluations, points = [0], [], []

        def counting(*args):
            calls[0] += 1
            return solve(*args)

        def recording_fixed(g, x0):
            param, n = fixed(g, x0)
            evaluations.append(n)
            return param, n

        def recording(*args):
            before = calls[0]
            result = estimate_at(*args)
            points.append((calls[0] - before, evaluations[-1]))
            return result

        monkeypatch.setattr(inference, "solve_retention", counting)
        monkeypatch.setattr(inference, "fixed_point", recording_fixed)
        monkeypatch.setattr(inference, "_estimate_at_effective_rho", recording)
        retention_curve(big_sample[:2000], family, "rho", RHO_GRID, 0.9)
        assert len(points) >= 6
        assert all(solves == n for solves, n in points)

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    def test_no_moment_is_read_between_a_curves_solves(self, big_sample, family, monkeypatch):
        """Each fixed-point step takes the rate from the solve it made, so
        once the curve's first solve has begun, every moment read happens
        inside a solve, and no `effective_rho` runs at all."""
        state = {"solving": False, "begun": False}
        outside = []

        def reader(name, read):
            def spy(*args, **kwargs):
                if state["begun"] and not state["solving"]:
                    outside.append(name)
                return read(*args, **kwargs)

            return spy

        for method in ("moment_grid", "cell_moments"):
            monkeypatch.setattr(EmpiricalLosses, method,
                                reader(method, getattr(EmpiricalLosses, method)))
        monkeypatch.setattr(inference, "effective_rho",
                            reader("effective_rho", inference.effective_rho))
        solve = inference.solve_retention

        def solve_spy(*args):
            state["solving"] = state["begun"] = True
            try:
                return solve(*args)
            finally:
                state["solving"] = False

        monkeypatch.setattr(inference, "solve_retention", solve_spy)
        points = retention_curve(big_sample[:2000], family, "rho", RHO_GRID, 0.9)
        assert sum(pt.error is None for pt in points) >= 6
        assert outside == []

    @pytest.mark.parametrize("family", ["stddev", "sharpe"])
    @pytest.mark.parametrize("sample", ["lomax", "synthetic"])
    def test_curve_is_free_of_the_claims_units(self, big_sample, family, sample):
        """Claims scaled by c scale every curve point and its interval by c:
        the effective loading has no units, the fixed point's stopping test
        is relative, and the density's bandwidth scales with the claims."""
        x = big_sample[:2000] if sample == "lomax" else make_synthetic_losses()
        base = retention_curve(x, family, "rho", RHO_GRID, 0.9)
        for c in (0.01, 100.0):
            scaled = retention_curve(c * x, family, "rho", RHO_GRID, 0.9)
            assert [pt.error is None for pt in scaled] == [pt.error is None for pt in base]
            for pt, at_c in zip(base, scaled):
                if pt.error is None:
                    assert at_c.d_hat == pytest.approx(c * pt.d_hat, rel=1e-8)
                    # the interval moves with the rule parameter, which the
                    # fixed point finds to a relative 1e-8
                    assert at_c.ci_hi - at_c.ci_lo == pytest.approx(
                        c * (pt.ci_hi - pt.ci_lo), rel=5e-8)


ES90 = DistortionMeasure("es", 0.9)

# (sample, rule, parameter, measure): flat roots, cell roots, and kink roots
# at a claim (duplicates and both, sharpe 0.5) and at the float below one
# (duplicates, sharpe 2)
REUSE_CASES = [
    ("duplicates", "decreasing", 0.5, VAR75), ("zeros", "decreasing", 2.0, ES90),
    ("heavy", "decreasing", 0.5, VAR75), ("heavy", "stddev", 0.5, VAR75),
    ("both", "stddev", 0.5, ES90), ("heavy", "sharpe", 2.0, ES90),
    ("duplicates", "sharpe", 0.5, ES90), ("duplicates", "sharpe", 2.0, ES90),
    ("both", "sharpe", 0.5, VAR75),
]


class TestEstimateReusesTheSolve:
    """The linearisation takes the moments at d_hat that the solve read."""

    @pytest.mark.parametrize("name,rule,theta,measure", REUSE_CASES)
    def test_no_moment_is_read_after_the_solve(self, monkeypatch, name, rule, theta, measure):
        events = []
        for method in ("moment_grid", "cell_moments"):
            def spy(self, *args, _read=getattr(EmpiricalLosses, method), _name=method):
                events.append(_name)
                return _read(self, *args)

            monkeypatch.setattr(EmpiricalLosses, method, spy)
        solve = inference.solve_retention

        def solve_spy(*args):
            sol = solve(*args)
            events.append("solved")
            return sol

        monkeypatch.setattr(inference, "solve_retention", solve_spy)
        estimate(_sample(name), _RULES[rule](theta), measure)
        assert events.count("solved") == 1 and events[-1] == "solved"
        assert len(events) > 1

    @pytest.mark.parametrize("name,rule,theta,measure", REUSE_CASES)
    def test_standard_error_keeps_the_bits_of_a_fresh_read(self, name, rule, theta, measure):
        emp = EmpiricalLosses(_sample(name))
        rule = _RULES[rule](theta)
        sol = inference.solve_retention(emp, rule, measure, emp.n)
        g = emp.moment_grid(sol.d_star)
        assert [float(sol.moments[k]).hex() for k in sol.moments] == \
            [float(g[k]).hex() for k in sol.moments]
        fresh = replace(sol, moments=g)
        got, want = (inference._linearise(emp, s, 0.95) for s in (sol, fresh))
        assert (got.std_error.hex(), got.ci) == (want.std_error.hex(), want.ci)
        assert got.coefficients == want.coefficients

    @pytest.mark.parametrize("name,rule,theta,measure", REUSE_CASES)
    def test_solution_carries_the_moment_grid_keys(self, name, rule, theta, measure):
        """Flat, cell and kink roots alike, a kink root at a claim included,
        whose moments are the knot table's row there."""
        emp = EmpiricalLosses(_sample(name))
        sol = inference.solve_retention(emp, _RULES[rule](theta), measure, emp.n)
        assert list(sol.moments) == list(emp.moment_grid(sol.d_star))

    def test_a_kink_root_at_a_claim_is_among_the_cases(self):
        emp = EmpiricalLosses(_sample("duplicates"))
        sol = inference.solve_retention(emp, _RULES["sharpe"](0.5), ES90, emp.n)
        assert sol.d_star in emp.knots()["knots"] and sol.diagnostics.iterations == 0

    @pytest.mark.parametrize("rule", ["constant", "decreasing", "stddev", "sharpe"])
    @pytest.mark.parametrize("measure", [VAR75, ES90])
    def test_lomax_solution_carries_the_moment_grid_keys(self, rule, measure):
        model = ParetoII(9.0, 8.0)
        sol = inference.solve_retention(model, _RULES[rule](0.5), measure, 100)
        assert list(sol.moments) == list(model.moment_grid(sol.d_star))

    def test_moments_stay_out_of_the_json(self):
        emp = EmpiricalLosses(_sample("heavy"))
        sol = inference.solve_retention(emp, _RULES["stddev"](0.5), VAR75, emp.n)
        assert sol.moments is not None
        assert "moments" not in json.dumps(sol.to_json_dict())
        assert "moments" not in repr(sol)
