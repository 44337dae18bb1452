"""Tests for retention solvers under the four premium loading rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xolopt import retention
from xolopt.distortion import DistortionMeasure
from xolopt.errors import (
    AtomConditionViolated,
    ConditionNotMet,
    ConditionViolated,
    DegenerateVariance,
    DomainError,
    NonpositivePhi,
    NoRootFound,
)
from xolopt.numerics import RootResult, brentq, log_spaced_grid
from xolopt.retention import (
    ConstantLoading,
    DecreasingLoading,
    SharpeLoading,
    StdDevLoading,
    condition_report,
    edgeworth_objective,
    effective_rho,
    objective,
    solve_retention,
    solve_retention_edgeworth,
    stationarity_function,
    stop_loss_retention,
)
from xolopt.severity import EmpiricalLosses, ParetoII

VAR75 = DistortionMeasure.var(0.75)
PHI75 = 0.674489750196

# Stationary points for ParetoII(9, 8) at p = 0.75, frozen from 30-digit
# root finding on the closed-form moment identities.
D_DECREASING = 0.54724741814
D_STDDEV = 0.818944971281
D_SHARPE = 0.321769977934
D_CONSTANT = {10: 1.48506768838, 25: 2.68101897267, 100: 5.65568859629}


@pytest.fixture(scope="module")
def model():
    return ParetoII(9.0, 8.0)


class TestSolveRetention:
    def test_decreasing_frozen_optimum(self, model):
        sol = solve_retention(model, DecreasingLoading(0.5), VAR75, 100)
        assert sol.d_star == pytest.approx(D_DECREASING, abs=1e-8)
        assert sol.diagnostics.stationarity_residual < 1e-9

    def test_stddev_frozen_optimum(self, model):
        sol = solve_retention(model, StdDevLoading(0.5), VAR75, 100)
        assert sol.d_star == pytest.approx(D_STDDEV, abs=1e-5)
        assert sol.diagnostics.is_global_grid_min

    def test_sharpe_frozen_optimum(self, model):
        sol = solve_retention(model, SharpeLoading(0.5), VAR75, 100)
        assert sol.d_star == pytest.approx(D_SHARPE, abs=1e-5)

    def test_local_minimum_beaten_by_a_grid_end_is_no_optimum(self, model):
        """sharpe rho0 = 1 under wang(0.5): the derivative rises through zero
        once, but the objective is lower still at an end of the grid."""
        rule, measure = SharpeLoading(1.0), DistortionMeasure.wang(0.5)
        grid = model.knots()["knots"]
        station = stationarity_function(model, rule, measure, 100, grid)
        assert np.any((station[:-1] <= 0.0) & (station[1:] > 0.0))
        with pytest.raises(NoRootFound):
            solve_retention(model, rule, measure, 100)

    @pytest.mark.parametrize("n", [10, 25, 100])
    def test_constant_frozen_optima(self, model, n):
        sol = solve_retention(model, ConstantLoading(0.3), VAR75, n)
        assert sol.d_star == pytest.approx(D_CONSTANT[n], abs=1e-8)

    def test_constant_optima_from_independent_high_precision(self):
        """Re-derive D_CONSTANT without the library, at 30 digits.

        The moments come by quadrature of the Lomax(9, 8) survival function
        (1 + x/8)^-9, and the root of the first-order condition
        d - mu1 = (sqrt(N) rho / phi) sd(min(X, d)) is the exact minimiser.
        The values printed in the paper sit up to 2.8e-3 away and cost more.
        """
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            rho, p = mp.mpf("0.3"), mp.mpf("0.75")
            phi = mp.sqrt(2) * mp.erfinv(2 * p - 1)
            surv = lambda x: (1 + x / 8) ** -9
            mean = mp.quad(surv, [0, mp.inf])

            def capped_mean_sd(d):
                mu1 = mp.quad(surv, [0, d])
                mu2 = 2 * mp.quad(lambda x: x * surv(x), [0, d])
                return mu1, mp.sqrt(mu2 - mu1 ** 2)

            def cost(n, d):
                mu1, sd = capped_mean_sd(d)
                return n * mean + n * rho * (mean - mu1) + mp.sqrt(n) * phi * sd

            def foc(n, d):
                mu1, sd = capped_mean_sd(d)
                return d - mu1 - mp.sqrt(n) * rho / phi * sd

            printed = {10: "1.4856", 25: "2.6838", 100: "5.6581"}
            for n, d_printed in printed.items():
                root = mp.findroot(lambda d: foc(n, d), mp.mpf(d_printed))
                assert abs(float(root) - D_CONSTANT[n]) < 1e-10
                assert cost(n, mp.mpf(d_printed)) > cost(n, root)

    @pytest.mark.parametrize("n", [10, 10000])
    def test_stddev_and_sharpe_minimizers_are_size_free(self, model, n):
        """The scaled objective drops the N factor, so d* ignores N."""
        sd = solve_retention(model, StdDevLoading(0.5), VAR75, n).d_star
        sh = solve_retention(model, SharpeLoading(0.5), VAR75, n).d_star
        assert sd == pytest.approx(D_STDDEV, abs=1e-5)
        assert sh == pytest.approx(D_SHARPE, abs=1e-5)

    @pytest.mark.parametrize(
        "rule", [ConstantLoading(0.3), DecreasingLoading(0.5)], ids=["const", "decr"]
    )
    def test_scale_equivariance(self, rule):
        """Scaling the severity by c scales the optimum by exactly c."""
        base = solve_retention(ParetoII(9.0, 8.0), rule, VAR75, 25).d_star
        scaled = solve_retention(ParetoII(9.0, 16.0), rule, VAR75, 25).d_star
        assert scaled == pytest.approx(2.0 * base, rel=1e-8)

    def test_monotone_in_loading(self, model):
        """A costlier reinsurer makes the insurer retain more."""
        d_delta = [
            solve_retention(model, DecreasingLoading(delta), VAR75, 100).d_star
            for delta in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a < b for a, b in zip(d_delta, d_delta[1:]))
        d_rho = [
            solve_retention(model, ConstantLoading(rho), VAR75, 10).d_star
            for rho in (0.1, 0.2, 0.3)
        ]
        assert all(a < b for a, b in zip(d_rho, d_rho[1:]))

    def test_monotone_in_risk_level(self, model):
        """More tail-averse risk levels push the optimum down."""
        d_p = [
            solve_retention(
                model, DecreasingLoading(0.5), DistortionMeasure.var(p), 100
            ).d_star
            for p in (0.6, 0.75, 0.9, 0.95)
        ]
        assert all(a > b for a, b in zip(d_p, d_p[1:]))

    def test_es_is_more_conservative_than_var(self, model):
        """A larger volatility coefficient means ceding more."""
        d_var = solve_retention(model, DecreasingLoading(0.5), VAR75, 100).d_star
        d_es = solve_retention(
            model, DecreasingLoading(0.5), DistortionMeasure.es(0.75), 100
        ).d_star
        assert d_es < d_var

    def test_zero_phi_rejected(self, model):
        with pytest.raises(NonpositivePhi):
            solve_retention(model, ConstantLoading(0.3), DistortionMeasure.wang(0.0), 10)

    def test_bad_portfolio_size_rejected(self, model):
        with pytest.raises(DomainError):
            solve_retention(model, ConstantLoading(0.3), VAR75, 0)

    def test_json_payload_shape(self, model):
        out = solve_retention(model, DecreasingLoading(0.5), VAR75, 100).to_json_dict()
        assert out["rule"] == "decreasing"
        assert out["rule_params"] == {"delta": 0.5}
        assert out["measure"] == "var:0.75"
        assert set(out["diagnostics"]) >= {
            "bracket",
            "stationarity_residual",
            "condition_checks",
            "effective_rho",
        }


class TestStationarity:
    @pytest.mark.parametrize(
        "alpha,lam", [(9.0, 8.0), (2.5, 3.0), (5.0, 1.0)], ids=str
    )
    @pytest.mark.parametrize("p", [0.75, 0.9])
    @pytest.mark.parametrize(
        "rule",
        [DecreasingLoading(0.3), DecreasingLoading(0.8), ConstantLoading(0.1)],
        ids=["d03", "d08", "c01"],
    )
    def test_unique_sign_change_above_critical_quantile(self, alpha, lam, p, rule):
        """The stationarity quadratic crosses zero exactly once beyond d2."""
        model = ParetoII(alpha, lam)
        measure = DistortionMeasure.var(p)
        n = 10
        s = rule.rho * np.sqrt(n) if isinstance(rule, ConstantLoading) else rule.delta
        phi = measure.phi_normal()
        level = s * s / (s * s + phi * phi)
        d2 = lam * ((1.0 - level) ** (-1.0 / alpha) - 1.0)
        grid = np.geomspace(max(d2, 1e-9) * (1.0 + 1e-9), d2 * 1e4 + 10.0, 5000)
        vals = np.array(
            [stationarity_function(model, rule, measure, n, d) for d in grid]
        )
        flips = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
        assert flips == 1

    def test_residual_vanishes_at_solution(self, model):
        for rule in (ConstantLoading(0.3), DecreasingLoading(0.5)):
            sol = solve_retention(model, rule, VAR75, 25)
            resid = stationarity_function(model, rule, VAR75, 25, sol.d_star)
            assert abs(float(resid)) < 1e-9


class TestObjective:
    def test_decreasing_matches_moment_arithmetic(self, model):
        """Mean cost plus loaded premium plus the volatility term."""
        g = model.moment_grid(1.0)
        n = 100
        sigma = np.sqrt(g["mu2"] - g["mu1"]**2)
        expected = (
            n * model.mean()
            + np.sqrt(n) * 0.5 * g["nu1"]
            + np.sqrt(n) * sigma * PHI75
        )
        got = objective(model, DecreasingLoading(0.5), VAR75, n, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        # bit for bit: a flat load is c(N) nu1, with no spread term
        phi = VAR75.phi_normal()
        assert got == n * model.mean() + math.sqrt(n) * (phi * math.sqrt(g["var"]) + 0.5 * g["nu1"])

    def test_value_at_optimum_is_minimal(self, model):
        sol = solve_retention(model, StdDevLoading(0.5), VAR75, 50)
        for d in (0.5 * sol.d_star, 2.0 * sol.d_star):
            assert objective(model, StdDevLoading(0.5), VAR75, 50, d) > sol.objective_value


class TestRetentionDomain:
    """The functions of a retention refuse one that is not >= 0, NaN too."""

    BAD = [-1.0, -9.0, math.nan, np.array([0.5, -1.0, 2.0]), np.array([1.0, math.nan])]

    @pytest.mark.parametrize("d", BAD, ids=str)
    @pytest.mark.parametrize("function", [objective, stationarity_function],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("rule", [DecreasingLoading(0.5), StdDevLoading(0.5)],
                             ids=lambda r: r.name)
    def test_objective_and_stationarity(self, model, function, rule, d):
        with pytest.raises(DomainError, match="retention must be nonnegative"):
            function(model, rule, VAR75, 10, d)

    @pytest.mark.parametrize("d", BAD, ids=str)
    def test_edgeworth_objective(self, model, d):
        with pytest.raises(DomainError, match="retention must be nonnegative"):
            edgeworth_objective(model, ConstantLoading(0.3), 0.75, 10, 2, d)

    def test_the_message_names_the_first_bad_entry(self, model):
        with pytest.raises(DomainError) as err:
            objective(model, DecreasingLoading(0.5), VAR75, 10, np.array([0.5, -1.0, -2.0]))
        assert str(err.value) == "retention must be nonnegative, got -1.0"

    def test_zero_is_a_retention(self, model):
        rule = DecreasingLoading(0.5)
        at_zero = objective(model, rule, VAR75, 10, 0.0)
        assert at_zero == objective(model, rule, VAR75, 10, np.array([0.0, 1.0]))[0]
        assert math.isfinite(at_zero)


# the cell [2, 3] of these values makes the interpolating Brent step's
# denominator underflow to 0 (see tests/test_numerics.py)
UNDERFLOWING_VALUES = [0.0, 0.0, -2.6774738800891943e-243, 6.45627945690787e-234]

_LIMITS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(-1e300, 1e300),
)


def _rising_pairs(values):
    """The pairs the scan must pick: every pair of finite neighbours that
    goes from <= 0 to > 0, as a plain loop finds them."""
    return [
        i for i in range(len(values) - 1)
        if math.isfinite(values[i]) and math.isfinite(values[i + 1])
        and values[i] <= 0.0 < values[i + 1]
    ]


class TestRisingRoots:
    """The spread rules' scan over the one-sided limits at the knots, on
    knots 0, 1, 2, ... with a derivative that is linear in each cell."""

    @given(values=st.lists(_LIMITS, min_size=1, max_size=12))
    @example(values=UNDERFLOWING_VALUES)
    def test_finds_every_rising_finite_cell(self, values):
        """Smooth knots (below = knots, equal limits) leave only cells."""
        knots = np.arange(float(len(values)))

        def derivative(d):
            return float(np.interp(d, knots, values))

        roots, ends = retention._rising_roots(
            {"knots": knots, "below": knots}, np.array(values), np.array(values), derivative)
        cells = _rising_pairs(values)
        assert [res.bracket for res in roots] == [(i, i + 1) for i in cells]
        for i, res in zip(cells, roots):
            if values[i] == 0.0:
                assert (res.root, res.iterations) == (i, 0)
            else:
                assert i <= res.root <= i + 1
        assert ends == (0.0, len(values) - 1.0)

    @given(limits=st.lists(st.tuples(_LIMITS, _LIMITS), min_size=1, max_size=8))
    def test_a_rise_across_a_knot_is_a_kink_root(self, limits):
        """With a jump at each knot, the limits read in order (left, right,
        left, ...) rise through zero across a knot or inside a cell."""
        left, right = (np.array(side) for side in zip(*limits))
        knots = np.arange(1.0, len(limits) + 1.0)
        below = knots - 0.25

        def derivative(d):  # linear from right[j] at knot j to left[j + 1]
            j = int(np.searchsorted(knots, d, side="right")) - 1
            return float(np.interp(d, [knots[j], below[j + 1]], [right[j], left[j + 1]]))

        roots, ends = retention._rising_roots(
            {"knots": knots, "below": below}, left, right, derivative)
        pairs = _rising_pairs(np.column_stack([left, right]).ravel())
        assert len(roots) == len(pairs)
        for i, res in zip(pairs, roots):
            j = i // 2
            if i % 2 == 0:
                assert res.bracket == (below[j], knots[j]) and res.iterations == 0
                nearer = below[j] if abs(left[j]) < right[j] else knots[j]
                assert res.root == nearer
            else:
                assert res.bracket == (knots[j], below[j + 1])
                assert knots[j] <= res.root <= below[j + 1]
        assert ends == (0.75, float(len(limits)))


class TestPlugInDerivative:
    """The spread-rule solver's limits of the plug-in derivative on both
    sides of each claim agree with `stationarity_function` there."""

    @pytest.mark.parametrize("rule", [StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    @pytest.mark.parametrize("sample", ["ties", "zeros"])
    def test_one_sided_limits_match_the_stationarity_function(self, rule, sample):
        base = ParetoII(9.0, 8.0).sample(2000, 5)
        x = {"ties": np.round(base, 2),
             "zeros": np.concatenate([np.zeros(200), np.round(base[:1800], 1)])}[sample]
        emp = EmpiricalLosses(x)
        t, left, right = retention._knot_sides(emp, rule, VAR75.phi_normal(), emp.n)
        claims = t["knots"]
        assert np.array_equal(claims, np.unique(x[(x > 0.0) & (x <= emp.quantile(0.999))]))
        below = stationarity_function(emp, rule, VAR75, emp.n, t["below"])
        at = stationarity_function(emp, rule, VAR75, emp.n, claims)
        np.testing.assert_allclose(left, below, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(right, at, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("rule", [StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    def test_lomax_limits_are_the_stationarity_function(self, model, rule):
        """On smooth knots both limits are the derivative at the knot."""
        t, left, right = retention._knot_sides(model, rule, VAR75.phi_normal(), 100)
        at = stationarity_function(model, rule, VAR75, 100, t["knots"])
        assert np.array_equal(left, at) and np.array_equal(right, at)

    @pytest.mark.parametrize("rule", [StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    def test_no_load_term_at_the_largest_loss(self, rule):
        """Below 1000 claims the range ends at the largest loss, where the
        layer empties: from the left the derivative is the capped term alone,
        and above it 0.  (Just below it, nu2 - nu1^2 cancels to rounding
        noise, so `stationarity_function` there is no reference.)"""
        x = np.round(ParetoII(9.0, 8.0).sample(800, 5), 2)
        emp = EmpiricalLosses(x)
        t, left, right = retention._knot_sides(emp, rule, VAR75.phi_normal(), emp.n)
        assert t["knots"][-1] == x.max()
        gap = x.max() - t["mu1"][-1]
        lead = VAR75.phi_normal() * t["sbar_left"][-1] * gap / math.sqrt(t["var"][-1])
        assert left[-1] == pytest.approx(lead, rel=1e-12)
        assert right[-1] == 0.0


def _unfactored_marginal_load(rule, n, sbar, nu1, nu2):
    """A rule's marginal load as one expression, -c(N) times the whole
    bracket, the form `load_shape` was factored out of."""
    k = rule.spread_power
    spread = np.sqrt(nu2 - nu1 * nu1)
    tilt = k * (1.0 - sbar) * (nu1 * nu1) * np.power(spread, k - 2) if k else 0.0
    return -rule.scale(n) * (sbar * np.power(spread, k) + tilt)


def _unfactored_sides(model, rule, phi, n):
    """The derivative's limits at the knots, left and right, each side
    taken whole from the table's moments."""
    t = model.knots()
    empty = t["nu1"] == 0.0

    def limit(sbar):
        load = _unfactored_marginal_load(rule, n, sbar, t["nu1"], t["nu2"])
        return phi * sbar * t["gap"] / np.sqrt(t["var"]) + np.where(empty, 0.0, load)

    with np.errstate(divide="ignore", invalid="ignore"):
        return limit(t["sbar_left"]), limit(t["sbar"])


def _interleaved_rising_roots(t, left, right, derivative):
    """`_rising_roots` as a scan over the 2K limits taken in order, left[0],
    right[0], left[1], ...: the reference for the scan over the two sides."""
    knots, below = t["knots"], t["below"]
    values = np.column_stack([left, right]).ravel()
    a, b = values[:-1], values[1:]
    rising = np.isfinite(a) & np.isfinite(b) & (a <= 0.0) & (b > 0.0)
    roots = []
    for i in np.flatnonzero(rising):
        j = i // 2
        if i % 2 == 0:
            bracket = (float(below[j]), float(knots[j]))
            root, residual = ((bracket[0], left[j]) if abs(left[j]) < right[j]
                              else (bracket[1], right[j]))
            if root < knots[j]:
                residual = derivative(root)
            roots.append(RootResult(root, float(residual), bracket, 0))
        else:
            lo, hi = float(knots[j]), float(below[j + 1])
            f_hi = left[j + 1] if below[j + 1] == knots[j + 1] else None
            root, iterations, residual = brentq(derivative, lo, hi, right[j], f_hi)
            roots.append(RootResult(root, residual, (lo, hi), iterations))
    return roots


def _bits(roots):
    return [(float(r.root).hex(), float(r.residual).hex(), tuple(map(float.hex, r.bracket)),
             r.iterations) for r in roots]


def _empirical(kind):
    base = ParetoII(9.0, 8.0).sample(2000, 5)
    return {
        "ties": lambda: np.round(base, 2),
        "zeros": lambda: np.concatenate([np.zeros(200), np.round(base[:1800], 1)]),
        # below 1000 claims the range ends at the largest, where the layer empties
        "empty_top": lambda: np.round(base[:800], 2),
    }[kind]()


_SIGNED_LIMITS = st.one_of(_LIMITS, st.sampled_from([-0.0, 5e-324, -5e-324]))

SPREAD_RULES = [StdDevLoading(0.05), StdDevLoading(0.5), SharpeLoading(0.5), SharpeLoading(3.0)]


class TestLoadShapeColumns:
    """The spread rules' limits at the knots from the model's `load_shape`
    columns, against the unfactored arithmetic, bit for bit."""

    @pytest.mark.parametrize("rule", [ConstantLoading(0.3), DecreasingLoading(0.5),
                                      StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    @pytest.mark.parametrize("kind", ["lomax", "empty_top"])
    def test_marginal_load_keeps_its_bits(self, rule, kind):
        model = ParetoII(9.0, 8.0) if kind == "lomax" else EmpiricalLosses(_empirical(kind))
        d = np.concatenate([log_spaced_grid(1e-3, 20.0, 50), model.knots()["knots"][-3:]])
        for n in (1, 10, 1000):
            g = model.moment_grid(d)
            with np.errstate(divide="ignore", invalid="ignore"):
                got = rule.marginal_load(n, g["sbar"], g["nu1"], g["nu2"])
                want = _unfactored_marginal_load(rule, n, g["sbar"], g["nu1"], g["nu2"])
                assert got.tobytes() == want.tobytes()
                for x in d:
                    g = model.moment_grid(float(x))
                    got = rule.marginal_load(n, g["sbar"], g["nu1"], g["nu2"])
                    want = _unfactored_marginal_load(rule, n, g["sbar"], g["nu1"], g["nu2"])
                    assert float(got).hex() == float(want).hex()

    @pytest.mark.parametrize("reuse", [True, False], ids=["reused", "fresh"])
    @pytest.mark.parametrize("kind", ["lomax", "ties", "zeros", "empty_top"])
    def test_knot_sides_keep_their_bits(self, kind, reuse):
        def make():
            return ParetoII(9.0, 8.0) if kind == "lomax" else EmpiricalLosses(_empirical(kind))

        shared = make()
        for rule in SPREAD_RULES:
            for measure in (VAR75, DistortionMeasure("es", 0.9), DistortionMeasure("pht", 0.5)):
                for n in (1, 10, 2000):
                    model = shared if reuse else make()
                    phi = measure.phi_normal()
                    _, left, right = retention._knot_sides(model, rule, phi, n)
                    want_left, want_right = _unfactored_sides(model, rule, phi, n)
                    assert left.tobytes() == want_left.tobytes()
                    assert right.tobytes() == want_right.tobytes()
        if kind == "empty_top":
            assert shared.knots()["nu1"][-1] == 0.0 and right[-1] == 0.0

    @pytest.mark.parametrize("kind", ["lomax", "ties"])
    def test_one_read_only_entry_per_spread_power(self, kind):
        model = ParetoII(9.0, 8.0) if kind == "lomax" else EmpiricalLosses(_empirical(kind))
        for rule in SPREAD_RULES:
            for n in (10, 100):
                try:
                    solve_retention(model, rule, VAR75, n)
                except NoRootFound:
                    pass
        assert sorted(model._shapes) == [-1, 1]
        t = model.knots()
        for k, (left, right) in model._shapes.items():
            assert model.knot_shapes(k)[0] is left and model.knot_shapes(k)[1] is right
            assert not left.flags.writeable and not right.flags.writeable
            assert left.shape == right.shape == t["knots"].shape
            assert (left is right) == (kind == "lomax")

    @given(limits=st.lists(st.tuples(_SIGNED_LIMITS, _SIGNED_LIMITS), min_size=1, max_size=10),
           smooth=st.booleans())
    @example(limits=[(-0.0, 0.0), (0.0, -0.0), (math.nan, 1.0), (-math.inf, 1.0), (-1.0, math.inf)],
             smooth=False)
    def test_scan_over_both_sides_finds_the_interleaved_roots(self, limits, smooth):
        """The same roots in the same order as the scan over the limits
        interleaved, with NaN, infinities and zeros of both signs."""
        left, right = (np.array(side) for side in zip(*limits))
        knots = np.arange(1.0, len(limits) + 1.0)
        below = knots if smooth else knots - 0.25
        if smooth:
            left = right

        def derivative(d):  # linear from right[j] at knot j to left[j + 1]
            j = int(np.searchsorted(knots, d, side="right")) - 1
            if j < 0 or j + 1 >= knots.size:
                return -1.0
            return float(np.interp(d, [knots[j], below[j + 1]], [right[j], left[j + 1]]))

        t = {"knots": knots, "below": below}
        with np.errstate(invalid="ignore", over="ignore"):
            got = retention._rising_roots(t, left, right, derivative)[0]
            want = _interleaved_rising_roots(t, left, right, derivative)
        assert _bits(got) == _bits(want)


class TestEffectiveRho:
    def test_constant_and_decreasing(self, model):
        assert effective_rho(model, ConstantLoading(0.3), 100, 1.0) == 0.3
        assert effective_rho(model, DecreasingLoading(0.5), 100, 1.0) == pytest.approx(
            0.05
        )

    def test_stddev_sharpe_product_identity(self, model):
        """The two spread-based loadings are reciprocal in sigma_nu."""
        d, n = 0.9, 64
        sd = effective_rho(model, StdDevLoading(0.5), n, d)
        sh = effective_rho(model, SharpeLoading(0.5), n, d)
        assert sd * sh == pytest.approx(0.25 / n, rel=1e-10)

    @pytest.mark.parametrize("rule", [StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    def test_a_layer_without_a_claim_carries_no_load(self, rule):
        emp = EmpiricalLosses(ParetoII(9.0, 8.0).sample(500, 3))
        top = emp.losses[-1]
        assert effective_rho(emp, rule, 10, top) == 0.0
        assert effective_rho(emp, rule, 10, 2.0 * top) == 0.0
        assert effective_rho(emp, rule, 10, emp.quantile(0.9)) > 0.0
        # a layer with claims but no spread has no spread-dependent rate
        with pytest.raises(DomainError, match="no spread"):
            effective_rho(EmpiricalLosses([3.0, 3.0]), rule, 10, 1.0)
        # nor has an array or a list of retentions one rate
        for model in (emp, ParetoII(9.0, 8.0)):
            for d in (np.array([0.0, 0.3, 2.0]), [0.0, 0.3, 2.0]):
                with pytest.raises(DomainError, match=r"^effective_rho takes one retention, "
                                                      r"got an array of shape \(3,\)$"):
                    effective_rho(model, rule, 10, d)

    @pytest.mark.parametrize("rule", [ConstantLoading(0.3), DecreasingLoading(0.5),
                                      StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    def test_every_rule_refuses_a_retention_that_is_not_one_number_at_least_0(self, rule):
        """A flat rate does not read d, yet a negative, NaN or array
        retention is refused as for the spread rules."""
        for model in (ParetoII(9.0, 8.0), EmpiricalLosses(ParetoII(9.0, 8.0).sample(500, 3))):
            for d in (-1.0, math.nan, np.float64(-0.5)):
                with pytest.raises(DomainError, match="^retention must be nonnegative, got"):
                    effective_rho(model, rule, 10, d)
            with pytest.raises(DomainError, match=r"^effective_rho takes one retention, "
                                                  r"got an array of shape \(2,\)$"):
                effective_rho(model, rule, 10, np.array([1.0, 2.0]))
            assert effective_rho(model, rule, 10, 0.0) >= 0.0


class TestConditionReport:
    def test_pareto_all_pass(self, model):
        checks = condition_report(model, DecreasingLoading(0.5), VAR75, 100)
        assert checks == {"phi_positive": True, "atom_condition": True}
        checks = condition_report(model, StdDevLoading(0.5), VAR75, 100)
        assert checks["tail_index_gt_2"] is True
        checks = condition_report(model, SharpeLoading(0.5), VAR75, 100)
        assert checks["tail_index_in_2_4"] is None or isinstance(
            checks["tail_index_in_2_4"], bool
        )

    def test_sharpe_tail_window(self):
        inside = condition_report(ParetoII(3.0, 8.0), SharpeLoading(0.5), VAR75, 10)
        outside = condition_report(ParetoII(9.0, 8.0), SharpeLoading(0.5), VAR75, 10)
        assert inside["tail_index_in_2_4"] is True
        assert outside["tail_index_in_2_4"] is False

    def test_atom_violation_raises(self, model):
        """Too much probability mass at zero forbids a stationary point."""
        from xolopt.severity import EmpiricalLosses

        x = np.concatenate([np.zeros(60), np.linspace(0.5, 3.0, 40)])
        emp = EmpiricalLosses(x)
        checks = condition_report(emp, DecreasingLoading(0.5), VAR75, 100)
        assert checks["atom_condition"] is False
        with pytest.raises(ConditionViolated):
            solve_retention(emp, DecreasingLoading(0.5), VAR75, 100)

    @pytest.mark.parametrize("rule, most", [(DecreasingLoading(0.5), 354),
                                            (ConstantLoading(0.05), 846)],
                             ids=["decreasing", "constant"])
    def test_flat_rule_atom_boundary(self, rule, most):
        """A flat rate has a stationary retention exactly while the share of
        zero claims is below c^2 / (c^2 + phi^2)."""
        n = 1000
        c = rule.scale(n)
        assert most == math.floor(n * c * c / (c * c + PHI75 * PHI75))
        positive = ParetoII(9.0, 8.0).sample(n, 5)

        def with_zeros(k):
            return EmpiricalLosses(np.concatenate([np.zeros(k), positive[k:]]))

        assert condition_report(with_zeros(most), rule, VAR75, n)["atom_condition"] is True
        assert solve_retention(with_zeros(most), rule, VAR75, n).d_star > 0.0
        assert condition_report(with_zeros(most + 1), rule, VAR75, n)["atom_condition"] is False
        with pytest.raises(AtomConditionViolated):
            solve_retention(with_zeros(most + 1), rule, VAR75, n)


RULES = [ConstantLoading(0.3), DecreasingLoading(0.5), StdDevLoading(0.5), SharpeLoading(0.5)]


@pytest.mark.parametrize("cls", [ConstantLoading, DecreasingLoading, StdDevLoading,
                                 SharpeLoading], ids=lambda c: c.name)
@pytest.mark.parametrize("theta", [0.0, -0.5, math.nan, math.inf])
def test_rule_parameter_must_be_positive_and_finite(cls, theta):
    with pytest.raises(DomainError, match="must be positive and finite"):
        cls(theta)


def _spy_on_moment_grid(monkeypatch) -> list:
    """The retentions of every `ParetoII.moment_grid` call, in order."""
    reads = []
    read = ParetoII.moment_grid

    def spy(self, d):
        reads.append(d)
        return read(self, d)

    monkeypatch.setattr(ParetoII, "moment_grid", spy)
    return reads


class TestRootStepsReadFloats:
    """Root steps read the Lomax moments at one float, not at a 1-element
    array."""

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    def test_solve_retention(self, rule, monkeypatch):
        reads = _spy_on_moment_grid(monkeypatch)
        model = ParetoII(9.0, 8.0)
        sol = solve_retention(model, rule, VAR75, 100)
        # the knot table, built on first use, then Brent's steps in one cell,
        # which start from the table's values at its ends and stop without a
        # step at their last iteration; nothing is read once they are done
        table = reads.pop(0)
        assert isinstance(table, np.ndarray) and table.size == 1000
        assert all(isinstance(d, float) for d in reads)
        assert set(sol.diagnostics.bracket) <= set(model.knots()["knots"])
        assert not set(reads) & set(model.knots()["knots"])
        assert len(reads) == sol.diagnostics.iterations - 1
        assert sol.d_star in reads

    def test_solve_retention_edgeworth(self, monkeypatch):
        reads = _spy_on_moment_grid(monkeypatch)
        model = ParetoII(9.0, 8.0)
        sol = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 25, 3)
        # the knot table, built on first use, whose moments the refined
        # objective at the knots reads
        grid = reads.pop(0)
        assert np.array_equal(grid, model.knots()["knots"])
        # Brent starts from the knots' slopes and stops without a step at
        # its last iteration; the objective at the root is Brent's read
        assert len(reads) == sol.diagnostics.iterations - 1
        assert all(isinstance(d, float) for d in reads)

    def test_flat_root_below_the_first_knot(self, monkeypatch):
        """At delta = 1e-3 the critical quantile d2 lies below the first
        knot: d2 is the cell's lower end and is read, the knot is not."""
        model = ParetoII(9.0, 8.0)
        first = model.knots()["knots"][0]
        reads = _spy_on_moment_grid(monkeypatch)
        sol = solve_retention(model, DecreasingLoading(1e-3), VAR75, 1)
        d2 = sol.diagnostics.bracket[0]
        assert d2 < sol.d_star < sol.diagnostics.bracket[1] == first
        # d2, then Brent's steps, which stop without one at the last iteration
        assert reads[0] == d2 and len(reads) == sol.diagnostics.iterations
        assert first not in reads and sol.d_star in reads

    def test_flat_root_above_the_last_knot(self, monkeypatch):
        """constant 0.3, gini:0.5, N = 1000: the flat condition is negative at
        every knot, and `expand_and_solve` doubles out from the last one,
        starting from the table's value there."""
        model = ParetoII(9.0, 8.0)
        rule, measure = ConstantLoading(0.3), DistortionMeasure("gini", 0.5)
        knots = model.knots()["knots"]
        assert np.all(stationarity_function(model, rule, measure, 1000, knots) < 0.0)
        last = knots[-1]
        reads = _spy_on_moment_grid(monkeypatch)
        sol = solve_retention(model, rule, measure, 1000)
        assert sol.diagnostics.bracket[0] == last < sol.d_star < sol.diagnostics.bracket[1]
        # the upper probe, then Brent's steps; the last knot is not read
        assert len(reads) == sol.diagnostics.iterations and last not in reads
        assert sol.d_star == 39.13185844454271
        fresh = abs(stationarity_function(model, rule, measure, 1000, sol.d_star))
        assert sol.diagnostics.stationarity_residual == fresh

    def test_flat_root_with_the_critical_quantile_past_the_last_knot(self):
        """rho = 1 at N = 10^7: d2 itself lies past the last knot, and the
        bracket doubles out from d2."""
        model = ParetoII(9.0, 8.0)
        rule = ConstantLoading(1.0)
        sol = solve_retention(model, rule, VAR75, 10 ** 7)
        d2 = sol.diagnostics.bracket[0]
        assert model.knots()["knots"][-1] < d2 < sol.d_star
        assert d2 == model.upper_quantile(retention._atom_level(rule, VAR75, 10 ** 7))
        assert sol.d_star == pytest.approx(5317.145763461613, rel=1e-12)
        fresh = abs(stationarity_function(model, rule, VAR75, 10 ** 7, sol.d_star))
        assert sol.diagnostics.stationarity_residual == fresh


# the Lomax model and a 2000-claim plug-in model, each keeping its knot table
MODELS = {"lomax": ParetoII(9.0, 8.0),
          "empirical": EmpiricalLosses(ParetoII(9.0, 8.0).sample(2000, 3))}


def _spy_on_reads(monkeypatch) -> list:
    """(name, retention) of every `moment_grid` call at one retention, on
    both models, in order."""
    reads = []

    def spy(name, read):
        def wrapped(self, d, *args):
            if np.ndim(d) == 0:
                reads.append((name, float(d)))
            return read(self, d, *args)
        return wrapped

    for cls in (ParetoII, EmpiricalLosses):
        monkeypatch.setattr(cls, "moment_grid", spy("moment_grid", cls.moment_grid))
    return reads


class TestRootSearchReadsEachRetentionOnce:
    """Brent starts from the end values its caller holds and returns the
    value at its root: a root search reads the first-order condition once at
    each retention, and the residual is that read."""

    @pytest.mark.parametrize("measure", [VAR75, DistortionMeasure("es", 0.9)],
                             ids=lambda m: m.describe())
    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    @pytest.mark.parametrize("kind", MODELS)
    def test_residual_is_the_condition_at_the_root(self, kind, rule, measure):
        model = MODELS[kind]
        sol = solve_retention(model, rule, measure, 100)
        fresh = abs(stationarity_function(model, rule, measure, 100, sol.d_star))
        assert sol.diagnostics.stationarity_residual.hex() == fresh.hex()

    def test_residual_of_a_kink_root_below_a_claim_is_the_condition_there(self):
        """A kink root is taken at the float below a claim when the
        derivative's left-hand limit there is the smaller in size; its
        residual is the function read at that float, in the cell below the
        claim, not the limit, which agrees only to rounding."""
        emp = EmpiricalLosses(ParetoII(9.0, 8.0).sample(2000, 1))
        rule, measure = SharpeLoading(0.5), DistortionMeasure("es", 0.9)
        sol = solve_retention(emp, rule, measure, 10)
        t, left, _ = retention._knot_sides(emp, rule, measure.phi_normal(), 10)
        (j,) = np.flatnonzero(t["below"] == sol.d_star)
        assert sol.diagnostics.bracket == (t["below"][j], t["knots"][j])
        fresh = abs(stationarity_function(emp, rule, measure, 10, sol.d_star))
        assert sol.diagnostics.stationarity_residual.hex() == fresh.hex()
        assert fresh == 4.559806589210513e-05
        assert abs(left[j]) == pytest.approx(fresh, rel=1e-9) and abs(left[j]) != fresh

    def test_residual_of_a_kink_root_below_the_first_knot(self):
        """Below the first knot the cell has no knot under it: the residual
        at the float below the first claim is read with the count of the
        losses under it, the zeros."""
        emp = EmpiricalLosses(np.concatenate([np.zeros(2), np.linspace(1.0, 2.0, 6)]))
        t = emp.knots()
        left, right = np.array([-1e-3, 1.0]), np.array([1.0, 2.0])
        roots, _ = retention._rising_roots(
            {"knots": t["knots"][:2], "below": t["below"][:2]}, left, right,
            lambda d: emp.moment_grid(d)["mu1"])
        (root,) = roots
        assert root.root == t["below"][0] and root.iterations == 0
        assert root.residual == emp.moment_grid(t["below"][0])["mu1"] == 0.75 * t["below"][0]

    @pytest.mark.parametrize("measure", [VAR75, DistortionMeasure("es", 0.9)],
                             ids=lambda m: m.describe())
    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    @pytest.mark.parametrize("kind", MODELS)
    def test_objective_and_loading_are_those_at_the_root(self, kind, rule, measure):
        """Taken from the moments the search holds, they are the bits that
        `objective` and `effective_rho` read afresh at d_star."""
        model = MODELS[kind]
        sol = solve_retention(model, rule, measure, 100)
        fresh = objective(model, rule, measure, 100, sol.d_star)
        assert sol.objective_value.hex() == fresh.hex()
        rate = effective_rho(model, rule, 100, sol.d_star)
        assert sol.diagnostics.effective_rho.hex() == rate.hex()

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    @pytest.mark.parametrize("kind", MODELS)
    def test_no_retention_is_read_twice(self, kind, rule, monkeypatch):
        model = MODELS[kind]
        t = model.knots()
        reads = _spy_on_reads(monkeypatch)
        sol = solve_retention(model, rule, VAR75, 100)
        points = [d for _, d in reads]
        assert len(points) == len(set(points))
        if kind == "lomax":
            # only Brent's steps in the root's cell, which start from the
            # table's values at its ends: no knot is read, and nothing once
            # the search is done
            steps = [d for what, d in reads if what == "moment_grid"]
            assert len(steps) == sol.diagnostics.iterations - 1
            assert sol.d_star in steps and not set(steps) & set(t["knots"])
        elif rule.spread_dependent:
            # the float below the smallest claim, the range's lower end, is
            # no row of the table: its objective is read once
            assert ("moment_grid", float(t["below"][0])) in reads


class TestKnotSearch:
    """The spread-rule and Edgeworth solves share one knot search, which
    keeps the rising root of lowest objective or the first one."""

    LUMP = [0.0] * 1999 + [5.0]  # no positive claim up to the 0.999 quantile

    @pytest.mark.parametrize("rule", [StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda r: r.name)
    def test_spread_solve_on_a_sample_without_knots(self, rule):
        emp = EmpiricalLosses(self.LUMP)
        assert emp.knots()["knots"].size == 0
        with pytest.raises(NoRootFound) as err:
            solve_retention(emp, rule, VAR75, 10)
        assert str(err.value) == "no positive claim up to the 0.999 quantile"

    @pytest.mark.parametrize("order", [2, 3])
    def test_edgeworth_solve_on_a_sample_without_knots(self, order):
        with pytest.raises(NoRootFound) as err:
            solve_retention_edgeworth(EmpiricalLosses(self.LUMP), ConstantLoading(0.3), 0.75,
                                      10, order)
        assert str(err.value) == "no positive claim up to the 0.999 quantile"

    def test_spread_message(self, model):
        with pytest.raises(NoRootFound) as err:
            solve_retention(model, SharpeLoading(1.0), DistortionMeasure.wang(0.5), 100)
        assert str(err.value) == (
            "no local minimum of the search range is below both of its ends; "
            "no interior optimal retention (trivial full or no reinsurance)")

    def test_edgeworth_message(self, model):
        with pytest.raises(NoRootFound) as err:
            solve_retention_edgeworth(model, ConstantLoading(0.5), 0.75, 25, 3)
        assert str(err.value) == "refined objective has no interior dip on [8.88938e-05, 29.1327]"

    # a piecewise-linear derivative that rises through zero at 1.5 and at
    # 3.5, where the objective is lower; the ends cost 5 and 6
    TABLE = {"knots": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
    TABLE["below"] = TABLE["knots"]
    SLOPES = np.array([-1.0, 1.0, -1.0, 1.0, 1.0])
    COSTS = {1.0: 5.0, 1.5: 3.0, 3.5: 1.0, 5.0: 6.0}

    def _search(self, lowest, costs=COSTS):
        t = self.TABLE
        return retention._knot_search(
            t, self.SLOPES, self.SLOPES, lambda d: np.interp(d, t["knots"], self.SLOPES),
            lambda d: (costs[round(d, 9)], d), lowest)

    def test_lowest_keeps_the_root_of_least_cost(self):
        best, smallest, (cost, at) = self._search(True)
        assert (best.root, smallest, cost, at) == pytest.approx((3.5, 1.5, 1.0, best.root))

    def test_first_keeps_the_first_root(self):
        best, smallest, (cost, at) = self._search(False)
        assert (best.root, smallest, cost, at) == pytest.approx((1.5, 1.5, 3.0, best.root))

    def test_lowest_raises_where_an_end_is_lower(self):
        with pytest.raises(NoRootFound, match="no local minimum"):
            self._search(True, {**self.COSTS, 5.0: 0.5})


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
class TestLoadingFamily:
    """Every rule loads the ceded mean by c(N) nu1 sigma^k; the marginal load
    and its gradient are derived once for the family."""

    N = 25

    @pytest.mark.parametrize("d", [0.2, 1.0, 4.0])
    def test_rate_is_the_load_per_unit_ceded_mean(self, model, rule, d):
        """The rates of the README table, and the load sqrt(N) * rate * nu1."""
        g = model.moment_grid(d)
        spread = math.sqrt(g["nu2"] - g["nu1"] ** 2)
        root_n = math.sqrt(self.N)
        expected = {"constant": 0.3, "decreasing": 0.5 / root_n,
                    "stddev": 0.5 * spread / root_n, "sharpe": 0.5 / (spread * root_n)}
        assert effective_rho(model, rule, self.N, d) == pytest.approx(
            expected[rule.name], rel=1e-14)
        assert rule.load(self.N, g["nu1"], spread) == pytest.approx(
            root_n * expected[rule.name] * g["nu1"], rel=1e-14)
        if not rule.spread_dependent:  # reads no spread
            assert rule.load(self.N, g["nu1"], math.nan) == rule.scale(self.N) * g["nu1"]
        assert rule.load(self.N, np.float64(0.0), np.float64(0.0)) == 0.0  # no claim, no load

    @pytest.mark.parametrize("d", [0.2, 1.0, 4.0])
    def test_marginal_load_is_the_derivative_of_the_load(self, model, rule, d):
        def load(x):
            g = model.moment_grid(x)
            return rule.load(self.N, g["nu1"], math.sqrt(g["nu2"] - g["nu1"] ** 2))

        h = 1e-5 * d
        numeric = (load(d + h) - load(d - h)) / (2.0 * h)
        g = model.moment_grid(d)
        got = rule.marginal_load(self.N, g["sbar"], g["nu1"], g["nu2"])
        assert got == pytest.approx(numeric, rel=1e-7)

    @pytest.mark.parametrize("d", [0.2, 1.0, 4.0])
    def test_load_gradient_is_the_gradient_of_the_marginal_load(self, model, rule, d):
        g = model.moment_grid(d)
        point = np.array([g["sbar"], g["nu1"], g["nu2"]])
        grad = rule.load_gradient(self.N, *point)
        scale = abs(rule.marginal_load(self.N, *point))
        for j in range(3):
            h = 1e-6 * point[j]
            up, down = point.copy(), point.copy()
            up[j] += h
            down[j] -= h
            numeric = (rule.marginal_load(self.N, *up)
                       - rule.marginal_load(self.N, *down)) / (2.0 * h)
            assert grad[j] == pytest.approx(numeric, rel=1e-6, abs=1e-12 * scale / point[j])


class TestEdgeworth:
    """Higher-order quantile corrections for the constant loading rule."""

    REFS_O1 = {10: 1.6276, 25: 2.9634, 100: 6.3361}
    REFS_O3 = {10: 1.5921, 25: 2.9969, 100: 6.6660}

    @pytest.mark.parametrize("n", [10, 25, 100])
    def test_second_order_reference_optima(self, model, n):
        sol = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, n, 2)
        assert sol.d_star == pytest.approx(self.REFS_O1[n], abs=1e-2)

    @pytest.mark.parametrize("n", [10, 25, 100])
    def test_third_order_reference_optima(self, model, n):
        sol = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, n, 3)
        assert sol.d_star == pytest.approx(self.REFS_O3[n], abs=1e-2)

    def test_higher_order_shrinks_normal_approximation_gap(self, model):
        """Reference actual at N=100 is 7.1241; each order closes in on it."""
        actual = 7.1241
        plain = solve_retention(model, ConstantLoading(0.3), VAR75, 100).d_star
        order2 = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 100, 2).d_star
        order3 = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 100, 3).d_star
        assert abs(order2 - actual) < abs(plain - actual)
        assert abs(order3 - actual) < abs(order2 - actual)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n", [10, 25, 100])
    def test_slope_is_the_derivative_of_the_objective(self, model, n, order):
        rule = ConstantLoading(0.3)
        d = np.geomspace(0.3, 20.0, 150)
        h = 1e-5 * d
        up, down = (edgeworth_objective(model, rule, 0.75, n, order, d + s * h) for s in (1, -1))
        numeric = (up - down) / (2.0 * h)
        slope = retention._edgeworth(model, rule, 0.75, n, order, d)[1]
        scale = np.maximum(np.abs(slope), 1e-3 * n)
        assert np.max(np.abs(slope - numeric) / scale) < 1e-6

    def test_optima_are_stable_under_slope_rounding(self, model, monkeypatch):
        """A relative error of one ulp in the slope moves no optimum by more
        than 1e-12."""
        cases = [(n, order) for n in (10, 25, 100) for order in (2, 3)]
        rule = ConstantLoading(0.3)
        exact = [solve_retention_edgeworth(model, rule, 0.75, n, order).d_star
                 for n, order in cases]
        rng = np.random.default_rng(20)
        edgeworth = retention._edgeworth

        def rounded(*args):
            value, slope = edgeworth(*args)
            return value, slope * (1.0 + 2.2e-16 * rng.standard_normal(np.shape(slope)))

        monkeypatch.setattr(retention, "_edgeworth", rounded)
        for (n, order), want in zip(cases, exact):
            for _ in range(5):
                got = solve_retention_edgeworth(model, rule, 0.75, n, order).d_star
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, order", [(10, 2), (100, 3)])
    def test_diagnostics_report_the_stationary_point(self, model, n, order):
        sol = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, n, order)
        diag = sol.diagnostics
        assert math.isfinite(diag.stationarity_residual)
        assert diag.stationarity_residual < 1e-9 * n
        assert diag.smallest_stationary_point == sol.d_star
        lo, hi = diag.bracket
        assert lo <= sol.d_star <= hi

    @pytest.mark.parametrize("rho, n, order, d_star, lowest", [
        (0.3, 100, 3, 6.6675, True),
        # the refined objective is lowest at the top grid edge (29.13), but
        # the first dip is the one kept
        (0.5, 10, 3, 3.8237, False),
    ])
    def test_global_flag_reads_the_grid(self, model, rho, n, order, d_star, lowest):
        sol = solve_retention_edgeworth(model, ConstantLoading(rho), 0.75, n, order)
        assert sol.d_star == pytest.approx(d_star, abs=1e-4)
        assert sol.diagnostics.is_global_grid_min is lowest

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n", [10, 25, 100])
    def test_objective_value_is_the_objective_at_the_root(self, model, n, order):
        """The value Brent's method read with the slope at the root is the
        objective there, bit for bit."""
        rule = ConstantLoading(0.3)
        sol = solve_retention_edgeworth(model, rule, 0.75, n, order)
        assert sol.objective_value == edgeworth_objective(model, rule, 0.75, n, order, sol.d_star)

    def test_root_on_a_knot_takes_the_tables_value(self, model, monkeypatch):
        """Where the table's slope is 0 at the lower knot of the rising cell,
        Brent's method returns that knot without a read, and the objective
        value is the table's value there."""
        edgeworth, held, reads = retention._edgeworth, {}, []

        def zero_at_the_dip(*args):
            value, slope = edgeworth(*args)
            if np.ndim(slope) == 0:
                reads.append(args[-1])
                return value, slope
            j = int(np.flatnonzero((slope[:-1] <= 0.0) & (slope[1:] > 0.0))[0])
            held.update(j=j, value=value[j])
            slope = slope.copy()
            slope[j] = 0.0
            return value, slope

        monkeypatch.setattr(retention, "_edgeworth", zero_at_the_dip)
        sol = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 25, 3)
        assert sol.d_star == model.knots()["knots"][held["j"]]
        assert sol.diagnostics.iterations == 0 and not reads
        assert sol.objective_value == held["value"]

    def test_rejects_unknown_order(self, model):
        with pytest.raises(DomainError):
            solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 10, 5)

    @pytest.mark.parametrize("n, order", [(10, 2), (25, 3), (100, 3)])
    def test_grid_values_match_one_point_calls(self, model, n, order):
        rule = ConstantLoading(0.3)
        grid = log_spaced_grid(model.quantile(1e-4), model.quantile(1.0 - 1e-6), 200)
        values = edgeworth_objective(model, rule, 0.75, n, order, grid)
        alone = [edgeworth_objective(model, rule, 0.75, n, order, float(d)) for d in grid]
        np.testing.assert_array_equal(values, alone)
        # Brent reads the slope again at the ends of the cell the grid chose
        slopes = retention._edgeworth(model, rule, 0.75, n, order, grid)[1]
        alone = [retention._edgeworth(model, rule, 0.75, n, order, float(d))[1] for d in grid]
        np.testing.assert_array_equal(slopes, alone)

    def test_sample_without_capped_variance_at_the_first_knot(self):
        """The empirical knots start at the smallest positive claim, where
        min(X, d) is constant: the solve raises, and the message names that
        retention and the ends of the knots."""
        emp = EmpiricalLosses(ParetoII(9.0, 8.0).sample(2000, 3))
        with pytest.raises(DegenerateVariance) as err:
            solve_retention_edgeworth(emp, ConstantLoading(0.3), 0.75, 25, 3)
        lo, hi, size = emp.losses[0], emp.quantile(0.999), emp.knots()["knots"].size
        assert str(err.value) == (f"capped loss at d={lo} has zero variance (the first "
                                  f"such point of {size} retentions from {lo} to {hi})")

    def test_knots_are_read_in_one_call(self, model, monkeypatch):
        """One call reads the 1000 knots; only the Brent steps are read one
        at a time, and nothing after the last of them."""
        sizes = []
        read = ParetoII.higher_truncated_moments

        def spy(self, d):
            sizes.append(np.size(d))
            return read(self, d)

        monkeypatch.setattr(ParetoII, "higher_truncated_moments", spy)
        sol = solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 25, 3)
        assert sizes[0] == 1000
        assert sizes[1:] == [1] * (sol.diagnostics.iterations - 1)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n", [10, 25, 100])
    def test_knots_keep_the_optimum_of_the_200_point_grid(self, model, n, order):
        """The solve reads the model's 1000 knots; the 200-point log grid
        over the same range, which it read before, gives the same first
        rising root to 1e-13."""
        rule = ConstantLoading(0.3)
        grid = log_spaced_grid(model.quantile(1e-4), model.quantile(1.0 - 1e-6), 200)
        slopes = retention._edgeworth(model, rule, 0.75, n, order, grid)[1]
        roots, _ = retention._rising_roots(
            {"knots": grid, "below": grid}, slopes, slopes,
            lambda d: retention._edgeworth(model, rule, 0.75, n, order, d)[1])
        sol = solve_retention_edgeworth(model, rule, 0.75, n, order)
        assert sol.d_star == pytest.approx(roots[0].root, rel=1e-13, abs=0.0)
        assert sol.diagnostics.is_global_grid_min


class TestStopLoss:
    def test_frozen_baseline(self, model):
        assert stop_loss_retention(model, 0.2, 0.75) == pytest.approx(
            0.163716285415, abs=1e-9
        )

    def test_loading_too_generous(self, model):
        """No finite retention when the premium beats the tail risk."""
        with pytest.raises(ConditionNotMet):
            stop_loss_retention(model, 5.0, 0.75)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -0.2])
    def test_rejects_a_loading_that_is_not_positive_and_finite(self, model, rho):
        with pytest.raises(DomainError, match="positive and finite"):
            stop_loss_retention(model, rho, 0.75)

    def test_monotone_in_loading(self, model):
        vals = [stop_loss_retention(model, rho, 0.75) for rho in (0.1, 0.2, 0.3)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
