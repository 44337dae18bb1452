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
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

import numpy as np

from .distortion import DistortionMeasure, normal_quantile
from .errors import (
    AtomConditionViolated,
    ConditionNotMet,
    DomainError,
    NonpositivePhi,
    NoRootFound,
)
from .numerics import RootResult, brentq, expand_and_solve
from .severity import EmpiricalLosses, ParetoII, SeverityModel, _retentions, load_shape

class LoadingRule:
    """A premium principle: the loading rate on the ceded mean,

        rate(N, sigma) = theta * sigma**k / sqrt(N),

    for a portfolio of N contracts whose ceded layer has spread (standard
    deviation) sigma.  theta is the rule's one positive parameter and k its
    `spread_power`: 0 for the decreasing rule, 1 for the standard-deviation
    rule and -1 for the Sharpe-ratio rule.  The constant rule has k = 0 and
    a rate that does not fall as 1/sqrt(N) (`falls_with_n` False).

    Every objective reads the rule through the ceded loading, sqrt(N) times
    the rate times the ceded mean nu1:

    - load(n, nu1, sigma) = c(N) * nu1 * sigma**k, with c(N) = theta, or
      theta * sqrt(N) for a rate that does not fall;
    - marginal_load(n, sbar, nu1, nu2): its derivative in d,
      -c(N) * (sbar sigma**k + k (1 - sbar) nu1**2 sigma**(k-2)), written in
      the moments at d (at d = 0 it decides the atom condition); the factor
      after -c(N) is `severity.load_shape`, which depends on the rule only
      through k;
    - load_gradient(n, sbar, nu1, nu2): the gradient of the marginal load in
      those three moments, for the delta-method standard error.

    A flat rate (k = 0) ignores the spread, and the optimum is the root of a
    stationarity quadratic; a spread-dependent rate is solved from the zero
    crossings of the objective derivative.  A spread-dependent rule also
    names its tail-index condition in `tail_check`: the check's name and the
    open range of the tail index.
    """

    spread_power = 0
    falls_with_n = True
    tail_check = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class attribute, so that it can be read from the class itself
        cls.spread_dependent = cls.spread_power != 0
        (param,) = cls.__annotations__
        cls.theta = property(attrgetter(param), doc="The rule's one parameter.")

    def __post_init__(self):
        (param,) = fields(self)
        if not 0.0 < self.theta < math.inf:
            raise DomainError(f"{param.name} must be positive and finite, got {self.theta}")

    def scale(self, n: int) -> float:
        """c(N), the coefficient of the load."""
        return self.theta if self.falls_with_n else self.theta * math.sqrt(n)

    def rate(self, n: int, spread: float = 1.0) -> float:
        """Loading rate on the ceded mean at portfolio size n (a flat rate
        ignores the spread)."""
        rate = self.theta * spread ** self.spread_power
        return rate / math.sqrt(n) if self.falls_with_n else rate

    def load(self, n: int, nu1, spread):
        c, k = self.scale(n), self.spread_power
        if not k:
            return c * nu1
        # infinite where a ratio load meets a layer without spread, except a
        # layer without a claim, which carries no load
        with np.errstate(divide="ignore", invalid="ignore"):
            load = c * nu1 * np.power(spread, k)
        return np.where(nu1 == 0.0, 0.0, load) if k < 0 else load

    def marginal_load(self, n: int, sbar, nu1, nu2):
        # runs at every root-finding step, so it leaves masking the warnings
        # of a layer without spread to its callers
        return -self.scale(n) * load_shape(self.spread_power, sbar, nu1, nu2)

    def load_gradient(self, n: int, sbar, nu1, nu2) -> tuple[float, float, float]:
        k, c = self.spread_power, self.scale(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = np.sqrt(nu2 - nu1 ** 2)
            low, lower = spread ** (k - 2), spread ** (k - 4)
            tail = (k - 2) * (1.0 - sbar) * nu1 ** 2 * lower
            return (
                c * (_times(k, nu1 ** 2 * low) - spread ** k),
                c * _times(-k, nu1 * ((2.0 - 3.0 * sbar) * low - tail)),
                c * _times(-k, 0.5 * (sbar * low + tail)),
            )


def _times(k: int, x):
    """k * x, and exactly 0 for k = 0 even where x is not finite (a flat
    rate at a layer without spread)."""
    return k * x if k else 0.0


@dataclass(frozen=True)
class ConstantLoading(LoadingRule):
    """Premium loading that stays fixed as the portfolio grows."""

    rho: float

    name = "constant"
    falls_with_n = False


@dataclass(frozen=True)
class DecreasingLoading(LoadingRule):
    """Loading delta/sqrt(N), vanishing as the portfolio grows."""

    delta: float

    name = "decreasing"


@dataclass(frozen=True)
class StdDevLoading(LoadingRule):
    """Loading proportional to the ceded standard deviation."""

    rho0: float

    name = "stddev"
    spread_power = 1
    tail_check = ("tail_index_gt_2", 2.0, math.inf)


@dataclass(frozen=True)
class SharpeLoading(LoadingRule):
    """Loading that fixes the Sharpe ratio of the ceded premium."""

    rho0: float

    name = "sharpe"
    spread_power = -1
    tail_check = ("tail_index_in_2_4", 2.0, 4.0)


#: The loading rules by name.
_RULES = {cls.name: cls for cls in (ConstantLoading, DecreasingLoading, StdDevLoading,
                                    SharpeLoading)}

#: The names of the rules whose rate falls as 1/sqrt(N), which have a
#: nondegenerate large-sample limit: the rules `inference.estimate` and
#: `retention_curve` take.
ESTIMATED_RULES = tuple(name for name, cls in _RULES.items() if cls.falls_with_n)


@dataclass(frozen=True)
class SolverDiagnostics:
    """How a solve found d_star.

    - `bracket`: the cell that holds d_star; (d2, d2) where a flat root
      collapses onto the critical quantile d2, (claim, inf) above the
      largest claim.
    - `iterations`: Brent's steps in that cell, with the doublings past the
      last Lomax knot; 0 for a closed form or a kink root.
    - `stationarity_residual`: the size of the first-order condition at
      d_star, as the search read it.
    - `is_global_grid_min`: True by construction for `solve_retention`,
      which returns only the lowest point of its search range; read off
      the knot values for `solve_retention_edgeworth`.
    - `condition_checks`: the checks of `condition_report`.
    - `smallest_stationary_point`: the first rising root (d_star for the
      flat rules and the Edgeworth solve).
    - `effective_rho`: the loading rate applied at d_star.
    """

    bracket: tuple[float, float]
    iterations: int
    stationarity_residual: float
    is_global_grid_min: bool
    condition_checks: dict
    smallest_stationary_point: float | None = None
    effective_rho: float | None = None


@dataclass(frozen=True)
class RetentionSolution:
    """The optimal retention, with `moments`, the model's `moment_grid`
    moments at d_star as the solve read them (None for the Edgeworth
    solve): the estimate's linearisation reuses them, and no JSON output
    carries them."""

    d_star: float
    objective_value: float
    rule: LoadingRule
    measure: DistortionMeasure
    n_contracts: int
    diagnostics: SolverDiagnostics
    moments: dict | None = field(default=None, repr=False, compare=False)

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
    """Premium loading actually applied at retention d, which must be one
    retention >= 0 whatever the rule: 0 for a spread rule on a layer without
    a claim, which carries no load.  A spread rule reads `model.moment_grid`
    at d; a flat rate does not depend on it."""
    d, scalar = _retentions(d)
    if not scalar:
        raise DomainError(f"effective_rho takes one retention, got an array of shape {d.shape}")
    if not rule.spread_dependent:
        return rule.rate(n)
    g = model.moment_grid(d)
    return _spread_rate(rule, n, d, g["nu1"], g["nu2"])


def _spread_rate(rule: LoadingRule, n: int, d: float, nu1: float, nu2: float) -> float:
    """A spread rule's `effective_rho` from the ceded moments at d."""
    nu1, nu2 = float(nu1), float(nu2)
    if nu1 == 0.0:
        return 0.0
    spread = nu2 - nu1 ** 2
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
    d, scalar = _retentions(d)
    out = _objective(rule, phi, n, model.mean(), model.moment_grid(d))
    return float(out) if scalar else out


def _objective(rule: LoadingRule, phi: float, n: int, mean: float, g):
    """The objective from the moments g at d."""
    sd_capped = np.sqrt(np.maximum(g["var"], 0.0))
    spread = np.sqrt(np.maximum(g["nu2"] - g["nu1"] * g["nu1"], 0.0))
    return n * mean + math.sqrt(n) * (phi * sd_capped + rule.load(n, g["nu1"], spread))


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
    d, scalar = _retentions(d)
    g = model.moment_grid(d)
    if not rule.spread_dependent:
        out = _flat_condition((rule.scale(n) / phi) ** 2, g)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _derivative(rule, phi, n, g["sbar"], g)
    return float(out) if scalar else out


def _flat_condition(q: float, g: dict):
    """The flat rules' stationarity function from the moments g at d, with
    q = (c(N)/phi)^2."""
    return g["gap"] * g["gap"] - q * g["var"]


def _derivative(rule: LoadingRule, phi: float, n: int, sbar, g: dict):
    """The spread rules' stationarity function, the scaled objective
    derivative, from the moments g at d; sbar is passed apart, so that the
    two sides of a claim share the rest of the moments."""
    return _capped_slope(phi, sbar, g) + rule.marginal_load(n, sbar, g["nu1"], g["nu2"])


def _capped_slope(phi: float, sbar, g: dict):
    """The capped term's part of the scaled objective derivative."""
    return phi * sbar * g["gap"] / np.sqrt(g["var"])


def _validate_n(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"portfolio size must be a positive integer, got {n}")


def _atom_level(rule: LoadingRule, measure: DistortionMeasure, n: int) -> float:
    """Largest mass at zero that leaves a flat-rate rule a stationary root."""
    c = rule.scale(n)
    phi = _phi_or_raise(measure)
    return c * c / (c * c + phi * phi)


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
    if rule.tail_check is not None:
        name, lo, hi = rule.tail_check
        tail = model.shape if isinstance(model, ParetoII) else None
        checks[name] = None if tail is None else bool(lo < tail < hi)
    # with a mass p0 at zero, the objective must fall just above d = 0: the
    # capped term's slope there against the marginal load of the whole loss
    # (for a flat rate, p0 < c^2 / (c^2 + phi^2))
    p0 = model.prob_zero()
    if p0 <= 0.0:
        checks["atom_condition"] = True
        return checks
    sbar0 = 1.0 - p0
    with np.errstate(divide="ignore", invalid="ignore"):  # all-zero losses have no spread
        load = rule.marginal_load(n, sbar0, model.mean(), model.second_moment())
    checks["atom_condition"] = bool(phi * math.sqrt(sbar0 * p0) < -load)
    return checks


def solve_retention(
    model: SeverityModel,
    rule: LoadingRule,
    measure: DistortionMeasure,
    n: int,
) -> RetentionSolution:
    """Approximately optimal retention for the given model, rule, and measure.

    Every rule's optimum is a root of the first-order condition
    (`stationarity_function`).  Constant/decreasing rules: its unique root
    above the critical quantile, bracketed on the `ParetoII` knot table
    (`_flat_root_on_knots`), or in closed form between two claims of
    `EmpiricalLosses` (`_flat_root_on_claims`); AtomConditionViolated when
    the mass at zero leaves none.  Stddev/sharpe rules: the knot search
    shared with `solve_retention_edgeworth` (`_knot_search`) keeps the
    point of lowest objective where the scaled derivative rises through
    zero; NoRootFound when there is none or an end of the search range is
    lower still.  One pass over the model's `knots()` table gives the
    derivative's limits on both sides of every knot (`_knot_sides`), and
    Brent's method runs on `model.moment_grid` at one float in each cell
    where it rises.  The Lomax knots are a 1000-point log grid; the
    empirical knots are the distinct positive claims up to the 0.999
    quantile.

    The objective value and `effective_rho` come from the moments the
    search read at each point, or the table's row there: a Lomax solve
    reads no retention once its search is done, and an empirical one only
    the spread rules' lower range end, the float below the smallest claim.
    The moments at d_star go with the solution as `moments`.
    """
    _validate_n(n)
    phi = _phi_or_raise(measure)
    checks = condition_report(model, rule, measure, n)

    if not rule.spread_dependent:
        if not checks["atom_condition"]:
            raise AtomConditionViolated(
                "mass at zero is too large for a stationary retention: "
                f"P(X=0) = {model.prob_zero():g} >= {_atom_level(rule, measure, n):g}"
            )
        d2 = model.upper_quantile(_atom_level(rule, measure, n))
        q = (rule.scale(n) / phi) ** 2
        if isinstance(model, EmpiricalLosses):
            best, moments = _flat_root_on_claims(model, q, d2)
        else:
            best, moments = _flat_root_on_knots(model, q, d2)
        value = float(_objective(rule, phi, n, model.mean(), moments))
        first, rate = best.root, rule.rate(n)
    else:
        t, left, right = _knot_sides(model, rule, phi, n)
        read = {}

        def derivative(d):
            m = read[d] = model.moment_grid(d)
            return float(_derivative(rule, phi, n, m["sbar"], m))

        def cost(d):  # from the moments the search read or the table holds
            g = _moments_at(model, t, read, d)
            return float(_objective(rule, phi, n, model.mean(), g)), g

        best, first, (value, moments) = _knot_search(t, left, right, derivative, cost, lowest=True)
        rate = _spread_rate(rule, n, best.root, moments["nu1"], moments["nu2"])
    return _solution(best, first, value, moments, rule, measure, n, checks, rate)


def _solution(best: RootResult, first: float, value: float, moments: dict | None,
              rule: LoadingRule, measure: DistortionMeasure, n: int, checks: dict,
              rate: float, global_min: bool = True) -> RetentionSolution:
    """A solve's result at its root `best`, with the diagnostics, whose
    `is_global_grid_min` is `global_min`."""
    diag = SolverDiagnostics(best.bracket, best.iterations, abs(best.residual), global_min,
                             checks, first, rate)
    return RetentionSolution(best.root, value, rule, measure, n, diag, moments)


def _knot_search(t: dict, left: np.ndarray, right: np.ndarray, derivative, cost,
                 lowest: bool) -> tuple[RootResult, float, tuple]:
    """The root a knot-table solve keeps, the first rising root, and
    cost(d) at the kept root: a pair whose first entry is the objective at
    d, from what the search read or the table holds.

    The roots are those of `_rising_roots` on the table t.  With `lowest`
    (the spread rules) the root of lowest objective is kept; NoRootFound
    when an end of the search range is lower still.  Otherwise (the
    Edgeworth solve) the first root is kept: the refined objective can dip
    below the interior basin far in the tail, where the expansion is no
    longer a valid quantile, so the first interior dip is the solution.
    """
    if t["knots"].size == 0:
        raise NoRootFound("no positive claim up to the 0.999 quantile")
    roots, (lo, hi) = _rising_roots(t, left, right, derivative)
    if not lowest:
        if not roots:
            raise NoRootFound(f"refined objective has no interior dip on [{lo:g}, {hi:g}]")
        return roots[0], roots[0].root, cost(roots[0].root)
    if roots:
        costs = [cost(d) for d in (lo, *(r.root for r in roots), hi)]
        k = int(np.argmin([c[0] for c in costs]))
    if not roots or k in (0, len(costs) - 1):
        raise NoRootFound(
            "no local minimum of the search range is below both of its ends; "
            "no interior optimal retention (trivial full or no reinsurance)"
        )
    return roots[k - 1], roots[0].root, costs[k]


def _moments_at(model: SeverityModel, t: dict, read: dict, d: float) -> dict:
    """The `moment_grid` moments at d: those a root search read there, else
    the moment columns of the knot table t at d, else a read at d (the float
    below the smallest empirical claim, an end of the search range)."""
    if d in read:
        return read[d]
    j = int(np.searchsorted(t["knots"], d))
    if j < t["knots"].size and t["knots"][j] == d:
        return {name: t[name][j] for name in ("sbar", "mu1", "mu2", "gap", "nu1", "nu2", "var")}
    return model.moment_grid(d)


def _flat_root_on_knots(model: SeverityModel, q: float, d2: float) -> tuple[RootResult, dict]:
    """Root above d2 of the flat-rate stationarity function, found on the
    model's knot table, and the moments there.

    The function is read once over the knots above d2.  The first positive
    knot and the knot or d2 below it bracket the root, and Brent's method
    solves that cell from the table's values, so only d2 is read, when it
    is the lower end.  Past the last knot, `expand_and_solve` doubles out
    from it.
    """
    t = model.knots()
    knots = t["knots"]
    read = {}

    def condition(d):
        g = read[d] = model.moment_grid(d)
        return float(_flat_condition(q, g))

    first = int(np.searchsorted(knots, d2, side="right"))  # the first knot above d2
    f = _flat_condition(q, t)
    positive = np.flatnonzero(f[first:] > 0.0)
    if positive.size == 0:  # the root lies past the last knot: double out from it, or from d2
        lo, f_lo = (float(knots[-1]), float(f[-1])) if first < knots.size else (d2, None)
        best = expand_and_solve(condition, lo, max(2.0 * lo, 1.0), f_lo)
        return best, _moments_at(model, t, read, best.root)
    j = first + int(positive[0])
    if j > first:
        lo, f_lo = float(knots[j - 1]), float(f[j - 1])
    else:
        lo, f_lo = d2, condition(d2)
        if f_lo > 0.0:
            # already positive at d2: the root collapses onto the critical quantile
            return RootResult(d2, f_lo, (d2, d2), 0), read[d2]
    hi = float(knots[j])
    root, iterations, residual = brentq(condition, lo, hi, f_lo, float(f[j]))
    return RootResult(root, residual, (lo, hi), iterations), _moments_at(model, t, read, root)


def _flat_root_on_claims(emp: EmpiricalLosses, q: float, d2: float) -> tuple[RootResult, dict]:
    """Root above the claim d2 of the plug-in flat-rate stationarity
    function, and the moments there.

    The function does not fall above d2, so bisection over the sorted losses
    finds the cell between two neighbouring claims where it turns positive
    (or the cell above the largest claim).  In that cell, with k losses at
    or below d, a = k/n, e = a - q (1 - a) and b, m2 the prefix sums of the
    losses and of their squares over n, the function is the quadratic
    A d^2 - 2 B d + C with A = a e, B = b e and C = b^2 - q (m2 - b^2).  The
    root is the larger one, (B + sqrt(B^2 - A C)) / A, which does not cancel
    since B >= 0.  The residual is the function read at the root, as
    `stationarity_function` reads it, not the rounded quadratic, and the
    moments are that read.
    """
    x = emp.losses

    def f(i):  # the function at the i-th smallest loss
        return _flat_condition(q, emp.moment_grid(x[i]))

    lo, hi = int(np.searchsorted(x, d2, side="right")) - 1, emp.n  # x[lo] is d2
    at_d2 = emp.moment_grid(x[lo])
    f_lo = _flat_condition(q, at_d2)
    if f_lo > 0.0:
        # already positive at d2: the root collapses onto the critical quantile
        return RootResult(root=d2, residual=float(f_lo), bracket=(d2, d2), iterations=0), at_d2
    while hi - lo > 1:  # f(x[lo]) <= 0 < f(x[hi]), with x[n] at infinity
        mid = (lo + hi) // 2
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    # x[lo] < x[hi], so k = lo + 1 losses lie at or below the cell
    k = lo + 1
    at_zero = emp.cell_moments(0.0, k)  # the cell's polynomials at d = 0
    a, b, m2 = k / emp.n, at_zero["mu1"], at_zero["mu2"]
    e = a - q * at_zero["sbar"]
    big_a, big_b, big_c = a * e, b * e, b * b - q * (m2 - b * b)
    root = float((big_b + math.sqrt(max(big_b * big_b - big_a * big_c, 0.0))) / big_a)
    at_root = emp.moment_grid(root)
    bracket = (float(x[lo]), float(x[hi]) if hi < emp.n else math.inf)
    return RootResult(root, float(_flat_condition(q, at_root)), bracket, 0), at_root


def _knot_sides(
    model: SeverityModel, rule: LoadingRule, phi: float, n: int, scale=None,
) -> tuple[dict, np.ndarray, np.ndarray]:
    """The model's knot table, and the derivative's limits from the left and
    from the right at each knot: the capped slope plus -c(N) times the
    model's `knot_shapes`, which every solve of the rule's spread power
    shares.  c(N) is the rule's, unless `scale` gives it, one value per
    knot (rule may then be the rule's class)."""
    t = model.knots()
    shape_left, shape_right = model.knot_shapes(rule.spread_power)
    # a layer without a claim carries no load; from below, the ceded spread
    # falls with the ceded mean, so the marginal load tends to 0 too (the
    # formula reads 0 * inf at the largest loss of an empirical model)
    empty = t["nu1"] == 0.0
    c = -(rule.scale(n) if scale is None else scale)

    def limit(sbar, shape):
        return _capped_slope(phi, sbar, t) + np.where(empty, 0.0, c * shape)

    with np.errstate(divide="ignore", invalid="ignore"):
        right = limit(t["sbar"], shape_right)
        # where sbar does not jump (the Lomax table), the two limits agree
        left = right if t["sbar_left"] is t["sbar"] else limit(t["sbar_left"], shape_left)
    return t, left, right


def _roots_at_rate(
    model: SeverityModel, cls: type, measure: DistortionMeasure, n: int, rho: float,
) -> list[tuple[float, float]]:
    """The candidate optima of a spread rule whose rate at the optimum is
    rho, each as (d0, theta(d0)).

    theta(d) = rho sqrt(N) / sigma(d)^k is the parameter whose rate at d is
    rho, so a candidate is a point where the derivative at parameter
    theta(d), capped_slope(d) - theta(d) load_shape_k(d), a function of d
    alone, rises through zero (`_rising_roots`).  Its limits at the knots
    are `_knot_sides` with theta read off the table's ceded moments, which
    do not jump at a claim.  A candidate is the optimum at theta(d0) only if
    `solve_retention` there returns d0: the caller confirms it.
    """
    phi = _phi_or_raise(measure)
    k, t = cls.spread_power, model.knots()
    root_n_rho = rho * math.sqrt(n)

    def theta(g):
        return root_n_rho / np.power(np.sqrt(g["nu2"] - g["nu1"] * g["nu1"]), k)

    read = {}

    def derivative(d):
        g = read[d] = model.moment_grid(d)
        shape = load_shape(k, g["sbar"], g["nu1"], g["nu2"])
        return float(_capped_slope(phi, g["sbar"], g) - theta(g) * shape)

    # theta is infinite (k = 1) or 0 (k = -1) where the layer has no spread,
    # which the confirming solve refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        _, left, right = _knot_sides(model, cls, phi, n, theta(t))
        roots, _ = _rising_roots(t, left, right, derivative)
        return [(r.root, float(theta(_moments_at(model, t, read, r.root)))) for r in roots]


def _rising_roots(
    t: dict, left: np.ndarray, right: np.ndarray, derivative,
) -> tuple[list[RootResult], tuple[float, float]]:
    """Every point where the derivative rises through zero, and the ends of
    the search range, (below[0], knots[-1]).

    `left` and `right` hold the derivative's one-sided limits at the knots
    of the table t, and derivative(d) its value at d, which between two
    knots is smooth.  Taken in order, the limits rise through zero either
    across a knot or in a cell.  A rise across a knot is a kink root: the
    knot, or the point below it when the derivative is smaller in size
    there, the end a Brent step on those two points would return; its
    residual is the limit at the knot, and the derivative read at a point
    below it.  A rising cell is bracketed by (knots[j], below[j + 1]) and
    solved by Brent's method, which starts from the limits the table holds:
    right[j] at the lower end, and left[j + 1] at the upper end where
    below[j + 1] is knot j + 1 itself (smooth knots).  So each retention is
    read once, and the residual is the value Brent's method read at the
    root.  Only pairs of finite limits count.
    """
    knots, below = t["knots"], t["below"]
    # along left[0], right[0], left[1], ...: a fall to at most 0 then a rise
    # above it across knot j (2j), or in the cell above it (2j + 1)
    falls_right, rises_right = right <= 0.0, right > 0.0
    falls_left, rises_left = (
        (falls_right, rises_right) if left is right else (left <= 0.0, left > 0.0))
    across = np.flatnonzero(falls_left & rises_right) * 2
    cells = np.flatnonzero(falls_right[:-1] & rises_left[1:]) * 2 + 1
    roots = []
    for i in sorted(across.tolist() + cells.tolist()):
        j = i // 2
        a, b = (left[j], right[j]) if i % 2 == 0 else (right[j], left[j + 1])
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if i % 2 == 0:  # across knot j
            bracket = (float(below[j]), float(knots[j]))
            root, residual = (bracket[0], a) if abs(a) < b else (bracket[1], b)
            if root < knots[j]:
                with np.errstate(divide="ignore", invalid="ignore"):
                    residual = derivative(root)
            roots.append(RootResult(root, float(residual), bracket, 0))
        else:  # between knots j and j + 1
            lo, hi = float(knots[j]), float(below[j + 1])
            f_hi = b if below[j + 1] == knots[j + 1] else None
            with np.errstate(divide="ignore", invalid="ignore"):
                root, iterations, residual = brentq(derivative, lo, hi, a, f_hi)
            roots.append(RootResult(root, residual, (lo, hi), iterations))
    return roots, (float(below[0]), float(knots[-1]))


def edgeworth_objective(model: SeverityModel, rule: ConstantLoading, p: float, n: int,
                        order: int, d):
    """Constant-loading total-cost quantile at retention d, the capped-loss
    quantile refined by Cornish-Fisher terms in its skewness (order 2) and
    also its excess kurtosis (order 3).  Vectorised over d."""
    return _edgeworth(model, rule, p, n, order, d)[0]


def _edgeworth(model: SeverityModel, rule: ConstantLoading, p: float, n: int, order: int, d,
               g: dict | None = None):
    """The refined total-cost quantile at d and its slope in d; g, when
    given, holds the `moment_grid` columns at d.

    The skewness term enters with a plus sign and the Hermite polynomials
    are taken at p, not at its normal quantile: the convention of the
    reference optima.  With S = sbar, c2 = var and gap = d - mu1, the capped
    loss has c2' = 2 S gap, c3' = 3 S (gap^2 - c2) and c4' = 4 S (gap^3 - c3).
    """
    if not isinstance(rule, ConstantLoading):
        raise DomainError("the Edgeworth refinement applies to the constant rule")
    if order not in (2, 3):
        raise DomainError(f"order must be 2 or 3, got {order}")
    _validate_n(n)
    z = normal_quantile(p)
    if z <= 0.0:
        raise NonpositivePhi(f"risk level p={p:g} gives a nonpositive quantile")
    d, scalar = _retentions(d)
    g = model.moment_grid(d) if g is None else g
    hm = model.higher_truncated_moments(d)
    k3, k4, c2, s, gap = hm["kappa3"], hm["kappa4"], g["var"], g["sbar"], g["gap"]
    he2, he3, he5 = p * p - 1.0, p ** 3 - 3.0 * p, p ** 5 - 10.0 * p ** 3 + 15.0 * p
    dc2 = 2.0 * s * gap
    dk3 = 3.0 * s * (gap * gap - c2) / np.power(c2, 1.5) - 1.5 * k3 * dc2 / c2
    quant, dquant = z + k3 * he2 / 6.0 / math.sqrt(n), dk3 * he2 / 6.0 / math.sqrt(n)
    if order >= 3:
        he = he5 + 4.0 * p * he2 - p * he2 ** 2
        dk4 = (4.0 * s * (gap * gap * gap - k3 * np.power(c2, 1.5)) / (c2 * c2)
               - 2.0 * (k4 + 3.0) * dc2 / c2)
        quant = quant + (k4 * he3 / 24.0 + k3 * k3 * he / 72.0) / n
        dquant = dquant + (dk4 * he3 / 24.0 + k3 * dk3 * he / 36.0) / n
    sd = np.sqrt(np.maximum(c2, 0.0))
    out = n * model.mean() + n * rule.rho * g["nu1"] + math.sqrt(n) * sd * quant
    slope = -n * rule.rho * s + math.sqrt(n) * (dc2 / (2.0 * sd) * quant + sd * dquant)
    return (float(out), float(slope)) if scalar else (out, slope)


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
    p is supported here.  The refined objective and its slope are read in
    one call at the model's knots, from the moments the knot table holds,
    and the solve keeps the first point where the slope rises through zero
    (`_knot_search`, which gives the reason), solved by Brent's method in
    its cell.  The objective value is the one Brent's method read at the
    root with the slope, or the table's value at a knot, so nothing is read
    once the search is done.  `is_global_grid_min` says whether that value
    is also at or below every knot's value.
    """
    t = model.knots()
    values, slopes = _edgeworth(model, rule, p, n, order, t["knots"], t)
    read = {}

    def derivative(d):
        value_slope = read[d] = _edgeworth(model, rule, p, n, order, d)
        return value_slope[1]

    def cost(d):  # Brent's read at d, or the table's value at the knot d
        value = read[d][0] if d in read else float(values[np.searchsorted(t["knots"], d)])
        return value, None

    best, first, (value, moments) = _knot_search(t, slopes, slopes, derivative, cost, lowest=False)
    measure = DistortionMeasure.var(p)
    checks = condition_report(model, rule, measure, n)
    return _solution(best, first, value, moments, rule, measure, n, checks, rule.rho,
                     global_min=bool(value <= np.nanmin(values)))


def stop_loss_retention(model: SeverityModel, rho: float, p: float) -> float:
    """Optimal retention of a single stop-loss contract at loading rho.

    Exists only when the risk level is high enough relative to the loading;
    otherwise full ceding is optimal and ConditionNotMet is raised.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError(f"loading must be positive and finite, got {rho}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    if not (1.0 - p) < 1.0 / (1.0 + rho):
        raise ConditionNotMet(
            f"1 - p = {1.0 - p:g} must be below 1/(1+rho) = {1.0 / (1.0 + rho):g}"
        )
    return model.quantile(1.0 - 1.0 / (1.0 + rho))
