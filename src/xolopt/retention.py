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
from functools import partial
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
from .numerics import (
    RootResult,
    brentq,
    expand_and_solve,
    log_spaced_grid,
)
from .severity import EmpiricalLosses, ParetoII, SeverityModel

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
      the moments at d (at d = 0 it decides the atom condition);
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
        # of a layer without spread to its callers; numpy's power, not **,
        # gives a float the bits of an array entry
        k = self.spread_power
        spread = np.sqrt(nu2 - nu1 * nu1)
        tilt = k * (1.0 - sbar) * (nu1 * nu1) * np.power(spread, k - 2) if k else 0.0
        return -self.scale(n) * (sbar * np.power(spread, k) + tilt)

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
    """Premium loading actually applied at retention d: 0 for a spread rule
    on a layer without a claim, which carries no load."""
    if not rule.spread_dependent:
        return rule.rate(n)
    tm = model.truncated_moments(d)
    if tm.nu1 == 0.0:
        return 0.0
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
    d, scalar = _retentions(d)
    g = model.moment_grid(d)
    mean = model.mean()
    sd_capped = np.sqrt(np.maximum(g["var"], 0.0))
    spread = np.sqrt(np.maximum(g["nu2"] - g["nu1"] * g["nu1"], 0.0))
    out = n * mean + math.sqrt(n) * (phi * sd_capped + rule.load(n, g["nu1"], spread))
    return float(out) if scalar else out


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


def _retentions(d) -> tuple:
    """d as a float when it is a scalar, else as a float array, and whether
    it is a scalar: the models read one float without making an array."""
    if isinstance(d, float) or np.ndim(d) == 0:
        return float(d), True
    return np.asarray(d, dtype=float), False


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
    above the critical quantile; AtomConditionViolated when the mass at zero
    leaves none.  Stddev/sharpe rules: every point where the scaled
    objective derivative rises through zero, keeping the one with the lowest
    objective; NoRootFound when there is none or an end of the search range
    is lower still.

    The flat-rate root is bracketed by doubling on `ParetoII`.  On
    `EmpiricalLosses`, where the roots are the plug-in estimates, k, the
    count of losses at or below d, is fixed between two neighbouring claims,
    and every moment is a polynomial in d (`EmpiricalLosses.cell_moments`).
    So the flat-rate function is an exact quadratic in each cell, and its
    root has a closed form in the cell where it turns positive.

    The spread-rule search is the same on every model.  The model's
    `knots()` table holds the moments at each knot, with sbar on both sides:
    only sbar may jump at a knot, so one pass over the table gives the
    derivative's limits on both sides of every knot.  Brent's method runs,
    on `model.moments_in_cell`, in every cell between knots where the
    derivative rises, and a rise across a knot is a kink root
    (`_rising_roots`).  The Lomax knots are a 1000-point log grid; the
    empirical knots are the distinct positive claims up to the 0.999
    quantile.

    The diagnostics read: `bracket`, the cell of d_star; `iterations`, the
    Brent steps spent in it (0 for a closed form or a kink); and
    `smallest_stationary_point`, the first rising root.  `is_global_grid_min`
    is always True for the four rules: a solution is returned only when it
    is the lowest point of the search range.
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
            best = _flat_root_on_claims(model, q, d2)
        else:
            best = expand_and_solve(
                lambda d: float(_flat_condition(q, model.moment_grid(d))),
                lo=d2,
                hi_start=max(2.0 * d2, 1.0),
            )
        value = objective(model, rule, measure, n, best.root)
        smallest = best.root
    else:
        t, left, right = _knot_sides(model, rule, phi, n)

        def derivative(d, j):  # in the cell between knots j and j + 1
            m = model.moments_in_cell(d, j)
            return float(_derivative(rule, phi, n, m["sbar"], m))

        roots, ends = _rising_roots(t, left, right, derivative)
        if roots:
            # the objective at each end of the range and at every local
            # minimum, read a point at a time: a float skips the series
            # wherever it is not needed
            values = [objective(model, rule, measure, n, d)
                      for d in (ends[0], *(r.root for r in roots), ends[1])]
            k = int(np.argmin(values))
        if not roots or k in (0, len(values) - 1):
            raise NoRootFound(
                "no local minimum of the search range is below both of its ends; "
                "no interior optimal retention (trivial full or no reinsurance)"
            )
        best = roots[k - 1]
        value = values[k]
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


def _flat_root_on_claims(emp: EmpiricalLosses, q: float, d2: float) -> RootResult:
    """Root above the claim d2 of the plug-in flat-rate stationarity function.

    The function does not fall above d2, so bisection over the sorted losses
    finds the cell between two neighbouring claims where it turns positive
    (or the cell above the largest claim).  In that cell, with k losses at
    or below d, a = k/n, e = a - q (1 - a) and b, m2 the prefix sums of the
    losses and of their squares over n, the function is the quadratic
    A d^2 - 2 B d + C with A = a e, B = b e and C = b^2 - q (m2 - b^2).  The
    root is the larger one, (B + sqrt(B^2 - A C)) / A, which does not cancel
    since B >= 0.  The residual is the function read at the root, as
    `stationarity_function` reads it, not the rounded quadratic.
    """
    x = emp.losses

    def f(i):  # the function at the i-th smallest loss
        return _flat_condition(q, emp.moment_grid(x[i]))

    lo, hi = int(np.searchsorted(x, d2, side="right")) - 1, emp.n
    f_lo = f(lo)
    if f_lo > 0.0:
        # already positive at d2: the root collapses onto the critical quantile
        return RootResult(root=d2, residual=float(f_lo), bracket=(d2, d2), iterations=0)
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
    residual = float(_flat_condition(q, emp.moment_grid(root)))
    bracket = (float(x[lo]), float(x[hi]) if hi < emp.n else math.inf)
    return RootResult(root, residual, bracket, 0)


def _knot_sides(
    model: SeverityModel, rule: LoadingRule, phi: float, n: int,
) -> tuple[dict, np.ndarray, np.ndarray]:
    """The model's knot table, and the derivative's limits from the left and
    from the right at each knot."""
    t = model.knots()
    if t["knots"].size == 0:
        raise NoRootFound("no positive claim up to the 0.999 quantile")
    # a layer without a claim carries no load; from below, the ceded spread
    # falls with the ceded mean, so the marginal load tends to 0 too (the
    # formula reads 0 * inf at the largest loss of an empirical model)
    empty = t["nu1"] == 0.0

    def limit(sbar):
        return (_capped_slope(phi, sbar, t)
                + np.where(empty, 0.0, rule.marginal_load(n, sbar, t["nu1"], t["nu2"])))

    with np.errstate(divide="ignore", invalid="ignore"):
        right = limit(t["sbar"])
        # where sbar does not jump (the Lomax table), the two limits agree
        left = right if t["sbar_left"] is t["sbar"] else limit(t["sbar_left"])
    return t, left, right


def _rising_roots(
    t: dict, left: np.ndarray, right: np.ndarray, derivative,
) -> tuple[list[RootResult], tuple[float, float]]:
    """Every point where the derivative rises through zero, and the ends of
    the search range, (below[0], knots[-1]).

    `left` and `right` hold the derivative's one-sided limits at the knots
    of the table t, and derivative(d, j) its value at d in the cell between
    knots j and j + 1.  Taken in order, the limits rise through zero either
    across a knot or in a cell.  A rise across a knot is a kink root: the
    knot, or the point below it when the derivative is smaller in size
    there, the end a Brent step on those two points would return; its
    residual is that limit.  A rising cell is bracketed by
    (knots[j], below[j + 1]) and solved by Brent's method, which starts from
    the limits the table holds: right[j] at the lower end, and left[j + 1]
    at the upper end where below[j + 1] is knot j + 1 itself (smooth knots).
    So each retention is read once, and the residual is the value Brent's
    method read at the root.  Only pairs of finite limits count.
    """
    knots, below = t["knots"], t["below"]
    values = np.column_stack([left, right]).ravel()
    a, b = values[:-1], values[1:]
    rising = np.isfinite(a) & np.isfinite(b) & (a <= 0.0) & (b > 0.0)
    roots = []
    for i in np.flatnonzero(rising):
        j = i // 2
        if i % 2 == 0:  # across knot j
            bracket = (float(below[j]), float(knots[j]))
            root, residual = ((bracket[0], left[j]) if abs(left[j]) < right[j]
                              else (bracket[1], right[j]))
            roots.append(RootResult(root, float(residual), bracket, 0))
        else:  # between knots j and j + 1
            lo, hi = float(knots[j]), float(below[j + 1])
            f_hi = left[j + 1] if below[j + 1] == knots[j + 1] else None
            with np.errstate(divide="ignore", invalid="ignore"):
                root, iterations, residual = brentq(partial(derivative, j=j), lo, hi,
                                                    right[j], f_hi)
            roots.append(RootResult(root, residual, (lo, hi), iterations))
    return roots, (float(below[0]), float(knots[-1]))


def edgeworth_objective(model: SeverityModel, rule: ConstantLoading, p: float, n: int,
                        order: int, d):
    """Constant-loading total-cost quantile at retention d, the capped-loss
    quantile refined by Cornish-Fisher terms in its skewness (order 2) and
    also its excess kurtosis (order 3).  Vectorised over d."""
    return _edgeworth(model, rule, p, n, order, d)[0]


def _edgeworth(model: SeverityModel, rule: ConstantLoading, p: float, n: int, order: int, d):
    """The refined total-cost quantile at d and its slope in d.

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
    g = model.moment_grid(d)
    hm = model.higher_truncated_moments(d)
    k3, k4, c2, s, gap = hm.kappa3, hm.kappa4, g["var"], g["sbar"], g["gap"]
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
    p is supported here.  The optimum is the first point where the refined
    objective's derivative rises through zero on a 200-point log grid, read
    in one call, solved by Brent's method in its cell (`_rising_roots`);
    `is_global_grid_min` says whether it is also below every grid value.
    """
    # The corrected objective flattens toward the no-ceding asymptote and may
    # dip below the interior basin far in the tail, where the polynomial
    # correction is no longer a valid quantile approximation.  The meaningful
    # solution is the first interior dip.
    grid = log_spaced_grid(model.quantile(1e-4), model.quantile(1.0 - 1e-6), 200)
    values, slopes = _edgeworth(model, rule, p, n, order, grid)
    roots, _ = _rising_roots({"knots": grid, "below": grid}, slopes, slopes,
                             lambda d, j: _edgeworth(model, rule, p, n, order, d)[1])
    if not roots:
        raise NoRootFound(
            f"refined objective has no interior dip on [{grid[0]:g}, {grid[-1]:g}]"
        )
    best = roots[0]
    value = edgeworth_objective(model, rule, p, n, order, best.root)
    measure = DistortionMeasure.var(p)
    diag = SolverDiagnostics(
        bracket=best.bracket,
        iterations=best.iterations,
        stationarity_residual=abs(best.residual),
        is_global_grid_min=bool(value <= np.nanmin(values)),
        condition_checks=condition_report(model, rule, measure, n),
        smallest_stationary_point=best.root,
        effective_rho=rule.rho,
    )
    return RetentionSolution(
        d_star=best.root,
        objective_value=value,
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
    if not 0.0 < rho < math.inf:
        raise DomainError(f"loading must be positive and finite, got {rho}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    if not (1.0 - p) < 1.0 / (1.0 + rho):
        raise ConditionNotMet(
            f"1 - p = {1.0 - p:g} must be below 1/(1+rho) = {1.0 / (1.0 + rho):g}"
        )
    return model.quantile(1.0 - 1.0 / (1.0 + rho))
