"""Nonparametric retention estimators with delta-method standard errors.

Each estimator runs `retention.solve_retention` on the empirical model of
the losses, so its point estimate is the exact minimiser of the plug-in
objective, and then linearises the stationarity condition around the
estimate to obtain an asymptotic standard error and a Wald confidence
interval.  The three loading rules with nondegenerate large-sample limits
are covered: decreasing, standard-deviation, and Sharpe-ratio.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .distortion import DistortionMeasure, normal_quantile
from .errors import DegenerateVariance, DomainError, XoloptError
from .numerics import fixed_point
from .retention import (
    _RULES,
    DecreasingLoading,
    LoadingRule,
    RetentionSolution,
    SharpeLoading,
    StdDevLoading,
    effective_rho,
    solve_retention,
)
from .severity import EmpiricalLosses, TruncatedMoments, kde_density

MIN_SAMPLE = 30


@dataclass
class EstimationResult:
    """Point estimate, standard error, and Wald interval for d*."""

    d_hat: float
    std_error: float
    ci: tuple[float, float]
    level: float
    rule: LoadingRule
    measure: DistortionMeasure
    n: int
    coefficients: dict[str, float]
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "rule_params": asdict(self.rule),
            "measure": self.measure.describe(),
            "n": self.n,
            "d_hat": self.d_hat,
            "std_error": self.std_error,
            "ci": list(self.ci),
            "level": self.level,
            "coefficients": self.coefficients,
            "warnings": list(self.warnings),
        }


def _as_empirical(losses) -> EmpiricalLosses:
    emp = losses if isinstance(losses, EmpiricalLosses) else EmpiricalLosses(losses)
    if emp.n < MIN_SAMPLE:
        raise DomainError(
            f"need at least {MIN_SAMPLE} losses for asymptotic inference, got {emp.n}"
        )
    return emp


def _wald_ci(d_hat: float, se: float, level: float) -> tuple[float, float]:
    """The Wald interval d_hat -/+ z se at the given level."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level}")
    z = normal_quantile(0.5 * (1.0 + level))
    return (d_hat - z * se, d_hat + z * se)


def estimate_decreasing(
    losses,
    delta: float,
    measure: DistortionMeasure,
    level: float = 0.95,
) -> EstimationResult:
    """Estimate the optimal retention under the decreasing loading rule.

    The estimate is the root of the plug-in stationarity quadratic.  The
    standard error comes from the linearisation all three estimators share,
    in which the flat rate's marginal load, -delta * sbar, has gradient
    (-delta, 0, 0) in (sbar, nu1, nu2); the coefficients are reported as
    c0..c5.
    """
    return _estimate_rule(losses, DecreasingLoading(delta), measure, level)


def estimate_sd(
    losses,
    rho0: float,
    measure: DistortionMeasure,
    level: float = 0.95,
) -> EstimationResult:
    """Estimate the optimal retention under the standard-deviation loading."""
    return _estimate_rule(losses, StdDevLoading(rho0), measure, level)


def estimate_sharpe(
    losses,
    rho0: float,
    measure: DistortionMeasure,
    level: float = 0.95,
) -> EstimationResult:
    """Estimate the optimal retention under the Sharpe-ratio loading."""
    return _estimate_rule(losses, SharpeLoading(rho0), measure, level)


# the moments of a TruncatedMoments, after its retention d
_MOMENTS = tuple(f.name for f in fields(TruncatedMoments))[1:]

# the letter each rule's coefficients are reported under
_PREFIX = {DecreasingLoading: "c", StdDevLoading: "b", SharpeLoading: "a"}


def _estimate_rule(
    losses,
    rule: LoadingRule,
    measure: DistortionMeasure,
    level: float,
    sol: RetentionSolution | None = None,
) -> EstimationResult:
    """Plug-in estimate under any rule, with its delta-method standard error.

    The stationarity function phi sbar gap / sd(min(X, d)) plus the
    marginal load is linearised in the five moments (sbar, mu1, mu2, nu1,
    nu2), with the rule supplying the gradient of its marginal load.  The
    standard error is the spread of the per-claim values of that linear
    form over |c0| sqrt(n), where c0 is the derivative in d; the
    coefficients are reported as c0..c5 under the rule's letter.  sol, when
    given, is the solve of this rule on these losses, which is then not
    repeated.  The moments at d_hat are those the solve read there.
    """
    emp = _as_empirical(losses)
    if sol is None:
        sol = solve_retention(emp, rule, measure, emp.n)
    d_hat = sol.d_star
    phi = measure.phi_normal()
    tm = TruncatedMoments(d_hat, **{name: float(sol.moments[name]) for name in _MOMENTS})
    var_mu = tm.var
    if var_mu <= 0.0 or (rule.spread_dependent and tm.nu2 - tm.nu1 ** 2 <= 0.0):
        raise DegenerateVariance(f"capped or ceded spread vanishes at d={d_hat:g}")
    x = emp.losses
    # at a flat rate's root phi gap/sd = c(N): c1 below vanishes, and so does the density's term
    fhat = kde_density(emp, d_hat) if rule.spread_dependent else 0.0
    sbar = tm.sbar
    sd_mu = math.sqrt(var_mu)
    load_sbar, load_nu1, load_nu2 = rule.load_gradient(emp.n, sbar, tm.nu1, tm.nu2)
    c1 = phi * tm.gap / sd_mu + load_sbar
    c2 = phi * (-sbar / sd_mu + tm.mu1 * sbar * tm.gap / sd_mu ** 3)
    c3 = -phi * sbar * tm.gap / (2.0 * sd_mu ** 3)
    # d/dd of the stationarity function through each moment
    c0 = (
        phi * sbar / sd_mu
        - c1 * fhat
        + c2 * sbar
        + c3 * 2.0 * d_hat * sbar
        + load_nu1 * (-sbar)
        + load_nu2 * (-2.0 * tm.nu1)
    )
    if c0 == 0.0:
        raise DegenerateVariance("stationarity linearisation is degenerate")
    capped = np.minimum(x, d_hat)
    excess = x - capped
    per_claim = (c1 * (x > d_hat) + c2 * capped + c3 * capped * capped
                 + load_nu1 * excess + load_nu2 * excess * excess)
    se = float(np.std(per_claim)) / (abs(c0) * math.sqrt(emp.n))
    lo, hi = _wald_ci(d_hat, se, level)
    warnings = _condition_warnings(sol.diagnostics.condition_checks)
    if lo < 0.0:  # no retention lies below 0
        warnings.append(f"confidence interval cut at 0; its lower end was {lo:g}")
        lo = 0.0
    return EstimationResult(
        d_hat=d_hat,
        std_error=se,
        ci=(lo, hi),
        level=level,
        rule=rule,
        measure=measure,
        n=emp.n,
        coefficients={f"{_PREFIX[type(rule)]}{i}": float(c)
                      for i, c in enumerate([c0, c1, c2, c3, load_nu1, load_nu2])},
        warnings=warnings,
    )


def _condition_warnings(checks: dict) -> list[str]:
    out = []
    for name, value in checks.items():
        if value is False:
            out.append(f"sufficient condition {name} is violated; estimate may sit at a boundary")
    return out


@dataclass(frozen=True)
class CurvePoint:
    param: float
    d_hat: float
    ci_lo: float
    ci_hi: float
    error: str | None = None


# each rule's estimator by its name in this module, looked up when called, so
# that a rebound name (a test double, a tracer) is the one that runs
_ESTIMATE = {DecreasingLoading: "estimate_decreasing", StdDevLoading: "estimate_sd",
             SharpeLoading: "estimate_sharpe"}


def _estimate(
    losses,
    rule: LoadingRule,
    measure: DistortionMeasure,
    level: float = 0.95,
) -> EstimationResult:
    """Plug-in estimate under any rule that has an estimator."""
    return globals()[_ESTIMATE[type(rule)]](losses, rule.theta, measure, level)


def retention_curve(
    losses,
    family: str,
    sweep: str,
    grid,
    fixed: float,
    level: float = 0.95,
) -> list[CurvePoint]:
    """Estimated retention as a function of the loading or the risk level.

    sweep='rho' varies the effective loading at fixed risk level p=fixed;
    sweep='p' varies the risk level at fixed effective loading rho=fixed.
    Points that fail with a domain error become gap markers carrying the
    error text.
    """
    cls = _RULES.get(family)
    if cls not in _ESTIMATE:
        raise DomainError(f"unknown rule family {family!r}")
    if sweep not in ("rho", "p"):
        raise DomainError(f"sweep must be 'rho' or 'p', got {sweep!r}")
    emp = _as_empirical(losses)
    points: list[CurvePoint] = []
    param_guess: float | None = None
    for value in np.asarray(grid, dtype=float):
        rho = float(value) if sweep == "rho" else float(fixed)
        p = float(fixed) if sweep == "rho" else float(value)
        try:
            measure = DistortionMeasure.var(p)
            result, param_guess = _estimate_at_effective_rho(emp, cls, rho, measure, level,
                                                             param_guess)
            points.append(CurvePoint(float(value), result.d_hat, *result.ci))
        except XoloptError as exc:  # gap marker, sweep continues
            points.append(
                CurvePoint(float(value), float("nan"), float("nan"), float("nan"),
                           error=f"{type(exc).__name__}: {exc}")
            )
    return points


def _param_at_rate(cls, rho: float, emp: EmpiricalLosses, d: float = 0.0) -> float:
    """Parameter of the rule in family cls whose rate at retention d is rho
    (a flat rate ignores d; every rate is proportional to the parameter)."""
    return rho / effective_rho(emp, cls(1.0), emp.n, d)


def _estimate_at_effective_rho(
    emp: EmpiricalLosses,
    cls,
    rho: float,
    measure: DistortionMeasure,
    level: float,
    param_guess: float | None,
):
    """Map a target effective loading to the rule parameter and estimate.

    A flat rate maps directly.  A spread-dependent rate depends on the
    solved retention, so the rule parameter is the fixed point of
    target(param), the parameter whose rate at the retention solved under
    param is rho: `numerics.fixed_point` finds it by safeguarded secant
    steps, to a relative tolerance of 1e-8, from the previous curve point's
    parameter or else from the rate at the sample median.  The estimate,
    with its standard error, linearises the solve that fixed_point's last
    evaluation made at that parameter.
    """
    if rho <= 0.0:
        raise DomainError(f"effective loading must be positive, got {rho}")
    if not cls.spread_dependent:
        return _estimate(emp, cls(_param_at_rate(cls, rho, emp)), measure, level), None
    solved: dict[float, RetentionSolution] = {}

    def target(param: float) -> float:
        solved[param] = solve_retention(emp, cls(param), measure, emp.n)
        return _param_at_rate(cls, rho, emp, solved[param].d_star)

    start = param_guess or _param_at_rate(cls, rho, emp, emp.quantile(0.5))
    param, _ = fixed_point(target, start)
    return _estimate_rule(emp, cls(param), measure, level, solved[param]), param
