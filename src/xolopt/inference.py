"""Nonparametric retention estimates with delta-method standard errors.

`estimate` runs `retention.solve_retention` on the empirical model of the
losses, so its point estimate is the exact minimiser of the plug-in
objective, and then linearises the stationarity condition around the
estimate to obtain an asymptotic standard error and a Wald confidence
interval.  It takes the three loading rules with nondegenerate large-sample
limits: decreasing, standard-deviation, and Sharpe-ratio.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .distortion import DistortionMeasure, normal_quantile
from .errors import DegenerateVariance, DomainError, XoloptError
from .numerics import fixed_point
from .retention import (
    _RULES,
    ESTIMATED_RULES,
    DecreasingLoading,
    LoadingRule,
    RetentionSolution,
    SharpeLoading,
    StdDevLoading,
    effective_rho,
    solve_retention,
)
from .severity import EmpiricalLosses, kde_density

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


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level}")


# the letter each rule's coefficients are reported under, for every rule
# in ESTIMATED_RULES
_PREFIX = {DecreasingLoading: "c", StdDevLoading: "b", SharpeLoading: "a"}


def estimate(
    losses,
    rule: LoadingRule,
    measure: DistortionMeasure,
    level: float = 0.95,
) -> EstimationResult:
    """Estimate the optimal retention under a rule with a large-sample
    estimator (decreasing, standard-deviation or Sharpe-ratio); any other
    rule, such as the constant one, raises DomainError.

    The estimate is `solve_retention` on the empirical model of the losses,
    and its standard error and Wald interval at `level` come from the
    linearisation all three rules share (`_linearise`).
    """
    if type(rule) not in _PREFIX:
        raise DomainError(f"the {rule.name} rule has no large-sample estimator")
    _check_level(level)
    emp = _as_empirical(losses)
    return _linearise(emp, solve_retention(emp, rule, measure, emp.n), level)


def _linearise(emp: EmpiricalLosses, sol: RetentionSolution, level: float) -> EstimationResult:
    """The estimate of sol, a solve on the empirical model emp, with its
    delta-method standard error and Wald interval.

    The stationarity function phi sbar gap / sd(min(X, d)) plus the
    marginal load is linearised in the five moments (sbar, mu1, mu2, nu1,
    nu2), with the rule supplying the gradient of its marginal load (for
    the decreasing rule's flat rate, -delta * sbar, it is (-delta, 0, 0) in
    (sbar, nu1, nu2)).  The standard error is the spread of the per-claim
    values of that linear form over |c0| sqrt(n), where c0 is the
    derivative in d; the coefficients are reported as c0..c5 under the
    rule's letter.  The moments at d_hat are those the solve read there.
    """
    rule, measure, d_hat = sol.rule, sol.measure, sol.d_star
    phi = measure.phi_normal()
    sbar, mu1, gap, nu1, nu2, var_mu = (float(sol.moments[name]) for name in
                                        ("sbar", "mu1", "gap", "nu1", "nu2", "var"))
    if var_mu <= 0.0 or (rule.spread_dependent and nu2 - nu1 ** 2 <= 0.0):
        raise DegenerateVariance(f"capped or ceded spread vanishes at d={d_hat:g}")
    x = emp.losses
    # at a flat rate's root phi gap/sd = c(N): c1 below vanishes, and so does the density's term
    fhat = kde_density(emp, d_hat) if rule.spread_dependent else 0.0
    sd_mu = math.sqrt(var_mu)
    load_sbar, load_nu1, load_nu2 = rule.load_gradient(emp.n, sbar, nu1, nu2)
    c1 = phi * gap / sd_mu + load_sbar
    c2 = phi * (-sbar / sd_mu + mu1 * sbar * gap / sd_mu ** 3)
    c3 = -phi * sbar * gap / (2.0 * sd_mu ** 3)
    # d/dd of the stationarity function through each moment
    c0 = (
        phi * sbar / sd_mu
        - c1 * fhat
        + c2 * sbar
        + c3 * 2.0 * d_hat * sbar
        + load_nu1 * (-sbar)
        + load_nu2 * (-2.0 * nu1)
    )
    if c0 == 0.0:
        raise DegenerateVariance("stationarity linearisation is degenerate")
    capped = np.minimum(x, d_hat)
    excess = x - capped
    per_claim = (c1 * (x > d_hat) + c2 * capped + c3 * capped * capped
                 + load_nu1 * excess + load_nu2 * excess * excess)
    se = float(np.std(per_claim)) / (abs(c0) * math.sqrt(emp.n))
    z = normal_quantile(0.5 * (1.0 + level))
    lo, hi = d_hat - z * se, d_hat + z * se
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
    if family not in ESTIMATED_RULES:
        raise DomainError(f"unknown rule family {family!r}")
    cls = _RULES[family]
    if sweep not in ("rho", "p"):
        raise DomainError(f"sweep must be 'rho' or 'p', got {sweep!r}")
    _check_level(level)
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
    param is rho: as every rate is proportional to the parameter, that is
    param rho over the rate the solve reports, so no step reads the
    moments again.  `numerics.fixed_point` finds it by safeguarded secant
    steps, to a relative tolerance of 1e-8, from the previous curve point's
    parameter or else from the rate at the sample median.  Every point's
    estimate, with its standard error, linearises a solve at the point's
    parameter: a spread rate's is the fixed point's last evaluation.
    """
    if rho <= 0.0:
        raise DomainError(f"effective loading must be positive, got {rho}")
    if not cls.spread_dependent:
        sol = solve_retention(emp, cls(rho / cls(1.0).rate(emp.n)), measure, emp.n)
        return _linearise(emp, sol, level), None
    solved: dict[float, RetentionSolution] = {}

    def target(param: float) -> float:
        sol = solved[param] = solve_retention(emp, cls(param), measure, emp.n)
        return param * rho / sol.diagnostics.effective_rho

    start = param_guess or rho / effective_rho(emp, cls(1.0), emp.n, emp.quantile(0.5))
    param, _ = fixed_point(target, start)
    return _linearise(emp, solved[param], level), param
