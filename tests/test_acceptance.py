"""Acceptance suite: one verdict line per shipped claim.

Each test prints "[PASS] criterion N: detail" or "[FAIL] criterion N:
detail" on its own line (visible under plain pytest) and then asserts,
so the printed ledger always matches the suite's pass/fail status.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from xolopt import (
    ConstantLoading,
    DecreasingLoading,
    DistortionMeasure,
    McConfig,
    ParetoII,
    SharpeLoading,
    StdDevLoading,
    brute_force_optimal,
    cli,
    insolvency_probability,
    make_synthetic_losses,
    objective,
    replicate_table2,
    solve_retention,
    solve_retention_edgeworth,
    stationarity_function,
    summary_and_lorenz,
)
from xolopt.cli import integrate_finite, integrate_tail

MODEL = ParetoII(9.0, 8.0)
VAR75 = DistortionMeasure.var(0.75)
DESK = McConfig(b=20000, m=500, seed=0)

# Exact constant-rule (rho = 0.3) minimisers of the CLT objective; the same
# values as D_CONSTANT in tests/test_retention.py, which derives them there
# independently with mpmath.
D_CONSTANT = {10: 1.48506768838, 25: 2.68101897267, 100: 5.65568859629}

# environment hook for the confidential claim file; absent in this repo
CLAIMS_ENV = "XOLOPT_CLAIMS_CSV"


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_closed_form_optima(capsys):
    """Reference optima for all four loading rules, abs tol 1e-3, < 1 s.

    The constant-rule optima are judged against the exact minimisers of the
    CLT objective (D_CONSTANT, derived independently at high precision in
    tests/test_retention.py).  The printed values 1.4856/2.6838/5.6581 are
    not minimisers of that objective: it is so flat near its minimum that
    they sit up to 2.8e-3 away while costing under 3e-8 more.  What they do
    pin down is the objective value the solver must match or beat.
    """
    cases = (
        ("decreasing", DecreasingLoading(0.5), 100, 0.5472),
        ("stddev", StdDevLoading(0.5), 100, 0.8189),
        ("sharpe", SharpeLoading(0.5), 100, 0.3218),
        ("constant N=10", ConstantLoading(0.3), 10, D_CONSTANT[10]),
        ("constant N=25", ConstantLoading(0.3), 25, D_CONSTANT[25]),
        ("constant N=100", ConstantLoading(0.3), 100, D_CONSTANT[100]),
    )
    printed = {10: 1.4856, 25: 2.6838, 100: 5.6581}
    start = time.perf_counter()
    sols = {label: solve_retention(MODEL, rule, VAR75, n) for label, rule, n, _ in cases}
    elapsed = time.perf_counter() - start
    gaps = {label: abs(sols[label].d_star - ref) for label, _, _, ref in cases}
    residuals = {label: sol.diagnostics.stationarity_residual for label, sol in sols.items()}
    # relative excess of the objective at the printed value over d_star's
    excess = {}
    for n, d_printed in printed.items():
        d_pair = [sols[f"constant N={n}"].d_star, d_printed]
        at_star, at_printed = objective(MODEL, ConstantLoading(0.3), VAR75, n, d_pair)
        excess[n] = (at_printed - at_star) / at_star
    offenders = [f"{k} off by {v:.1e}" for k, v in sorted(gaps.items()) if v > 1e-3]
    offenders += [f"{k} residual {v:.1e}" for k, v in sorted(residuals.items()) if not v < 1e-9]
    offenders += [f"printed N={n} beats d_star by {-v:.1e}" for n, v in excess.items() if v < 0.0]
    if elapsed >= 1.0:
        offenders.append(f"took {elapsed:.2f}s")
    excesses = "/".join(f"{excess[n]:.1e}" for n in sorted(excess))
    detail = (
        f"max |d_star - ref| {max(gaps.values()):.1e} (tol 1e-3), max residual "
        f"{max(residuals.values()):.1e} (tol 1e-9), printed constant-rule values "
        f"cost {excesses} more (relative) in {elapsed:.2f}s"
    )
    if offenders:
        detail = "; ".join(offenders) + "; " + detail
    _verdict(capsys, 1, not offenders, detail)


def test_criterion_2_refined_quantile_optima(capsys):
    """Skewness- and kurtosis-corrected constant-rule optima, abs tol 1e-2."""
    refs = {
        2: {10: 1.6276, 25: 2.9634, 100: 6.3361},
        3: {10: 1.5921, 25: 2.9969, 100: 6.6660},
    }
    rule = ConstantLoading(0.3)
    start = time.perf_counter()
    worst = 0.0
    for order, per_n in refs.items():
        for n, ref in per_n.items():
            sol = solve_retention_edgeworth(MODEL, rule, 0.75, n, order=order)
            worst = max(worst, abs(sol.d_star - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and elapsed < 10.0
    _verdict(
        capsys, 2, ok,
        f"max |d_star - ref| {worst:.1e} over both orders and three sizes "
        f"(tol 1e-2) in {elapsed:.1f}s",
    )


def test_criterion_3_simulated_optima_match_references(capsys):
    """Common-random-number grid search lands within 15% of the references."""
    refs = {
        "decreasing": (DecreasingLoading(0.5), {10: 0.5034, 25: 0.5835, 100: 0.5472}),
        "stddev": (StdDevLoading(0.5), {10: 0.7847, 25: 0.8187, 100: 0.8499}),
        "sharpe": (SharpeLoading(0.5), {10: 0.2797, 25: 0.3149, 100: 0.3203}),
    }
    worst_rel = 0.0
    slowest = 0.0
    for name, (rule, per_n) in refs.items():
        start = time.perf_counter()
        for n, ref in per_n.items():
            got = brute_force_optimal(MODEL, rule, n, 0.75, DESK).d_actual
            worst_rel = max(worst_rel, abs(got - ref) / ref)
        slowest = max(slowest, time.perf_counter() - start)
    ok = worst_rel <= 0.15 and slowest < 120.0
    _verdict(
        capsys, 3, ok,
        f"max relative gap {worst_rel:.1%} (tol 15%), slowest rule {slowest:.0f}s",
    )


def test_criterion_4_small_portfolio_insolvency(capsys):
    """Exceedance probability collapses to zero for tiny portfolios."""
    expected = {2: (0.0, 0.1633), 3: (0.0, 0.1643), 5: (0.25, 0.5025), 10: (0.25, 0.8779)}
    rows = {n: insolvency_probability(MODEL, n, 0.2, 0.75, DESK) for n in expected}
    prob_ok = all(abs(rows[n].prob - expected[n][0]) <= 0.02 for n in expected)
    d_ok = all(
        abs(rows[n].d_star - expected[n][1]) / expected[n][1] <= 0.10 for n in expected
    )
    agree_ok = all(abs(rows[n].prob - rows[n].analytic_prob) <= 0.02 for n in expected)
    ok = prob_ok and d_ok and agree_ok
    probs = "/".join(f"{rows[n].prob:.2f}" for n in sorted(rows))
    _verdict(
        capsys, 4, ok,
        f"probs {probs} vs 0.00/0.00/0.25/0.25, retentions within 10%, "
        f"analytic criterion agrees in all four cases",
    )


def test_criterion_5_estimator_bias_se_coverage(capsys):
    """500 replications at sample size 2000 for all three estimators."""
    start = time.perf_counter()
    rows = replicate_table2(MODEL, DESK, n_values=(2000,))
    elapsed = time.perf_counter() - start
    bias_tol = {"decreasing": 1.0, "stddev": 1.0, "sharpe": 2.0}
    problems = []
    for r in rows:
        if abs(r.bias_pct) > bias_tol[r.rule]:
            problems.append(f"{r.rule} bias {r.bias_pct:+.2f}%")
        if abs(r.diff_pct) > 10.0:
            problems.append(f"{r.rule} SE gap {r.diff_pct:+.1f}%")
        if not 0.92 <= r.coverage <= 0.97:
            problems.append(f"{r.rule} coverage {r.coverage:.3f}")
        if r.failures:
            problems.append(f"{r.rule} {r.failures} failed replications")
    ok = not problems and elapsed < 600.0
    summary = "; ".join(
        f"{r.rule} bias {r.bias_pct:+.2f}% SE gap {r.diff_pct:+.1f}% "
        f"coverage {r.coverage:.3f}"
        for r in rows
    )
    detail = summary + f" in {elapsed:.0f}s"
    if problems:
        detail = "; ".join(problems) + f" in {elapsed:.0f}s"
    _verdict(capsys, 5, ok, detail)


def test_criterion_6_structural_properties(capsys):
    """Moment identities, derivatives, equivariance, monotonicity,
    stationarity uniqueness, and rows independent of the table around them."""
    checks = {}

    worst = 0.0
    for model in (ParetoII(9.0, 8.0), ParetoII(2.5, 3.0)):
        for d in (0.3, 1.0, 4.0):
            g = model.moment_grid(d)
            worst = max(
                worst,
                abs(g["mu1"] - integrate_finite(model.survival, 0.0, d)),
                abs(g["nu1"] - integrate_tail(model.survival, d)),
                abs(g["mu2"] - 2.0 * integrate_finite(lambda x: x * model.survival(x), 0.0, d)),
                abs(g["nu2"] - 2.0 * integrate_tail(lambda x: model.survival(x) * (x - d), d)),
            )
    checks["moments vs quadrature"] = worst < 1e-8

    h = 1e-5
    d0 = 1.0
    lo, hi = MODEL.moment_grid(d0 - h), MODEL.moment_grid(d0 + h)
    g0 = MODEL.moment_grid(d0)
    checks["derivative identities"] = (
        abs((hi["mu1"] - lo["mu1"]) / (2 * h) - MODEL.survival(d0)) < 1e-4
        and abs((hi["nu2"] - lo["nu2"]) / (2 * h) + 2.0 * g0["nu1"]) < 1e-4
    )

    doubled = ParetoII(9.0, 16.0)
    eq = []
    for rule, n in ((ConstantLoading(0.3), 25), (DecreasingLoading(0.5), 100)):
        base = solve_retention(MODEL, rule, VAR75, n).d_star
        scaled = solve_retention(doubled, rule, VAR75, n).d_star
        eq.append(abs(scaled - 2.0 * base) / (2.0 * base) < 1e-8)
    checks["scale equivariance"] = all(eq)

    rho_curve = [
        solve_retention(MODEL, ConstantLoading(r), VAR75, 25).d_star
        for r in np.geomspace(0.05, 1.0, 6)
    ]
    p_curve = [
        solve_retention(MODEL, DecreasingLoading(0.5), DistortionMeasure.var(p), 100).d_star
        for p in (0.60, 0.70, 0.80, 0.90)
    ]
    checks["monotone in loading and risk level"] = bool(
        np.all(np.diff(rho_curve) > 0) and np.all(np.diff(p_curve) < 0)
    )

    unique = []
    for model in (ParetoII(9.0, 8.0), ParetoII(2.5, 3.0)):
        for rule in (DecreasingLoading(0.5), ConstantLoading(0.3)):
            for p in (0.6, 0.75):
                n = 10
                s = rule.rho * np.sqrt(n) if isinstance(rule, ConstantLoading) else rule.delta
                phi = DistortionMeasure.var(p).phi_normal()
                level = s * s / (s * s + phi * phi)
                d2 = model.scale * ((1.0 - level) ** (-1.0 / model.shape) - 1.0)
                grid = np.geomspace(max(d2, 1e-9) * (1 + 1e-9), d2 * 1e4 + 10.0, 4000)
                vals = np.array([
                    stationarity_function(model, rule, DistortionMeasure.var(p), n, d)
                    for d in grid
                ])
                flips = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
                unique.append(flips == 1)
    checks["unique stationary point"] = all(unique)

    small = McConfig(b=2000, m=100, seed=11)
    (alone,) = replicate_table2(MODEL, small, n_values=(500,), only="decreasing")
    table = replicate_table2(MODEL, small, n_values=(200, 500))
    checks["row independent of the table around it"] = alone in table

    failed = [name for name, ok in checks.items() if not ok]
    ok = not failed
    detail = (
        f"all {len(checks)} structural checks hold"
        if ok
        else "failed: " + ", ".join(failed)
    )
    _verdict(capsys, 6, ok, detail)


def test_criterion_7_analysis_pipeline(capsys, tmp_path):
    """End-to-end analysis on the bundled stand-in sample (or the real
    claim file when its path is supplied via the environment)."""
    problems = []

    losses = make_synthetic_losses()
    lorenz = summary_and_lorenz(losses).lorenz
    if not (tuple(lorenz[0]) == (0.0, 0.0) and tuple(lorenz[-1]) == (1.0, 1.0)):
        problems.append("Lorenz endpoints not exact")

    directions = {"rho": 1.0, "p": -1.0}
    grids = {"rho": "0.004:0.04:6", "p": "0.82:0.95:6"}
    for sweep, sign in directions.items():
        out = tmp_path / sweep
        code = cli.main([
            "analyze", "--synthetic", "--sweep", sweep, "--grid", grids[sweep],
            "--out", str(out),
        ])
        capsys.readouterr()
        if code != 0:
            problems.append(f"{sweep} sweep exited {code}")
            continue
        for family in ("decreasing", "stddev", "sharpe"):
            rows = (out / f"curve_{family}.csv").read_text().splitlines()[1:]
            cells = [row.split(",") for row in rows]
            if any(row[4] for row in cells):
                problems.append(f"{sweep}/{family} curve has error rows")
                continue
            d = np.array([float(row[1]) for row in cells])
            lo = np.array([float(row[2]) for row in cells])
            hi = np.array([float(row[3]) for row in cells])
            if not np.all((lo < d) & (d < hi)):
                problems.append(f"{sweep}/{family} CI band does not bracket")
            if not np.all(sign * np.diff(d) > 0):
                problems.append(f"{sweep}/{family} curve not monotone")

    claims = os.environ.get(CLAIMS_ENV, "")
    if claims and Path(claims).exists():
        out = tmp_path / "real"
        code = cli.main([
            "analyze", "--input", claims, "--sweep", "rho", "--out", str(out),
        ])
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        exact = (
            summary["count"] == 9613
            and round(summary["median"], 4) == 0.7633
            and round(summary["mean"], 4) == 1.9811
            and round(summary["max"], 2) == 315.54
        )
        if code != 0 or not exact:
            problems.append("real claim file summary mismatch")
        source = "real claim file"
    else:
        source = "synthetic stand-in (no claim file supplied)"

    ok = not problems
    detail = (
        f"monotone curves with CI bands and exact Lorenz endpoints on {source}"
        if ok
        else "; ".join(problems)
    )
    _verdict(capsys, 7, ok, detail)
