"""The benchmark's workloads: generated inputs, operations and output checks.

A workload is a list of operations run one after another by a single client.
An operation is either a cold ``xolopt`` command (a fresh interpreter, as a
user at a terminal pays for it) or, for the ``solve_retention`` sweep, a
batch of API calls inside the benchmark's own process.  Each operation feeds
one end-to-end metric and carries a check that judges the program's output
against ``refs`` (which never imports xolopt) or against properties the
method must have.

Every workload reports all end-to-end metrics: besides the operations that
give it its purpose, each round runs one small probe of every command that
belongs to another workload, so that a change anywhere shows on every
workload's figures while each workload still spends most of its time in its
own layers.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refs

ALPHA, LAM = 9.0, 8.0   # the paper's Lomax(9, 8) claim model, mean exactly 1
P = 0.75                # risk level of every VaR-based operation
MODEL_FLAGS = ["--model", "pareto", "--alpha", "9", "--lambda", "8"]

CLT_ROOT_RTOL = 1e-9        # constant/decreasing d* against the reference root
CLT_OBJECTIVE_RTOL = 1e-12  # stddev/sharpe objective at d* against the reference minimum
STOP_LOSS_RTOL = 1e-12
PLUGIN_SCAN_RTOL = 1e-7     # estimate d_hat against a dense scan of the plug-in objective
ESTIMATE_SE_FACTOR = 4.0    # |d_hat - d*(model)| <= 4 se
EXACT_COST_RTOL = 1e-3      # exact lattice cost excess of a simulated optimum
INSOLVENCY_ATOL = 0.02      # |prob - analytic_prob|
COVERAGE_FLOOR = 0.80       # table2 coverage below the largest n
CSV_DIGITS_RTOL = 1e-5      # a %.6g cell is within 5e-6 of its value


# ------------------------------------------------------------- inputs


def lomax_claims(seed: int, n: int = 10_000) -> np.ndarray:
    """Lomax(9, 8) claims by inversion, from a stream keyed by the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return refs.lomax_quantile(ALPHA, LAM, rng.random(n))


def heavy_claims(seed: int, n: int = 10_000) -> np.ndarray:
    """Heavy-tailed claims: a Lomax(2.6, 1.2) body floored at 1e-3 plus five
    claims blown up by a factor in [40, 120] and shifted by 50.

    The Lomax(9, 8) body is too light for the default ``analyze --sweep rho``
    grid: its sharpe curve ends in gap rows.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    body = np.maximum(refs.lomax_quantile(2.6, 1.2, rng.random(n)), 1e-3)
    idx = rng.choice(n, size=5, replace=False)
    body[idx] = body[idx] * rng.uniform(40.0, 120.0, size=5) + 50.0
    return body


def write_claims(path: Path, claims: np.ndarray) -> np.ndarray:
    """Write a loss CSV and return the values exactly as the file holds them."""
    text = "loss\n" + "\n".join(repr(float(v)) for v in claims) + "\n"
    path.write_text(text)
    return np.array([float(line) for line in text.split()[1:]])


# -------------------------------------------------------- operations


@dataclass
class Outcome:
    """What one cold command or in-process call left behind."""

    rc: int
    stdout: str
    seconds: float          # CPU seconds, user + system
    rss_mb: float | None
    out_dir: Path


@dataclass
class Op:
    """A CLI command that feeds one end-to-end metric."""

    metric: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    out_name: str


# ----------------------------------------------------------- checks


class References:
    """Reference values, cached across rounds: they do not depend on the seed."""

    def __init__(self):
        self._clt: dict = {}
        self._oracles: dict = {}

    def clt(self, rule: tuple[str, float], measure: tuple[str, float], n: int) -> float:
        name, param = rule
        key = (rule, measure, n if name == "constant" else 0)
        if key not in self._clt:
            self._clt[key] = refs.clt_optimum(ALPHA, LAM, rule, refs.phi(*measure), n)
        return self._clt[key]

    def oracle(self, rule: tuple[str, float], n: int) -> refs.ExactCostOracle:
        key = (rule, n)
        if key not in self._oracles:
            self._oracles[key] = refs.ExactCostOracle(
                ALPHA, LAM, rule, n, P, EXACT_COST_RTOL / 10.0
            )
        return self._oracles[key]

    def check_clt(self, rule, measure, n, d: float, what: str) -> list[str]:
        """d must be the CLT optimum: the reference root for constant and
        decreasing, no worse than the reference minimiser otherwise."""
        name, param = rule
        ref = self.clt(rule, measure, n)
        if name in ("constant", "decreasing"):
            if abs(d - ref) <= CLT_ROOT_RTOL * ref:
                return []
            return [f"{what}: d*={d!r} vs reference root {ref!r}"]
        phi = refs.phi(*measure)
        got = float(refs.scaled_objective(ALPHA, LAM, rule, phi, d))
        best = float(refs.scaled_objective(ALPHA, LAM, rule, phi, ref))
        if got <= best * (1.0 + CLT_OBJECTIVE_RTOL):
            return []
        return [f"{what}: objective {got!r} at d*={d!r} above reference {best!r}"]


def _json(out: Outcome):
    return json.loads(out.stdout)


def _rule_of(name: str, params: dict) -> tuple[str, float]:
    return name, float(next(iter(params.values())))


def _measure_of(text: str) -> tuple[str, float]:
    kind, param = text.split(":")
    return kind, float(param)


def check_optimize(ref: References) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        sol = _json(out)
        if sol["rule"] == "sl":
            want = refs.stop_loss_retention(ALPHA, LAM, sol["rho"])
            if abs(sol["d_star"] - want) <= STOP_LOSS_RTOL * want:
                return []
            return [f"sl: d*={sol['d_star']!r} vs closed form {want!r}"]
        return ref.check_clt(_rule_of(sol["rule"], sol["rule_params"]),
                             _measure_of(sol["measure"]), sol["n_contracts"],
                             sol["d_star"], f"optimize {sol['rule']}")
    return check


class ClaimFile:
    """A generated claim file with the plug-in references the checks need."""

    def __init__(self, path: Path, claims: np.ndarray):
        self.path = path
        self.claims = write_claims(path, claims)
        self.plugin = refs.PlugIn(self.claims)
        self._scan: dict = {}

    def scan_minimum(self, rule, phi: float) -> float:
        key = (rule, phi)
        if key not in self._scan:
            self._scan[key] = self.plugin.scan_minimum(rule, phi)
        return self._scan[key]


def check_estimate(ref: References, claims: ClaimFile) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        est = _json(out)
        rule = _rule_of(est["rule"], est["rule_params"])
        measure = _measure_of(est["measure"])
        phi = refs.phi(*measure)
        d_hat, se, (lo, hi) = est["d_hat"], est["std_error"], est["ci"]
        problems = []
        got = float(claims.plugin.objective(rule, phi, d_hat))
        scan = claims.scan_minimum(rule, phi)
        if not got <= scan * (1.0 + PLUGIN_SCAN_RTOL):
            problems.append(f"estimate {rule[0]}: plug-in objective {got!r} at "
                            f"d_hat={d_hat!r} above dense-scan minimum {scan!r}")
        if not (se > 0.0 and lo <= d_hat <= hi):
            problems.append(f"estimate {rule[0]}: se={se!r} ci=({lo!r}, {hi!r})")
        d_model = ref.clt(rule, measure, est["n"])
        if not abs(d_hat - d_model) <= ESTIMATE_SE_FACTOR * se:
            problems.append(f"estimate {rule[0]}: d_hat={d_hat!r} is more than "
                            f"{ESTIMATE_SE_FACTOR} se from d*(model)={d_model!r}")
        return problems
    return check


def check_selfcheck(out: Outcome) -> list[str]:
    report = _json(out)
    if report["passed"] and report["checks"]:
        return []
    return [f"selfcheck: {c['check']} {c['detail']}" for c in report["checks"]
            if not c["passed"]] or ["selfcheck: no checks ran"]


_TABLE1_PARAMS = {"decreasing": ("decreasing", 0.5), "stddev": ("stddev", 0.5)}
_TABLE1_N = (10, 25, 100)


def check_table1(ref: References, only: str, exact: bool,
                 notes: dict) -> Callable[[Outcome], list[str]]:
    """One CLT row per N whose d_approx meets the optimize checks; with
    ``exact``, every simulated optimum costs less than 1e-3 above the exact
    lattice minimum."""
    rule = _TABLE1_PARAMS[only]

    def check(out: Outcome) -> list[str]:
        rows = _json(out)
        got = [(r["rule"], r["n"], r["approx_order"]) for r in rows]
        want = [(only, n, "o(sqrt(N))") for n in _TABLE1_N]
        if got != want:
            return [f"table1 {only}: rows {got} instead of {want}"]
        problems = []
        for r in rows:
            n, d_act, d_apx = r["n"], r["d_actual"], r["d_approx"]
            pct = 100.0 * (d_apx - d_act) / d_act
            if not abs(r["rel_diff_pct"] - pct) <= 1e-9 * max(1.0, abs(pct)):
                problems.append(f"table1 {only} n={n}: rel_diff_pct {r['rel_diff_pct']!r}")
            problems += ref.check_clt(rule, ("var", P), n, d_apx, f"table1 {only} n={n} d_approx")
            if exact:
                excess = ref.oracle(rule, n).excess(d_act)
                notes[f"exact excess table1 {only} N={n} d_actual"] = excess
                if not excess < EXACT_COST_RTOL:
                    problems.append(f"table1 {only} n={n}: exact cost at "
                                    f"d_actual={d_act!r} exceeds the minimum by {excess:.3g}")
        return problems
    return check


def check_insolvency(ref: References, rho: float, ns: tuple[int, ...],
                     notes: dict) -> Callable[[Outcome], list[str]]:
    rule = ("constant", rho)

    def check(out: Outcome) -> list[str]:
        rows = _json(out)
        if [r["n"] for r in rows] != list(ns):
            return [f"insolvency: rows for N={[r['n'] for r in rows]}"]
        problems = []
        for r in rows:
            n, d = r["n"], r["d_star"]
            survival = float(refs.lomax_survival(ALPHA, LAM, d))
            analytic = (1.0 - P) if survival < (1.0 - P) ** (1.0 / n) else 0.0
            if r["analytic_prob"] != analytic:
                problems.append(f"insolvency N={n}: analytic_prob {r['analytic_prob']!r} "
                                f"vs {analytic!r} from the survival at d*={d!r}")
            if not abs(r["prob"] - r["analytic_prob"]) <= INSOLVENCY_ATOL:
                problems.append(f"insolvency N={n}: prob {r['prob']!r} vs "
                                f"analytic {r['analytic_prob']!r}")
            excess = ref.oracle(rule, n).excess(d)
            notes[f"exact excess insolvency N={n} d_star"] = excess
            if not excess < EXACT_COST_RTOL:
                problems.append(f"insolvency N={n}: exact cost at d*={d!r} "
                                f"exceeds the minimum by {excess:.3g}")
        return problems
    return check


_TABLE2_PARAMS = {"decreasing": ("decreasing", 0.5), "stddev": ("stddev", 0.5),
                  "sharpe": ("sharpe", 0.5)}
_TABLE2_N = (500, 2000, 10000)


def check_table2(ref: References, families: tuple[str, ...], m: int,
                 notes: dict) -> Callable[[Outcome], list[str]]:
    """d_true is the CLT optimum and no replication failed.  Coverage must be
    within 4 binomial sd of 0.95 at n = 10000; the Wald interval is only
    asymptotically exact, and at n = 500 its coverage is about 0.92
    (stddev) and 0.94 (sharpe), so smaller n are held to a floor of 0.80."""
    band = 4.0 * math.sqrt(0.95 * 0.05 / m)

    def check(out: Outcome) -> list[str]:
        rows = _json(out)
        got = [(r["rule"], r["n"]) for r in rows]
        want = [(f, n) for f in families for n in _TABLE2_N]
        if got != want:
            return [f"table2: rows {got} instead of {want}"]
        problems = []
        for r in rows:
            what = f"table2 {r['rule']} n={r['n']}"
            problems += ref.check_clt(_TABLE2_PARAMS[r["rule"]], ("var", P), r["n"],
                                      r["d_true"], what + " d_true")
            if r["failures"] != 0:
                problems.append(f"{what}: {r['failures']} failed replications")
            notes[f"{what} coverage (M={m})"] = r["coverage"]
            if r["n"] == max(_TABLE2_N):
                if not abs(r["coverage"] - 0.95) <= band:
                    problems.append(f"{what}: coverage {r['coverage']!r} outside 0.95 +- {band:.3g}")
            elif not r["coverage"] >= COVERAGE_FLOOR:
                problems.append(f"{what}: coverage {r['coverage']!r} below {COVERAGE_FLOOR}")
        return problems
    return check


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_analyze(claims: ClaimFile, sweep: str, fixed: float,
                  svg: bool) -> Callable[[Outcome], list[str]]:
    """Summary equal to numpy, exact Lorenz endpoints, gap-free monotone
    curves whose CI brackets d_hat, and decreasing points that are sign
    changes of the reference plug-in first-order condition."""
    x = claims.claims

    def check(out: Outcome) -> list[str]:
        d = out.out_dir
        problems = []
        summary = json.loads((d / "summary.json").read_text())
        mean = float(np.mean(x))
        if not (summary["count"] == x.size and summary["max"] == float(x.max())
                and summary["median"] == float(np.median(x))
                and abs(summary["mean"] - mean) <= 1e-12 * mean):
            problems.append(f"analyze: summary {summary} differs from numpy")
        _, lorenz = _read_csv(d / "lorenz.csv")
        ends = [tuple(map(float, lorenz[0])), tuple(map(float, lorenz[-1]))]
        if len(lorenz) != x.size + 1 or ends != [(0.0, 0.0), (1.0, 1.0)]:
            problems.append(f"analyze: lorenz has {len(lorenz)} rows, ends {ends}")
        _, dens = _read_csv(d / "density.csv")
        if len(dens) != 200 or min(float(r[1]) for r in dens) < 0.0:
            problems.append("analyze: density.csv is not 200 nonnegative rows")
        for family in _TABLE2_PARAMS:
            problems += _check_curve(claims, d / f"curve_{family}.csv", family, sweep, fixed)
            if svg and not (d / f"curve_{family}.svg").read_text().lstrip().startswith("<"):
                problems.append(f"analyze: curve_{family}.svg is not SVG")
        return problems
    return check


def _check_curve(claims: ClaimFile, path: Path, family: str, sweep: str,
                 fixed: float) -> list[str]:
    _, rows = _read_csv(path)
    errors = [r for r in rows if len(r) != 5 or r[4]]
    if errors or not rows:
        return [f"analyze {sweep} {family}: error rows {errors[:2]}"]
    param, d_hat, lo, hi = (np.array([float(r[i]) for r in rows]) for i in range(4))
    problems = []
    if not np.all((lo <= d_hat) & (d_hat <= hi)):
        problems.append(f"analyze {sweep} {family}: CI does not bracket d_hat")
    step = np.diff(d_hat)
    if not (np.all(step > 0.0) if sweep == "rho" else np.all(step < 0.0)):
        problems.append(f"analyze {sweep} {family}: d_hat {list(d_hat)} not monotone in {sweep}")
    if family == "decreasing":
        n = claims.claims.size
        for v, d in zip(param, d_hat):
            rho, p = (v, fixed) if sweep == "rho" else (fixed, v)
            foc = claims.plugin.foc(rho * math.sqrt(n), refs.phi("var", p),
                                    np.array([d * (1 - CSV_DIGITS_RTOL), d * (1 + CSV_DIGITS_RTOL)]))
            if not (foc[0] <= 0.0 <= foc[1]):
                problems.append(f"analyze {sweep} decreasing {sweep}={v}: d_hat={d} "
                                f"is not a sign change of the plug-in FOC {list(foc)}")
    return problems


# ---------------------------------------------------------- the sweep


SWEEP_RULES = [("constant", 0.1), ("constant", 0.3), ("decreasing", 0.25),
               ("decreasing", 0.5), ("stddev", 0.25), ("stddev", 0.5),
               ("sharpe", 0.25), ("sharpe", 0.5)]
# sharpe with rho0 = 1 has no interior optimum under the small-phi measures
# (NoRootFound), so the sweep stops at rho0 = 0.5.
SWEEP_MEASURES = [("var", 0.75), ("var", 0.95), ("es", 0.9), ("wang", 0.5),
                  ("dualpower", 2.0), ("gini", 0.5)]
SWEEP_N = (10, 25, 100, 1000)
EDGEWORTH_RHO = 0.3
EDGEWORTH_CASES = [(n, order) for n in (10, 25, 100) for order in (2, 3)]
STOP_LOSS_RHO = (0.1, 0.3, 0.5)


SWEEP_PARTS = 4


@dataclass(frozen=True)
class SweepPart:
    """Every SWEEP_PARTS-th solve_retention case of the sweep, from ``index``;
    part 0 also runs the Edgeworth and stop-loss solvers, untimed."""

    index: int


def run_sweep(xo, part: SweepPart) -> tuple[float, int, list, list[str]]:
    """One timed slice of the solve_retention sweep.  Returns (solve CPU
    seconds, solves, results, errors)."""
    model = xo.ParetoII(ALPHA, LAM)
    makers = {"constant": xo.ConstantLoading, "decreasing": xo.DecreasingLoading,
              "stddev": xo.StdDevLoading, "sharpe": xo.SharpeLoading}
    cases = [(rule, measure, n) for rule in SWEEP_RULES for measure in SWEEP_MEASURES
             for n in SWEEP_N][part.index::SWEEP_PARTS]
    args = [(makers[r[0]](r[1]), xo.DistortionMeasure(*m), n) for r, m, n in cases]
    results, errors = [], []
    start = time.process_time()
    for case, (rule, measure, n) in zip(cases, args):
        try:
            results.append((case, xo.solve_retention(model, rule, measure, n).d_star))
        except xo.XoloptError as exc:
            errors.append(f"solve_retention {case}: {type(exc).__name__}: {exc}")
    seconds = time.process_time() - start
    if part.index:
        return seconds, len(cases), results, errors
    for n, order in EDGEWORTH_CASES:
        try:
            sol = xo.solve_retention_edgeworth(model, xo.ConstantLoading(EDGEWORTH_RHO), P, n, order)
            results.append(((("edgeworth", order), ("var", P), n), sol.d_star))
        except xo.XoloptError as exc:
            errors.append(f"edgeworth n={n} order={order}: {type(exc).__name__}: {exc}")
    for rho in STOP_LOSS_RHO:
        results.append(((("sl", rho), ("var", P), 0), xo.stop_loss_retention(model, rho, P)))
    return seconds, len(cases), results, errors


def check_sweep_result(ref: References, case, d: float) -> list[str]:
    rule, measure, n = case
    if rule[0] == "sl":
        want = refs.stop_loss_retention(ALPHA, LAM, rule[1])
        return [] if abs(d - want) <= STOP_LOSS_RTOL * want else \
            [f"stop_loss_retention rho={rule[1]}: {d!r} vs {want!r}"]
    if rule[0] == "edgeworth":
        # no closed form: the refined optimum must be an interior retention
        lo = refs.lomax_quantile(ALPHA, LAM, 1e-4)
        hi = refs.lomax_quantile(ALPHA, LAM, 1.0 - 1e-6)
        return [] if lo < d < hi else [f"edgeworth n={n} order={rule[1]}: d*={d!r}"]
    return ref.check_clt(rule, measure, n, d, f"sweep {rule} {measure} N={n}")


# ------------------------------------------------------- the workloads


TABLE2_M = 100        # replications of the estimation workload's table2
MC_TABLE1_B = 10000   # portfolios per quantile in the mc-oracle table1
PROBE_TABLE2_M = 100
PROBE_TABLE1_B = 1000   # the smallest count McConfig accepts


@dataclass
class Plan:
    """A round: CLI operations and sweep parts, interleaved so that the
    samples of one metric are spread over the round."""

    steps: list
    notes: dict


def build(workload: str, seed: int, work: Path, ref: References) -> Plan:
    """Generate the workload's inputs from the seed and list its operations."""
    lomax = ClaimFile(work / "lomax.csv", lomax_claims(seed))
    heavy = ClaimFile(work / "heavy.csv", heavy_claims(seed))
    notes: dict = {}
    common = ["--seed", str(seed), "--json"]

    def op(metric, argv, check, name):
        return Op(metric, argv + common + ["--out", str(work / name)], check, name)

    optimize = [
        ["--rule", "constant", "--rho", "0.3", "--N", "25"],
        ["--rule", "decreasing", "--delta", "0.5", "--N", "100"],
        ["--rule", "stddev", "--rho0", "0.5", "--N", "100", "--measure", "es:0.9"],
        ["--rule", "sharpe", "--rho0", "0.5", "--N", "100"],
        ["--rule", "sl", "--rho", "0.3"],
    ]
    estimate = [["--rule", "decreasing", "--delta", "0.5"],
                ["--rule", "stddev", "--rho0", "0.5"],
                ["--rule", "sharpe", "--rho0", "0.5"]]

    def optimize_op(i):
        return op("optimize_s", ["optimize"] + MODEL_FLAGS + optimize[i],
                  check_optimize(ref), f"optimize{i}")

    def estimate_op(i):
        return op("estimate_s", ["estimate", "--input", str(lomax.path)] + estimate[i],
                  check_estimate(ref, lomax), f"estimate{i}")

    selfcheck = op("selfcheck_s", ["selfcheck"], check_selfcheck, "selfcheck")

    def table1_op(only, b, exact):
        return op("table1_s", ["simulate", "table1", "--only", only, "--B", str(b)],
                  check_table1(ref, only, exact, notes), f"table1_{only}")

    def insolvency_op(ns):
        return op("insolvency_s",
                  ["simulate", "insolvency", "--rho", "0.2", "--N", *map(str, ns)],
                  check_insolvency(ref, 0.2, ns, notes), "insolvency")

    def table2_op(m, only):
        argv = ["simulate", "table2", "--M", str(m)] + (["--only", only] if only else [])
        families = (only,) if only else tuple(_TABLE2_PARAMS)
        return op("table2_s", argv, check_table2(ref, families, m, notes), "table2")

    def analyze_op(sweep, svg, name):
        argv = ["analyze", "--input", str(heavy.path), "--sweep", sweep]
        argv += ["--svg"] if svg else []
        fixed = 0.9 if sweep == "rho" else 0.005  # the CLI's --fixed-p / --fixed-rho defaults
        return op("analyze_s", argv, check_analyze(heavy, sweep, fixed, svg), name)

    # Probes: the cheapest form of each command a workload does not exist
    # for, so that every workload reports every end-to-end metric.
    p_table1 = table1_op("decreasing", PROBE_TABLE1_B, False)
    p_insolvency = insolvency_op((2, 3))
    p_table2 = table2_op(PROBE_TABLE2_M, "decreasing")
    p_analyze = analyze_op("p", False, "analyze")
    sw = [SweepPart(i) for i in range(SWEEP_PARTS)]  # a round runs the sweep twice
    if workload == "desk":
        o = [optimize_op(i) for i in range(len(optimize))]
        e = [estimate_op(i) for i in range(len(estimate))]
        steps = [o[0], sw[0], e[0], p_table1, sw[1], o[1], e[1], sw[2], selfcheck,
                 p_insolvency, sw[3], o[2], e[2], sw[0], p_table2, o[3], sw[1], p_analyze,
                 sw[2], selfcheck, o[4], sw[3]]
        return Plan(steps, notes)
    if workload == "mc-oracle":
        # table1 --only constant is left out: on some seeds its N = 100
        # brute-force optimum lands on the grid edge (GridBoundaryMinimum).
        steps = [table1_op("stddev", MC_TABLE1_B, True), sw[0], optimize_op(1), sw[1],
                 p_table2, sw[2], estimate_op(0), sw[3], insolvency_op((2, 3, 5, 10)),
                 sw[0], selfcheck, sw[1], p_analyze, sw[2], optimize_op(3), sw[3]]
        return Plan(steps, notes)
    if workload == "estimation":
        steps = [table2_op(TABLE2_M, None), sw[0], optimize_op(1), sw[1], p_table1, sw[2],
                 analyze_op("rho", True, "analyze_rho"), sw[3], estimate_op(0), sw[0],
                 selfcheck, sw[1], p_insolvency, sw[2], analyze_op("p", False, "analyze_p"),
                 sw[3], optimize_op(3)]
        return Plan(steps, notes)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("desk", "mc-oracle", "estimation")
END_TO_END = {
    "setup_s": ("s", "lower"),
    "optimize_s": ("s", "lower"),
    "estimate_s": ("s", "lower"),
    "selfcheck_s": ("s", "lower"),
    "solves_per_s": ("1/s", "higher"),
    "table1_s": ("s", "lower"),
    "insolvency_s": ("s", "lower"),
    "table2_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
