"""Seeded Monte Carlo oracle for retention studies.

Estimates the true quantile of the total cost by simulation, locates the
"actual" optimal retention by a common-random-number grid search, reproduces
the approximation and estimation study tables, and runs the insolvency and
turning-point analyses for small portfolios.

Every operation derives its randomness from named substreams of the config
seed, so results are bit-identical across runs, and a table row does not
depend on which other rows the table holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distortion import DistortionMeasure
from .errors import DomainError, GridBoundaryMinimum, XoloptError
from .inference import _estimate
from .numerics import golden_refine, log_spaced_grid
from .retention import (
    ConstantLoading,
    DecreasingLoading,
    LoadingRule,
    SharpeLoading,
    StdDevLoading,
    _validate_n,
    effective_rho,
    solve_retention,
    solve_retention_edgeworth,
)
from .severity import SeverityModel

# substream codes; replication indices are appended after these
_STREAM_VAR_COST = 1
_STREAM_ESTIMATION = 2
_STREAM_TURNING = 3
_RULE_STREAM = {"decreasing": 1, "stddev": 2, "sharpe": 3}

# cap on simultaneously materialised draws (elements, not bytes)
_CHUNK_ELEMENTS = 50_000_000
# cap on claims plus cells binned at once, which bounds the binning temporaries
_BIN_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and seeding for the Monte Carlo oracle.

    b is the number of simulated portfolios behind each quantile estimate;
    m is the number of outer replications in estimator studies.  Defaults
    are desk scale; full_scale() returns the full-size configuration.
    """

    b: int = 20000
    m: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.b, (int, np.integer)) and self.b >= 1000):
            raise DomainError(f"quantile sample count must be >= 1000, got {self.b}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 100):
            raise DomainError(f"replication count must be >= 100, got {self.m}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")

    def full_scale(self) -> "McConfig":
        return replace(self, b=50000, m=5000)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a named position in the simulation plan."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class McTableRow:
    rule: str
    n: int
    approx_order: str
    d_actual: float
    d_approx: float
    rel_diff_pct: float


@dataclass(frozen=True)
class McEstimateRow:
    rule: str
    n: int
    d_true: float
    mean_d_hat: float
    bias_pct: float
    theo_se: float
    emp_se: float
    diff_pct: float
    coverage: float
    failures: int


@dataclass(frozen=True)
class BruteForceResult:
    """Simulated optimum: d_actual, the averaged VaR there and its standard
    error over the batches, and the portfolios drawn in all."""

    d_actual: float
    var_at_optimum: float
    portfolios: int
    var_se: float


@dataclass(frozen=True)
class InsolvencyResult:
    n: int
    d_star: float
    prob: float
    analytic_prob: float


class _CostOracle:
    """Total-cost quantile evaluator over a fixed set of simulated portfolios.

    All retentions are evaluated against the same draws (common random
    numbers), so the d -> VaR map is a deterministic function once the seed
    is fixed.  Draws are materialised when small enough and regenerated in
    chunks otherwise; both paths consume the stream in the same order.

    Cost: a grid of G retentions takes one binned O(B*N + B*G) pass over the
    B x N draws (each claim is binned by the first retention at or above it,
    and per-row cumulative cell sums give every capped sum), and a
    refinement bracket takes one more; each retention inside the bracket
    then costs O(B + k), for the k claims that fall inside it.
    """

    def __init__(self, model: SeverityModel, n: int, cfg: McConfig, *key: int):
        _validate_n(n)
        self.model = model
        self.n = int(n)
        self.b = cfg.b
        self._seed = cfg.seed
        self._key = key
        total = self.b * self.n
        if total <= _CHUNK_ELEMENTS:
            rng = substream(self._seed, *key)
            self._matrix = model.sample_rng(total, rng).reshape(self.b, self.n)
        else:
            self._matrix = None

    def _blocks(self):
        if self._matrix is not None:
            yield self._matrix
            return
        rng = substream(self._seed, *self._key)
        rows_per = max(1, _CHUNK_ELEMENTS // self.n)
        done = 0
        while done < self.b:
            rows = min(rows_per, self.b - done)
            yield self.model.sample_rng(rows * self.n, rng).reshape(rows, self.n)
            done += rows

    def _binned(self, edges: np.ndarray):
        """Per-row cell sums and counts of the draws, a bounded row chunk at a time.

        Yields (first row, draws, cell of each claim, sums, counts): a claim's
        cell is the index of the first edge at or above it, and sums/counts
        are (cells, rows), so that every row is reduced alone and the result
        does not depend on the chunking.
        """
        cells = edges.size + 1
        rows_per = max(1, _BIN_ELEMENTS // (self.n + cells))
        first = 0
        for block in self._blocks():
            for lo in range(0, block.shape[0], rows_per):
                part = block[lo:lo + rows_per]
                r = part.shape[0]
                cell = np.searchsorted(edges, part)
                flat = (cell * r + np.arange(r)[:, None]).ravel()
                sums = np.bincount(flat, weights=part.ravel(), minlength=cells * r)
                counts = np.bincount(flat, minlength=cells * r)
                yield first, part, cell, sums.reshape(cells, r), counts.reshape(cells, r)
                first += r

    def capped_stats(self, d_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p-free pieces: all capped sums (b per d) and pooled excess means."""
        d_values = np.asarray(d_values, dtype=float)
        sums = np.empty((d_values.size, self.b))
        totals = np.empty(self.b)
        for first, part, _, cell_sums, cell_counts in self._binned(d_values):
            span = slice(first, first + part.shape[0])
            below = np.cumsum(cell_sums, axis=0, out=cell_sums)
            above = np.cumsum(cell_counts[:-1], axis=0)
            np.subtract(self.n, above, out=above)
            np.multiply(d_values[:, None], above, out=sums[:, span])
            sums[:, span] += below[:-1]
            totals[span] = below[-1]
        # the excess comes from whole per-row totals, so chunking moves no bit
        excess = np.array([(totals - s).sum() for s in sums])
        return sums, excess / (self.b * self.n)

    def bracket(self, lo: float, hi: float) -> "_Bracket":
        """Capped sums for any retention in [lo, hi], from one more pass."""
        below = np.empty(self.b)
        count = np.empty(self.b, dtype=np.int64)
        totals = np.empty(self.b)
        xs, row_ids = [], []
        for first, part, cell, cell_sums, cell_counts in self._binned(np.array([lo, hi])):
            span = slice(first, first + part.shape[0])
            below[span] = cell_sums[0]
            count[span] = cell_counts[0]
            totals[span] = cell_sums.sum(axis=0)
            r, c = np.nonzero(cell == 1)
            xs.append(part[r, c])
            row_ids.append(r + first)
        return _Bracket(self, below, count, totals, np.concatenate(xs), np.concatenate(row_ids))

    def quantile_index(self, p: float) -> int:
        k = int(math.ceil(p * self.b - 1e-9))
        return min(max(k, 1), self.b) - 1

    def var_values(self, rule: LoadingRule, p: float, d_values) -> np.ndarray:
        d_values = np.asarray(d_values, dtype=float)
        sums, nu1 = self.capped_stats(d_values)
        return np.array([self.var_from(rule, p, float(d), s, e)
                         for d, s, e in zip(d_values, sums, nu1)])

    def var_from(self, rule: LoadingRule, p: float, d: float, sums: np.ndarray,
                 nu1: float) -> float:
        """Total-cost quantile at d from its capped sums and pooled excess mean."""
        idx = self.quantile_index(p)
        quant = np.partition(sums, idx)[idx]
        rho_eff = effective_rho(self.model, rule, self.n, d)
        return float(quant + (1.0 + rho_eff) * self.n * nu1)


@dataclass(frozen=True, eq=False)
class _Bracket:
    """One oracle's draws reduced to what a retention in [lo, hi] needs.

    Per row: the sum and count of the claims at or below lo and the row
    total; besides, every claim in (lo, hi] with its row.
    """

    oracle: _CostOracle
    below: np.ndarray
    count: np.ndarray
    totals: np.ndarray
    x: np.ndarray
    row: np.ndarray

    def capped_stats(self, d: float) -> tuple[np.ndarray, float]:
        """Capped sums and pooled excess mean at one d in [lo, hi]."""
        o = self.oracle
        inside = self.x <= d
        row = self.row[inside]
        below = self.below + np.bincount(row, weights=self.x[inside], minlength=o.b)
        above = o.n - (self.count + np.bincount(row, minlength=o.b))
        sums = below + d * above
        return sums, float((self.totals - sums).sum()) / (o.b * o.n)

    def var(self, rule: LoadingRule, p: float, d: float) -> float:
        sums, nu1 = self.capped_stats(d)
        return self.oracle.var_from(rule, p, d, sums, nu1)


def mc_var_total_cost(
    model: SeverityModel,
    rule: LoadingRule,
    n: int,
    p: float,
    d: float,
    cfg: McConfig,
) -> float:
    """Simulated p-quantile of the total cost at retention d.

    The capped-loss quantile is the order statistic at ceil(p*b); the
    premium adds the effective loading on the pooled mean ceded loss.  The
    substream is keyed by the portfolio size only, so different retentions
    reuse identical draws.
    """
    if not d > 0.0:
        raise DomainError(f"retention must be positive, got {d}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    oracle = _CostOracle(model, n, cfg, _STREAM_VAR_COST, n)
    return float(oracle.var_values(rule, p, [d])[0])


def _default_grid(model: SeverityModel, size: int = 80) -> np.ndarray:
    return log_spaced_grid(model.quantile(0.01), model.quantile(1.0 - 1e-5), size)


# batches averaged into the quantile curve before taking its argmin
_VAR_BATCHES = 5


def brute_force_optimal(
    model: SeverityModel,
    rule: LoadingRule,
    n: int,
    p: float,
    cfg: McConfig,
) -> BruteForceResult:
    """Grid argmin of the simulated total-cost quantile, golden-refined.

    The quantile curve is flat near its minimum, so the argmin of a single
    batch is noisy; the curve is therefore averaged over a few independent
    common-random-number batches before the scan.  Within each batch every
    retention sees identical draws, keeping the averaged map deterministic
    through the refinement pass.

    Each batch costs one binned O(B*N) pass for the whole grid and one for
    the refinement bracket; each golden step then costs O(B + k) per batch,
    for the k claims inside the bracket.  The result reports the portfolios
    drawn over all batches and the standard error of the averaged VaR at
    the optimum, from the spread of the batch VaRs there.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    grid = _default_grid(model)
    oracles = [
        _CostOracle(model, n, cfg, _STREAM_VAR_COST, n, batch)
        for batch in range(_VAR_BATCHES)
    ]
    batches = np.array([o.var_values(rule, p, grid) for o in oracles])
    values = batches.mean(axis=0)
    i = int(np.argmin(values))
    if i == 0 or i == grid.size - 1:
        raise GridBoundaryMinimum(
            f"simulated optimum sits at the grid edge d={grid[i]:g}; widen the grid"
        )
    brackets = [o.bracket(grid[i - 1], grid[i + 1]) for o in oracles]
    seen = {}

    def averaged(d: float) -> float:
        seen[d] = np.array([br.var(rule, p, d) for br in brackets])
        return float(seen[d].mean())

    res = golden_refine(averaged, grid, values, i)
    # golden_refine keeps grid[i] when the search ends higher
    at_optimum = seen.get(res.x, batches[:, i])
    return BruteForceResult(
        d_actual=res.x,
        var_at_optimum=res.fx,
        portfolios=_VAR_BATCHES * cfg.b,
        var_se=float(at_optimum.std(ddof=1)) / math.sqrt(_VAR_BATCHES),
    )


def insolvency_probability(
    model: SeverityModel,
    n: int,
    rho: float,
    p: float,
    cfg: McConfig,
) -> InsolvencyResult:
    """Chance that the total cost at the optimal retention exceeds its VaR.

    For small portfolios the capped sum places an atom at n*d; when that
    atom covers the p-quantile the exceedance probability collapses to zero
    instead of 1-p.  The analytic criterion compares the survival at d*
    with (1-p)^(1/n).
    """
    if not rho > 0.0:
        raise DomainError(f"loading must be positive, got {rho}")
    rule = ConstantLoading(rho)
    best = brute_force_optimal(model, rule, n, p, cfg)
    d_star = best.d_actual
    oracle = _CostOracle(model, n, cfg, _STREAM_VAR_COST, n)
    sums, _ = oracle.capped_stats(np.array([d_star]))
    s = sums[0]
    idx = oracle.quantile_index(p)
    quant = np.partition(s, idx)[idx]
    prob = float(np.count_nonzero(s > quant)) / cfg.b
    analytic = (1.0 - p) if model.survival(d_star) < (1.0 - p) ** (1.0 / n) else 0.0
    return InsolvencyResult(n=n, d_star=d_star, prob=prob, analytic_prob=analytic)


def turning_points(
    model: SeverityModel,
    n: int,
    p: float,
    cfg: McConfig,
) -> list[float]:
    """Retentions where the capped-sum law shifts mass onto its upper kinks.

    The i-th point solves P(sum of capped losses >= (n-i+1)*d) = 1-p for
    i = 1..n-1, exactly on the simulated draws.  A row meets the i-th event
    just when d is at most its threshold tau_i: with the row sorted and P_m
    its prefix sums, m* is the last m with P_m >= (m-i+1)*x_(m), and
    tau_i = P_m* / (m*-i+1).  The i-th point is the (j+1)-th largest tau_i,
    for the largest j with j/b <= 1-p.  Only the b x (n-1) thresholds are
    kept, so the draws are streamed as the cost oracle does.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"portfolio size must be at least 2, got {n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    oracle = _CostOracle(model, n, cfg, _STREAM_TURNING, n)
    m = np.arange(1, n + 1)
    taus = np.empty((n - 1, cfg.b))
    first = 0
    for block in oracle._blocks():
        x = np.sort(block, axis=1)
        prefix = np.cumsum(x, axis=1)
        rows = np.arange(x.shape[0])
        for i in range(1, n):
            met = prefix >= (m - i + 1) * x
            m_star = n - np.argmax(met[:, ::-1], axis=1)  # m = i always qualifies
            taus[i - 1, first:first + x.shape[0]] = (
                prefix[rows, m_star - 1] / (m_star - i + 1)
            )
        first += x.shape[0]
    # more than a 1-p share of rows meet the event exactly up to the
    # (j+1)-th largest threshold
    j = np.count_nonzero(np.arange(cfg.b + 1) / cfg.b <= 1.0 - p) - 1
    k = cfg.b - 1 - j
    return [float(v) for v in np.partition(taus, k, axis=1)[:, k]]


_TABLE1_ORDERS = ("o(sqrt(N))", "o(1)", "o(1/sqrt(N))")


def replicate_table1(
    model: SeverityModel,
    cfg: McConfig,
    p: float = 0.75,
    n_values: tuple[int, ...] = (10, 25, 100),
    rho: float = 0.3,
    delta: float = 0.5,
    rho0: float = 0.5,
    only: str | None = None,
) -> list[McTableRow]:
    """Actual-vs-approximate optima across rules, sizes, and orders."""
    measure = DistortionMeasure.var(p)
    constant = ConstantLoading(rho)
    rules = _only([constant, DecreasingLoading(delta), StdDevLoading(rho0),
                   SharpeLoading(rho0)], only)
    rows: list[McTableRow] = []
    for rule in rules:
        for n in n_values:
            actual = brute_force_optimal(model, rule, n, p, cfg).d_actual
            approx = [solve_retention(model, rule, measure, n).d_star]
            if rule is constant:  # the Edgeworth refinements exist for it alone
                approx += [solve_retention_edgeworth(model, rule, p, n, order).d_star
                           for order in (2, 3)]
            for order, d_approx in zip(_TABLE1_ORDERS, approx):
                rows.append(
                    McTableRow(
                        rule=rule.name,
                        n=n,
                        approx_order=order,
                        d_actual=actual,
                        d_approx=d_approx,
                        rel_diff_pct=100.0 * (d_approx - actual) / actual,
                    )
                )
    return rows


def _only(rules: list[LoadingRule], only: str | None) -> list[LoadingRule]:
    """The rules named by a row filter (all of them for None)."""
    if only is None:
        return rules
    kept = [rule for rule in rules if rule.name == only]
    if not kept:
        raise DomainError(f"unknown rule filter {only!r}")
    return kept


def _estimate_once(
    model: SeverityModel,
    rule: LoadingRule,
    measure: DistortionMeasure,
    n: int,
    seed: int,
    rep: int,
) -> tuple[float, float, float, float]:
    rng = substream(seed, _STREAM_ESTIMATION, _RULE_STREAM[rule.name], n, rep)
    r = _estimate(model.sample_rng(n, rng), rule, measure)
    return r.d_hat, r.std_error, r.ci[0], r.ci[1]


def replicate_table2(
    model: SeverityModel,
    cfg: McConfig,
    p: float = 0.75,
    n_values: tuple[int, ...] = (500, 2000, 10000),
    delta: float = 0.5,
    rho0: float = 0.5,
    only: str | None = None,
) -> list[McEstimateRow]:
    """Bias, SE agreement, and CI coverage of the nonparametric estimators.

    Each replication draws a fresh sample from its own substream keyed by
    (rule, n, replication), so a row is the same whatever else the table
    holds.
    """
    measure = DistortionMeasure.var(p)
    rules = _only([DecreasingLoading(delta), StdDevLoading(rho0), SharpeLoading(rho0)], only)
    rows: list[McEstimateRow] = []
    for rule in rules:
        for n in n_values:
            d_true = solve_retention(model, rule, measure, n).d_star
            kept = []
            for rep in range(cfg.m):
                try:
                    kept.append(_estimate_once(model, rule, measure, n, cfg.seed, rep))
                except XoloptError:
                    pass
            failures = cfg.m - len(kept)
            if not kept:
                raise XoloptError(
                    f"all {cfg.m} replications failed for {rule.name} at n={n}"
                )
            arr = np.asarray(kept)
            d_hat, se, lo, hi = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
            mean_d = float(d_hat.mean())
            theo = float(se.mean())
            emp = float(d_hat.std(ddof=1))
            rows.append(
                McEstimateRow(
                    rule=rule.name,
                    n=n,
                    d_true=d_true,
                    mean_d_hat=mean_d,
                    bias_pct=100.0 * (mean_d - d_true) / d_true,
                    theo_se=theo,
                    emp_se=emp,
                    diff_pct=100.0 * (emp - theo) / theo,
                    coverage=float(np.mean((lo <= d_true) & (d_true <= hi))),
                    failures=failures,
                )
            )
    return rows
