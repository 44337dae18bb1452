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

# the portfolio sizes of the paper's two tables
TABLE1_SIZES = (10, 25, 100)
TABLE2_SIZES = (500, 2000, 10000)

# cap on claims (plus cells, when binning) drawn and reduced at once: the one
# chunk size of every pass over the draws
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
    var_se: float
    portfolios: int


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
    failure_kinds: str


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
    is fixed.  The oracle keeps no draws: every pass draws its rows afresh
    from the oracle's substream, one bounded chunk at a time.  numpy's
    generators give the same stream however a draw is split, so every pass
    sees the same portfolios whatever its chunk size, and memory is one
    chunk plus what the pass keeps, never the B x N draws.

    Cost: a grid of G retentions takes one binned O(B*N) pass over the
    B x N draws, which keeps each row's sum and count of claims in every
    cell between neighbouring retentions: (G+1) x B sums plus as many
    counts, the counts in the smallest unsigned type that holds N.  A loop
    over the retentions in ascending order then adds one cell at a time to
    a running sum below the retention and a running count above it, so
    each retention costs O(B) for its capped sums in one scratch vector and
    O(B) for the in-place quantile selection; no B x G capped sums are
    kept.  A refinement bracket takes one more pass plus an O(k log k) sort
    of the k claims inside it; each retention inside the bracket then costs
    O(B + j) for the j of them at or below it, plus the quantile selection.
    """

    def __init__(self, model: SeverityModel, n: int, cfg: McConfig, *key: int):
        _validate_n(n)
        self.model = model
        self.n = int(n)
        self.b = cfg.b
        self._seed = cfg.seed
        self._key = key

    def _blocks(self, rows: int):
        """(first row, draws) for chunks of `rows` portfolios, drawn afresh."""
        rng = substream(self._seed, *self._key)
        for first in range(0, self.b, rows):
            r = min(rows, self.b - first)
            yield first, self.model.sample_rng(r * self.n, rng).reshape(r, self.n)

    def _binned(self, cells: int, cell_of):
        """Per-row cell sums and counts of the draws, in one streamed pass.

        Yields (first row, draws, cell of each claim, sums, counts) per chunk
        of at most _BIN_ELEMENTS claims plus cells: cell_of(draws) gives each
        claim's cell, the index of the first edge at or above it, and
        sums/counts are (cells, rows), so that every row is reduced alone and
        the result does not depend on the chunking.
        """
        for first, part in self._blocks(max(1, _BIN_ELEMENTS // (self.n + cells))):
            r = part.shape[0]
            cell = cell_of(part)
            flat = (cell * r + np.arange(r)[:, None]).ravel()
            sums = np.bincount(flat, weights=part.ravel(), minlength=cells * r)
            counts = np.bincount(flat, minlength=cells * r)
            yield first, part, cell, sums.reshape(cells, r), counts.reshape(cells, r)

    def capped_sums(self, d_values):
        """Capped sums and pooled excess mean at each retention.

        Yields (j, sums, nu1) for the retentions in ascending order, j being
        the position in d_values, which may come in any order and repeat.
        `sums` is one scratch vector of b capped sums that the next step
        overwrites, so a caller may reorder it in place.
        """
        d_values = np.asarray(d_values, dtype=float)
        if not (d_values.ndim == 1 and d_values.size
                and np.all((0.0 < d_values) & (d_values < np.inf))):
            raise DomainError("retentions must be a nonempty list of positive finite numbers")
        order = np.argsort(d_values, kind="stable")
        edges = d_values[order]
        cell_sums = np.empty((edges.size + 1, self.b))
        cell_counts = np.empty((edges.size + 1, self.b), dtype=np.min_scalar_type(self.n))
        for first, part, _, sums, counts in self._binned(
                edges.size + 1, lambda x: _cell_index(edges, x)):
            span = slice(first, first + part.shape[0])
            cell_sums[:, span] = sums
            cell_counts[:, span] = counts
        # per-row totals, added cell by cell in the order of the running sum below
        totals = np.zeros(self.b)
        for s in cell_sums:
            totals += s
        below = np.zeros(self.b)
        above = np.full(self.b, float(self.n))
        capped = np.empty(self.b)
        excess = np.empty(self.b)
        for j, d, s, c in zip(order, edges, cell_sums, cell_counts):
            below += s
            above -= c
            np.multiply(above, d, out=capped)
            capped += below
            # the excess comes from whole per-row totals, so chunking moves no bit
            np.subtract(totals, capped, out=excess)
            yield int(j), capped, float(excess.sum()) / (self.b * self.n)

    def quantiles(self, p: float, d_values) -> tuple[np.ndarray, np.ndarray]:
        """The p-quantile of the capped sums and the pooled excess mean at
        each retention; entry j of both belongs to d_values[j]."""
        k = self.quantile_index(p)
        # an invalid d_values raises in capped_sums, before any entry is read
        quant, nu1 = np.empty(np.size(d_values)), np.empty(np.size(d_values))
        for j, sums, e in self.capped_sums(d_values):
            sums.partition(k)
            quant[j], nu1[j] = sums[k], e
        return quant, nu1

    def bracket(self, lo: float, hi: float) -> "_Bracket":
        """Capped sums for any retention in [lo, hi], from one more pass."""
        below = np.empty(self.b)
        count = np.empty(self.b, dtype=np.int64)
        totals = np.empty(self.b)
        xs, row_ids = [], []
        for first, part, cell, cell_sums, cell_counts in self._binned(
                3, lambda x: (x > lo).astype(np.intp) + (x > hi)):
            span = slice(first, first + part.shape[0])
            below[span] = cell_sums[0]
            count[span] = cell_counts[0]
            totals[span] = cell_sums.sum(axis=0)
            r, c = np.nonzero(cell == 1)
            xs.append(part[r, c])
            row_ids.append(r + first)
        x = np.concatenate(xs)
        # claims tied in value add the same bits in either order, so the
        # sort need not be stable
        order = np.argsort(x)
        return _Bracket(self, below, count, totals, x[order], np.concatenate(row_ids)[order])

    def quantile_index(self, p: float) -> int:
        k = int(math.ceil(p * self.b - 1e-9))
        return min(max(k, 1), self.b) - 1



@dataclass(frozen=True, eq=False)
class _Bracket:
    """One oracle's draws reduced to what a retention in [lo, hi] needs.

    Per row: the sum and count of the claims at or below lo and the row
    total; besides, every claim in (lo, hi] with its row, sorted by value.
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
        j = int(np.searchsorted(self.x, d, side="right"))
        row = self.row[:j]
        below = self.below + np.bincount(row, weights=self.x[:j], minlength=o.b)
        above = o.n - (self.count + np.bincount(row, minlength=o.b))
        sums = below + d * above
        return sums, float((self.totals - sums).sum()) / (o.b * o.n)

    def var(self, p: float, d: float, rate: float) -> float:
        sums, nu1 = self.capped_stats(d)
        k = self.oracle.quantile_index(p)
        sums.partition(k)
        return float(_var(self.oracle.n, sums[k], nu1, rate))


def _var(n: int, quant, nu1, rate):
    """Total-cost quantile of n contracts from the capped-sum quantile, the
    pooled excess mean and the effective loading at a retention."""
    return quant + (1.0 + rate) * n * nu1


def _cell_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, x): for each x, the index of the first edge at
    or above it, for ascending positive edges.

    The guess reads the cell off the log spacing of the edges, which on a
    log grid is exact but for rounding; comparisons with the neighbouring
    edges then correct it until it is exact, for any ascending edges.
    """
    m = edges.size
    lo, hi = math.log(edges[0]), math.log(edges[-1])
    scale = (m - 1) / (hi - lo) if hi > lo else 0.0
    flat = x.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(flat)
        t -= lo
        t *= scale
    t += 1.0
    # fmax also sends the NaN of 0 * log(0) to cell 0
    np.fmax(t, 0.0, out=t)
    np.minimum(t, m, out=t)
    cell = t.astype(np.intp)
    # cell c is right when edge c - 1 < x <= edge c, with -inf and inf outside
    left = np.concatenate(([-np.inf], edges))
    right = np.concatenate((edges, [np.inf]))
    up = right[cell] < flat
    down = left[cell] >= flat
    cell += up
    cell -= down
    # a claim moves one way only, so this ends within edges.size rounds; both
    # tests hold at once only for unsorted edges, and then the claim stops
    moved = np.flatnonzero(up ^ down)
    while moved.size:
        c, v = cell[moved], flat[moved]
        up = right[c] < v
        down = left[c] >= v
        cell[moved] = c + up - down
        moved = moved[up ^ down]
    return cell.reshape(x.shape)


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
    rate = effective_rho(model, rule, n, d)
    quant, nu1 = oracle.quantiles(p, [d])
    return float(_var(n, quant[0], nu1[0], rate))


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

    Each batch costs one streamed O(B*N) pass for the G-point grid and
    then O(B) per grid retention.  The pass keeps (G+1) x B cell sums plus
    counts while it runs and leaves G (quantile, excess mean) pairs, which
    no rule touches: the rule's loading is added to them afterwards, so
    replicate_table1 shares one grid pass per size among its rules.  One
    more streamed O(B*N) pass per batch builds the refinement bracket,
    which also sorts the k claims inside it; each golden step then costs
    O(B + j) per batch, for the j of them at or below the step's
    retention, plus the quantile selection.  No batch keeps its draws or
    any B x G capped sums: memory is one batch's cell sums and counts
    during its grid pass, the claims inside the five brackets and one
    chunk.  The effective loading at each retention is computed once and
    shared by the batches.  The result reports the portfolios drawn over
    all batches and the standard error of the averaged VaR at the optimum,
    from the spread of the batch VaRs there.
    """
    return _grid_pass(model, n, p, cfg)(rule)


def _grid_pass(model: SeverityModel, n: int, p: float, cfg: McConfig):
    """The grid pass of every batch at (n, p), which depends on no rule;
    returns brute_force_optimal(model, rule, n, p, cfg) as a function of the
    rule."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    grid = _default_grid(model)
    oracles = [
        _CostOracle(model, n, cfg, _STREAM_VAR_COST, n, batch)
        for batch in range(_VAR_BATCHES)
    ]
    pairs = [o.quantiles(p, grid) for o in oracles]
    quant, nu1 = np.array([q for q, _ in pairs]), np.array([e for _, e in pairs])

    def optimum(rule: LoadingRule) -> BruteForceResult:
        rates = np.array([effective_rho(model, rule, n, float(d)) for d in grid])
        batches = _var(n, quant, nu1, rates)
        values = batches.mean(axis=0)
        i = int(np.argmin(values))
        if i == 0 or i == grid.size - 1:
            raise GridBoundaryMinimum(
                f"simulated optimum sits at the grid edge d={grid[i]:g}; widen the grid"
            )
        brackets = [o.bracket(grid[i - 1], grid[i + 1]) for o in oracles]
        seen = {}

        def averaged(d: float) -> float:
            rate = effective_rho(model, rule, n, d)
            seen[d] = np.array([br.var(p, d, rate) for br in brackets])
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

    return optimum


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
    _, s, _ = next(oracle.capped_sums([d_star]))
    k = oracle.quantile_index(p)
    s.partition(k)
    prob = float(np.count_nonzero(s > s[k])) / cfg.b
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
    for the largest j with j/b <= 1-p.  The draws are streamed in one pass,
    at most _BIN_ELEMENTS claims at a time, and only the b x (n-1)
    thresholds are kept.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"portfolio size must be at least 2, got {n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"risk level must be in (0, 1), got {p}")
    oracle = _CostOracle(model, n, cfg, _STREAM_TURNING, n)
    m = np.arange(1, n + 1)
    taus = np.empty((n - 1, cfg.b))
    for first, block in oracle._blocks(max(1, _BIN_ELEMENTS // n)):
        x = np.sort(block, axis=1)
        prefix = np.cumsum(x, axis=1)
        rows = np.arange(x.shape[0])
        for i in range(1, n):
            met = prefix >= (m - i + 1) * x
            m_star = n - np.argmax(met[:, ::-1], axis=1)  # m = i always qualifies
            taus[i - 1, first:first + x.shape[0]] = (
                prefix[rows, m_star - 1] / (m_star - i + 1)
            )
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
    n_values: tuple[int, ...] = TABLE1_SIZES,
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
    # the grid pass depends on no rule, so each size's pass serves them all
    shared = {}
    for rule in rules:
        for n in n_values:
            if n not in shared:
                shared[n] = _grid_pass(model, n, p, cfg)
            brute = shared[n](rule)
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
                        d_actual=brute.d_actual,
                        d_approx=d_approx,
                        rel_diff_pct=100.0 * (d_approx - brute.d_actual) / brute.d_actual,
                        var_se=brute.var_se,
                        portfolios=brute.portfolios,
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


def replicate_table2(
    model: SeverityModel,
    cfg: McConfig,
    p: float = 0.75,
    n_values: tuple[int, ...] = TABLE2_SIZES,
    delta: float = 0.5,
    rho0: float = 0.5,
    only: str | None = None,
) -> list[McEstimateRow]:
    """Bias, SE agreement, and CI coverage of the nonparametric estimators.

    Each replication draws a fresh sample from its own substream keyed by
    (rule, n, replication), so a row is the same whatever else the table
    holds.  `failure_kinds` counts the failed replications by exception name.
    """
    from .inference import estimate  # here: table1, insolvency and selfcheck never load it

    measure = DistortionMeasure.var(p)
    rules = _only([DecreasingLoading(delta), StdDevLoading(rho0), SharpeLoading(rho0)], only)
    rows: list[McEstimateRow] = []
    for rule in rules:
        for n in n_values:
            d_true = solve_retention(model, rule, measure, n).d_star
            kept, kinds = [], {}
            for rep in range(cfg.m):
                rng = substream(cfg.seed, _STREAM_ESTIMATION, _RULE_STREAM[rule.name], n, rep)
                losses = model.sample_rng(n, rng)
                try:
                    r = estimate(losses, rule, measure)
                    kept.append((r.d_hat, r.std_error, *r.ci))
                except XoloptError as exc:
                    kinds[type(exc).__name__] = kinds.get(type(exc).__name__, 0) + 1
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
                    failure_kinds=";".join(f"{k}:{kinds[k]}" for k in sorted(kinds)),
                )
            )
    return rows
