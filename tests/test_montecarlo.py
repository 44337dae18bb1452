"""Tests for the simulation oracle: CRN quantiles, studies, determinism."""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xolopt import inference, montecarlo
from xolopt.errors import DegenerateVariance, DomainError, NoRootFound
from xolopt.montecarlo import (
    _VAR_BATCHES,
    McConfig,
    _CostOracle,
    _cell_index,
    brute_force_optimal,
    insolvency_probability,
    mc_var_total_cost,
    replicate_table1,
    replicate_table2,
    substream,
    turning_points,
)
from xolopt.retention import (
    ConstantLoading,
    DecreasingLoading,
    SharpeLoading,
    StdDevLoading,
    effective_rho,
)
from xolopt.severity import EmpiricalLosses, ParetoII

# aggregate-threshold retention for two contracts, frozen closed form
TURNING_N2 = 0.640477911138

MODEL = ParetoII(9.0, 8.0)
EMPIRICAL = EmpiricalLosses(MODEL.sample(2000, 7))
DESK = McConfig(b=20000, m=500, seed=0)
SMALL = McConfig(b=2000, m=100, seed=11)


class TestMcConfig:
    def test_defaults_and_full_scale(self):
        cfg = McConfig()
        assert (cfg.b, cfg.m, cfg.seed) == (20000, 500, 0)
        big = cfg.full_scale()
        assert (big.b, big.m) == (50000, 5000)
        assert cfg.b == 20000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b": 999},
            {"m": 99},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            McConfig(**kwargs)


class TestSubstream:
    def test_keyed_reproducibility(self):
        a = substream(3, 1, 5).random(4)
        b = substream(3, 1, 5).random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        a = substream(3, 1, 5).random(4)
        b = substream(3, 2, 5).random(4)
        c = substream(4, 1, 5).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestVarTotalCost:
    def test_repeat_call_is_bitwise_identical(self):
        rule = DecreasingLoading(0.5)
        v1 = mc_var_total_cost(MODEL, rule, 10, 0.75, 0.6, SMALL)
        v2 = mc_var_total_cost(MODEL, rule, 10, 0.75, 0.6, SMALL)
        assert v1 == v2

    def test_matches_hand_built_quantile_above_all_losses(self):
        """CRN keying and the order-statistic rule, reproduced from parts.

        At a retention above every simulated loss nothing is ceded, so the
        total cost is exactly the plain portfolio sum from the same
        substream.
        """
        n, p = 5, 0.75
        rng = substream(SMALL.seed, 1, n)
        draws = MODEL.sample_rng(SMALL.b * n, rng).reshape(SMALL.b, n)
        d = float(draws.max()) + 1.0
        sums = draws.sum(axis=1)
        k = int(math.ceil(p * SMALL.b - 1e-9)) - 1
        expected = float(np.partition(sums, k)[k])
        got = mc_var_total_cost(MODEL, DecreasingLoading(0.5), n, p, d, SMALL)
        assert got == expected

    def test_common_draws_across_retentions(self):
        """Nearby retentions share draws, so the curve is locally smooth."""
        rule = SharpeLoading(0.5)
        base = mc_var_total_cost(MODEL, rule, 10, 0.75, 0.700, SMALL)
        near = mc_var_total_cost(MODEL, rule, 10, 0.75, 0.701, SMALL)
        # independent draws would differ by the MC noise scale (~0.05 here)
        assert abs(near - base) < 0.01


class TestBinnedOracle:
    """The binned pass against the direct capped sum over the same draws."""

    N = 7

    def _oracle(self):
        """An oracle and its draws, rebuilt from the substream it keys."""
        rng = substream(SMALL.seed, 1, self.N)
        draws = MODEL.sample_rng(SMALL.b * self.N, rng).reshape(SMALL.b, self.N)
        return _CostOracle(MODEL, self.N, SMALL, 1, self.N), draws

    def _grid(self, draws):
        return np.array([
            0.5 * draws.min(),           # below every draw
            float(np.median(draws)),
            float(draws[3, 2]),          # exactly a drawn claim
            float(np.quantile(draws, 0.9)),
            2.0 * draws.max(),           # above every draw
        ])

    @staticmethod
    def _stats(oracle, d_values):
        """The streamed pass's capped sums (row j for d_values[j]) and
        pooled excess means, copied out of its scratch vector."""
        sums = np.empty((len(d_values), oracle.b))
        nu1 = np.empty(len(d_values))
        for j, s, e in oracle.capped_sums(d_values):
            sums[j], nu1[j] = s, e
        return sums, nu1

    @staticmethod
    def _assert_direct(draws, d_values, sums, nu1):
        for d, s, e in zip(d_values, sums, nu1):
            capped = np.minimum(draws, d)
            np.testing.assert_allclose(s, capped.sum(axis=1), rtol=1e-12, atol=0.0)
            direct = float((draws - capped).sum()) / draws.size
            assert e == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_grid_matches_direct_sum(self):
        oracle, draws = self._oracle()
        grid = self._grid(draws)
        sums, nu1 = self._stats(oracle, grid)
        assert nu1[-1] == 0.0
        self._assert_direct(draws, grid, sums, nu1)

    def test_one_point_grid_matches_direct_sum(self):
        oracle, draws = self._oracle()
        d = np.array([float(draws[10, 4])])
        sums, nu1 = self._stats(oracle, d)
        self._assert_direct(draws, d, sums, nu1)

    def test_retentions_in_any_order(self):
        """Row j of the sums belongs to the j-th retention as given, repeats
        and descending runs included."""
        oracle, draws = self._oracle()
        grid = self._grid(draws)
        order = [3, 0, 4, 2, 1, 3]
        sums, nu1 = self._stats(oracle, grid[order])
        ascending, ascending_nu1 = self._stats(oracle, grid)
        np.testing.assert_array_equal(sums, ascending[order])
        np.testing.assert_array_equal(nu1, ascending_nu1[order])
        self._assert_direct(draws, grid[order], sums, nu1)

    @pytest.mark.parametrize("pick", [
        lambda g: np.sort(g),
        lambda g: np.sort(g)[[0, 1, 1, 2, 3, 3, 3, 4]],
        lambda g: g[[4, 2, 0, 3, 1]],
    ], ids=["ascending", "repeated", "unsorted"])
    def test_quantile_pairs_select_from_the_capped_sums(self, pick):
        """quantiles() is np.partition of the pass's own capped sums at the
        order statistic ceil(p*b), bit for bit, with the pass's excess
        means; against the direct sums it is as close as the sums are."""
        oracle, draws = self._oracle()
        d_values = pick(self._grid(draws))
        sums, nu1 = self._stats(oracle, d_values)
        quant, excess = oracle.quantiles(0.75, d_values)
        k = oracle.quantile_index(0.75)
        assert k == math.ceil(0.75 * SMALL.b) - 1
        np.testing.assert_array_equal(quant, np.partition(sums, k, axis=1)[:, k])
        np.testing.assert_array_equal(excess, nu1)
        direct = np.minimum(draws, d_values[:, None, None]).sum(axis=2)
        np.testing.assert_allclose(quant, np.partition(direct, k, axis=1)[:, k],
                                   rtol=1e-12, atol=0.0)

    def test_descending_pair_matches_direct_sum(self):
        n, cfg = 3, McConfig(b=1000, m=100, seed=SMALL.seed)
        draws = MODEL.sample_rng(cfg.b * n, substream(cfg.seed, 1, n)).reshape(cfg.b, n)
        sums, nu1 = self._stats(_CostOracle(MODEL, n, cfg, 1, n), [1.0, 0.5])
        self._assert_direct(draws, [1.0, 0.5], sums, nu1)

    @pytest.mark.parametrize("d_values", [[], [0.0], [0.5, -1.0], [math.nan], [math.inf],
                                          [[0.5, 1.0]]])
    def test_rejects_bad_retentions(self, d_values):
        oracle, _ = self._oracle()
        with pytest.raises(DomainError):
            list(oracle.capped_sums(d_values))
        with pytest.raises(DomainError):
            oracle.quantiles(0.75, d_values)

    def test_bracket_matches_full_pass(self):
        oracle, draws = self._oracle()
        grid = self._grid(draws)
        bracket = oracle.bracket(grid[1], grid[3])
        # both ends, a claim inside, and points between
        inside = np.linspace(grid[1], grid[3], 7)[1:-1]
        for d in [grid[1], grid[2], grid[3], *inside]:
            sums, nu1 = bracket.capped_stats(float(d))
            full, full_nu1 = self._stats(oracle, np.array([d]))
            np.testing.assert_allclose(sums, full[0], rtol=1e-12, atol=0.0)
            assert nu1 == pytest.approx(full_nu1[0], rel=1e-12, abs=0.0)
            self._assert_direct(draws, [d], [sums], [nu1])

    @pytest.mark.parametrize("model", [MODEL, EMPIRICAL], ids=["lomax", "empirical"])
    def test_chunking_changes_no_bit(self, monkeypatch, model):
        """Every pass draws its rows afresh in chunks of _BIN_ELEMENTS claims;
        chunks of a few rows give exactly the results of the default size,
        the grid pass's capped sums and quantile pairs and turning points
        included, for the Lomax draws (`random`) and for the empirical
        bootstrap (`integers`) alike."""
        rule = DecreasingLoading(0.5)
        grid = np.geomspace(0.05, 5.0, 40)

        def pieces():
            oracle = _CostOracle(model, 10, SMALL, 1, 10)
            sums, nu1 = self._stats(oracle, grid)
            quant, excess = oracle.quantiles(0.75, grid)
            bracket_sums, bracket_nu1 = oracle.bracket(grid[9], grid[11]).capped_stats(0.5)
            return [sums, nu1, quant, excess, bracket_sums, np.array([bracket_nu1])]

        whole = pieces()
        best = brute_force_optimal(model, rule, 10, 0.75, SMALL)
        insolvent = insolvency_probability(model, 3, 0.2, 0.75, SMALL)
        kinks = turning_points(model, 5, 0.75, SMALL)
        monkeypatch.setattr(montecarlo, "_BIN_ELEMENTS", 997)
        for a, b in zip(whole, pieces(), strict=True):
            np.testing.assert_array_equal(a, b)
        assert brute_force_optimal(model, rule, 10, 0.75, SMALL) == best
        assert insolvency_probability(model, 3, 0.2, 0.75, SMALL) == insolvent
        assert turning_points(model, 5, 0.75, SMALL) == kinks


_EDGES = st.one_of(
    # sorted: with equal ends geomspace can come out an ulp out of order
    st.builds(
        lambda lo, ratio, m: np.sort(np.geomspace(lo, lo * ratio, m)),
        st.floats(1e-8, 1e3),
        st.floats(1.0, 1e8),
        st.integers(1, 100),
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        min_size=1,
        max_size=100,
    ).map(lambda v: np.sort(np.array(v))),
)


@given(edges=_EDGES, extra=st.lists(st.floats(min_value=0.0), max_size=20))
def test_cell_index_is_searchsorted(edges, extra):
    """Geometric and irregular edges; claims at 0, on every edge and one
    ulp either side of it."""
    x = np.concatenate(([0.0], edges, np.nextafter(edges, 0.0),
                        np.nextafter(edges, np.inf), extra))
    np.testing.assert_array_equal(_cell_index(edges, x), np.searchsorted(edges, x))
    rows = x[: x.size // 2 * 2].reshape(2, -1)
    np.testing.assert_array_equal(_cell_index(edges, rows), np.searchsorted(edges, rows))


def test_cell_index_ends_on_unsorted_edges():
    edges = np.array([8.0, np.nextafter(8.0, 0.0), 8.0])
    assert 0 <= _cell_index(edges, np.array([8.0]))[0] <= edges.size


class TestBruteForce:
    # (d_actual, var_at_optimum, var_se) at N = 10 on SMALL, frozen: a moved
    # bit is a change in the draws or in the order of the arithmetic
    PINNED = {
        "constant": (1.4974736206489845, 11.965789699925978, 0.02745253535507502),
        "decreasing": (0.5409542911765297, 11.419427685460334, 0.03316226408888618),
        "stddev": (0.904888870112466, 11.419480802603605, 0.03735290030146116),
        "sharpe": (0.27388855201489737, 11.329580388224434, 0.03530414344829337),
    }

    @pytest.mark.parametrize("rule", [ConstantLoading(0.3), DecreasingLoading(0.5),
                                      StdDevLoading(0.5), SharpeLoading(0.5)],
                             ids=lambda rule: rule.name)
    def test_pinned_at_ten_contracts(self, rule):
        res = brute_force_optimal(MODEL, rule, 10, 0.75, SMALL)
        assert (res.d_actual, res.var_at_optimum, res.var_se) == self.PINNED[rule.name]

    @pytest.mark.parametrize("rule, pinned", [(StdDevLoading(0.5), 0.7715800158946451),
                                              (SharpeLoading(0.5), 0.28599080857929665)],
                             ids=["stddev", "sharpe"])
    def test_spread_rules_run_on_an_empirical_model(self, rule, pinned):
        """The grid tops at the largest claim, where the ceded layer holds no
        claim and carries no load (before, its rate raised DomainError)."""
        res = brute_force_optimal(EMPIRICAL, rule, 10, 0.75, McConfig(b=2000, seed=11))
        assert res.d_actual == pinned
        assert EMPIRICAL.quantile(0.01) < res.d_actual < EMPIRICAL.losses[-1]

    def test_decreasing_matches_reference_actual(self):
        ref = 0.5472
        res = brute_force_optimal(MODEL, DecreasingLoading(0.5), 100, 0.75, DESK)
        assert abs(res.d_actual - ref) / ref < 0.15
        assert res.var_at_optimum > 0.0

    def test_peak_memory_does_not_grow_with_portfolio_size(self):
        """No pass keeps the B x N draws: ten times the claims per portfolio
        leave the traced peak about where it was."""
        cfg = McConfig(b=5000, m=100, seed=0)

        def peak(n):
            tracemalloc.start()
            try:
                brute_force_optimal(MODEL, DecreasingLoading(0.5), n, 0.75, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100) < 1.5 * peak(10)

    def test_reports_budget_and_batch_error(self):
        rule, n, p = SharpeLoading(0.5), 10, 0.75
        res = brute_force_optimal(MODEL, rule, n, p, SMALL)
        assert res.portfolios == _VAR_BATCHES * SMALL.b
        rate = effective_rho(MODEL, rule, n, res.d_actual)
        batch = []
        for k in range(_VAR_BATCHES):
            oracle = _CostOracle(MODEL, n, SMALL, 1, n, k)
            quant, nu1 = oracle.quantiles(p, [res.d_actual])
            batch.append(quant[0] + (1.0 + rate) * n * nu1[0])
        assert np.mean(batch) == pytest.approx(res.var_at_optimum, rel=1e-12)
        se = np.std(batch, ddof=1) / math.sqrt(_VAR_BATCHES)
        assert res.var_se == pytest.approx(se, rel=1e-9)
        assert res.var_se > 0.0


class TestInsolvency:
    def test_two_contracts(self):
        res = insolvency_probability(MODEL, 2, 0.2, 0.75, DESK)
        assert res.prob == 0.0
        assert res.analytic_prob == 0.0
        assert abs(res.d_star - 0.1633) / 0.1633 < 0.10

    def test_ten_contracts_hits_atom(self):
        res = insolvency_probability(MODEL, 10, 0.2, 0.75, DESK)
        assert res.analytic_prob == pytest.approx(0.25)
        assert res.prob == pytest.approx(0.25, abs=0.02)


def _bisected_kinks(draws: np.ndarray, p: float) -> list[float]:
    """Each kink by bisection on exact capped sums (claims below d plus d
    per capped claim), to 1e-12 relative."""
    b, n = draws.shape
    out = []
    for i in range(1, n):
        lo, hi = 0.0, float(draws.sum(axis=1).max())
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            capped = draws > mid
            sums = np.where(capped, 0.0, draws).sum(axis=1) + mid * capped.sum(axis=1)
            if np.count_nonzero(sums >= (n - i + 1) * mid) / b > 1.0 - p:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return out


class TestTurningPoints:
    def test_two_contracts_closed_form(self):
        pts = turning_points(MODEL, 2, 0.75, DESK)
        assert len(pts) == 1
        # the crossing of a B=20000 empirical probability; the frozen bound
        # is two MC standard errors of the crossing location
        assert pts[0] == pytest.approx(TURNING_N2, abs=0.02)

    def test_five_contracts_increasing(self):
        pts = turning_points(MODEL, 5, 0.75, SMALL)
        assert len(pts) == 4
        assert all(a < b for a, b in zip(pts, pts[1:]))

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_first_kink_within_four_standard_errors(self, n):
        """Kink 1 solves S(d)^n = 1-p; the delta method carries the binomial
        error of the simulated probability through the slope n S^(n-1) f."""
        p, q = 0.75, 0.25
        exact = MODEL.quantile(1.0 - q ** (1.0 / n))
        slope = n * MODEL.survival(exact) ** (n - 1) * MODEL.density(exact)
        se = math.sqrt(q * (1.0 - q) / DESK.b) / slope
        assert abs(turning_points(MODEL, n, p, DESK)[0] - exact) < 4.0 * se

    @pytest.mark.parametrize("n", [2, 5, 7, 12])
    def test_every_kink_matches_bisection(self, n):
        rng = substream(DESK.seed, montecarlo._STREAM_TURNING, n)
        draws = MODEL.sample_rng(DESK.b * n, rng).reshape(DESK.b, n)
        pts = turning_points(MODEL, n, 0.75, DESK)
        np.testing.assert_allclose(pts, _bisected_kinks(draws, 0.75), rtol=2e-6, atol=0.0)
        assert all(a < b for a, b in zip(pts, pts[1:]))


class TestPortfolioSizeValidation:
    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_entry_points_reject_bad_sizes(self, n):
        rule = DecreasingLoading(0.5)
        with pytest.raises(DomainError):
            mc_var_total_cost(MODEL, rule, n, 0.75, 1.0, SMALL)
        with pytest.raises(DomainError):
            brute_force_optimal(MODEL, rule, n, 0.75, SMALL)
        with pytest.raises(DomainError):
            insolvency_probability(MODEL, n, 0.2, 0.75, SMALL)


class TestReplicateTable1:
    def test_decreasing_only_shape(self):
        rows = replicate_table1(MODEL, SMALL, only="decreasing")
        assert [r.n for r in rows] == [10, 25, 100]
        assert all(r.rule == "decreasing" for r in rows)
        assert all(r.approx_order == "o(sqrt(N))" for r in rows)
        for r in rows:
            assert r.rel_diff_pct == pytest.approx(
                100.0 * (r.d_approx - r.d_actual) / r.d_actual
            )

    def test_rows_carry_the_monte_carlo_budget_and_error_bar(self):
        rows = replicate_table1(MODEL, SMALL, only="decreasing")
        for r in rows:
            assert r.portfolios == 5 * SMALL.b
            brute = brute_force_optimal(MODEL, DecreasingLoading(0.5), r.n, 0.75, SMALL)
            assert r.var_se == brute.var_se
            assert r.d_actual == brute.d_actual

    def test_constant_carries_three_orders(self):
        rows = replicate_table1(MODEL, SMALL, n_values=(10,), only="constant")
        assert [r.approx_order for r in rows] == [
            "o(sqrt(N))",
            "o(1)",
            "o(1/sqrt(N))",
        ]
        assert len({r.d_actual for r in rows}) == 1

    def test_all_rules_give_the_rows_of_their_own_runs(self):
        """The rules share each size's grid pass; every row of the full table
        equals, field by field, the row of its rule's `only` run."""
        n_values = (10, 25)
        table = replicate_table1(MODEL, SMALL, n_values=n_values)
        alone = [row for only in ("constant", "decreasing", "stddev", "sharpe")
                 for row in replicate_table1(MODEL, SMALL, n_values=n_values, only=only)]
        assert [astuple(row) for row in table] == [astuple(row) for row in alone]

    def test_unknown_filter_rejected(self):
        with pytest.raises(DomainError):
            replicate_table1(MODEL, SMALL, only="banana")


class TestReplicateTable2:
    def test_row_is_the_same_alone_or_in_a_larger_table(self):
        """Each replication's substream is keyed by (rule, n, replication),
        so neither the other rules nor the other sizes move a row."""
        (alone,) = replicate_table2(MODEL, SMALL, n_values=(500,), only="decreasing")
        table = replicate_table2(MODEL, SMALL, n_values=(200, 500))
        assert len(table) == 6
        assert table[1] == alone

    def test_failures_are_counted_by_kind(self, monkeypatch):
        estimate = inference.estimate
        raising = {3: NoRootFound, 7: NoRootFound, 11: DegenerateVariance}
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            kind = raising.get(len(calls) - 1)
            if kind is not None:
                raise kind("chosen to fail")
            return estimate(*args, **kwargs)

        monkeypatch.setattr(inference, "estimate", flaky)
        (row,) = replicate_table2(MODEL, SMALL, n_values=(500,), only="decreasing")
        assert len(calls) == SMALL.m
        assert row.failures == 3
        assert row.failure_kinds == "DegenerateVariance:1;NoRootFound:2"

    def test_row_contents(self):
        (row,) = replicate_table2(MODEL, SMALL, n_values=(500,), only="decreasing")
        assert row.rule == "decreasing"
        assert row.n == 500
        assert row.failures == 0
        assert row.failure_kinds == ""
        assert row.d_true == pytest.approx(0.54724741814, abs=1e-6)
        assert abs(row.bias_pct) < 2.0
        assert 0.80 <= row.coverage <= 1.0
        assert row.theo_se == pytest.approx(row.emp_se, rel=0.35)
