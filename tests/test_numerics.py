"""The Brent root finder in xolopt.numerics against scipy.optimize.brentq,
and the golden-section refinement.

The port must reproduce scipy's roots and iteration counts exactly, and
raise the same error types, so solver results and iteration counters do not
depend on which implementation ran.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

optimize = pytest.importorskip("scipy.optimize")

from xolopt import (
    DecreasingLoading,
    DistortionMeasure,
    ParetoII,
    solve_retention,
    stationarity_function,
)
from xolopt import numerics
from xolopt.numerics import brentq, expand_and_solve, golden_refine, rising_crossings


def _scipy(f, a, b):
    """scipy's brentq with the port's tolerances and iteration cap."""
    root, info = optimize.brentq(
        f, a, b, xtol=numerics.BRENT_XTOL, rtol=numerics.BRENT_RTOL,
        maxiter=numerics.BRENT_MAXITER, full_output=True,
    )
    return root, info.iterations


def _outcome(solver, *args):
    """(root, iterations), or the type and text of the error raised."""
    try:
        return solver(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _plateau(x):
    # exactly zero on [1, 2], so every point of the plateau is a root
    return -1.0 if x < 1.0 else (1.0 if x > 2.0 else 0.0)


def _decreasing_stationarity(d):
    return stationarity_function(
        ParetoII(9.0, 8.0), DecreasingLoading(0.5), DistortionMeasure.var(0.75), 100, d
    )


CASES = [
    ("cubic", lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    ("exponential", lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    ("cos_minus_x", lambda x: math.cos(x) - x, 0.0, 1.0),
    ("root_one_step_inside_the_end", lambda x: x - 1.0, 1.0 - 2.0 ** -52, 3.0),
    ("step_plateau", _plateau, 0.0, 10.0),
    ("saturated_tanh", lambda x: math.tanh(60.0 * (x - 0.3)), -4.0, 7.0),
    ("root_near_zero", lambda x: x - 1e-14, -1.0, 1.0),
    ("steep_cube_root", lambda x: np.cbrt(x - 0.7), 0.0, 3.0),
]


@pytest.mark.parametrize("name, f, a, b", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("xtol", [2e-12, 1e-12, 1e-6])
def test_matches_scipy_exactly(name, f, a, b, xtol, monkeypatch):
    monkeypatch.setattr(numerics, "BRENT_XTOL", xtol)
    assert brentq(f, a, b) == _scipy(f, a, b)


@pytest.mark.parametrize(
    "f, a, b", [(lambda x: x - 1.0, 1.0, 3.0), (lambda x: x * x - 4.0, 0.0, 2.0)]
)
def test_root_at_a_bracket_end(f, a, b):
    # scipy returns the end without entering its loop and leaves the
    # iteration count unset (it reads back as arbitrary memory), so only the
    # root is comparable; the port counts no iterations
    root, iterations = brentq(f, a, b)
    assert root == _scipy(f, a, b)[0]
    assert f(root) == 0.0 and iterations == 0


def test_iteration_cap_matches_scipy(monkeypatch):
    f = CASES[0][1]
    monkeypatch.setattr(numerics, "BRENT_MAXITER", 3)
    failure = _outcome(brentq, f, 2.0, 3.0)
    assert failure == _outcome(_scipy, f, 2.0, 3.0)
    assert failure[0] is RuntimeError
    monkeypatch.setattr(numerics, "BRENT_MAXITER", 200)
    assert brentq(f, 2.0, 3.0) == _scipy(f, 2.0, 3.0)


def test_decreasing_rule_stationarity_on_the_solver_bracket():
    sol = solve_retention(
        ParetoII(9.0, 8.0), DecreasingLoading(0.5), DistortionMeasure.var(0.75), 100
    )
    lo, hi = sol.diagnostics.bracket
    assert lo < sol.d_star < hi
    expected = _scipy(_decreasing_stationarity, lo, hi)
    assert brentq(_decreasing_stationarity, lo, hi) == expected
    res = expand_and_solve(_decreasing_stationarity, lo, hi_start=max(2.0 * lo, 1.0))
    assert res.bracket == (lo, hi)
    assert res.root == sol.d_star == expected[0]


def test_rising_crossings_match_scipy():
    grid = np.linspace(0.05, 12.0, 40)
    values = _decreasing_stationarity(grid)
    (res,) = rising_crossings(_decreasing_stationarity, grid, values)
    lo, hi = res.bracket
    assert (res.root, res.iterations) == _scipy(_decreasing_stationarity, lo, hi)


def _rising_cells(values):
    """The cells the scan must pick: every pair of finite values that goes
    from <= 0 to > 0, as a plain loop finds them."""
    return [
        i for i in range(len(values) - 1)
        if math.isfinite(values[i]) and math.isfinite(values[i + 1])
        and values[i] <= 0.0 < values[i + 1]
    ]


@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
            st.floats(-1e300, 1e300),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_rising_crossings_find_every_rising_finite_cell(values):
    grid = np.arange(float(len(values)))

    def f(x):
        # linear between the grid values, so each root stays in its cell
        return float(np.interp(x, grid, values))

    found = rising_crossings(f, grid, np.array(values))
    cells = _rising_cells(values)
    assert [res.bracket for res in found] == [(i, i + 1) for i in cells]
    for i, res in zip(cells, found):
        if values[i] == 0.0:
            assert (res.root, res.iterations) == (i, 0)
        else:
            assert i <= res.root <= i + 1


@given(
    roots=st.lists(
        st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=3
    ),
    a=st.floats(-10.0, -5.5),
    b=st.floats(5.5, 10.0),
)
def test_random_polynomials_match_scipy(roots, a, b):
    # an odd number of distinct-sign crossings guarantees a bracket
    roots = roots[:1] if len(roots) == 2 else roots

    def f(x):
        return float(np.prod([x - r for r in roots]))

    assert _outcome(brentq, f, a, b) == _outcome(_scipy, f, a, b)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0),   # no root at all
        (lambda x: x * x - 1.0, -2.0, 2.0),   # two roots, same end signs
    ],
)
def test_bracket_without_sign_change_raises_the_scipy_error(f, a, b):
    with pytest.raises(ValueError) as theirs:
        optimize.brentq(f, a, b)
    with pytest.raises(ValueError) as ours:
        brentq(f, a, b)
    assert type(ours.value) is type(theirs.value) is ValueError


def test_nan_raises_the_scipy_error():
    def f(x):
        return float("nan") if x > 0.5 else -1.0

    with pytest.raises(ValueError):
        optimize.brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)


def test_golden_refine_finds_the_vertex_of_a_parabola():
    f = lambda x: (x - 1.2345) ** 2
    grid = np.linspace(0.0, 3.0, 13)
    values = f(grid)
    i = int(np.argmin(values))
    res = golden_refine(f, grid, values, i)
    assert abs(res.x - 1.2345) <= 1e-10 * (1.0 + grid[i])
    assert res.fx == f(res.x)
    assert res.bracket == (grid[i - 1], grid[i + 1])
    assert res.iterations > 0


def test_golden_refine_keeps_the_grid_point_when_the_search_ends_higher():
    """A notch at grid[i] that the search never lands on."""
    f = lambda x: -1.0 if x == 1.0 else (x - 1.0) ** 2
    grid = np.array([0.5, 0.75, 1.0, 1.25, 1.5])
    values = np.array([f(x) for x in grid])
    res = golden_refine(f, grid, values, 2)
    assert (res.x, res.fx) == (1.0, -1.0)


@pytest.mark.parametrize("i", [0, 4, -1, 5])
def test_golden_refine_rejects_an_index_off_the_interior(i):
    grid = np.linspace(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        golden_refine(lambda x: x, grid, grid, i)
