"""The Brent root finder in xolopt.numerics against scipy.optimize.brentq,
the safeguarded secant fixed point, and the golden-section refinement.

The port must reproduce scipy's roots and iteration counts exactly, whether
it reads f at the bracket ends itself or is handed the values there, return
f at the root as a fresh call gives it, and raise the same error types, so
solver results and iteration counters do not depend on which implementation
ran.  Only the comparisons with scipy are skipped where it is not installed.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xolopt import (
    ConstantLoading,
    DecreasingLoading,
    DistortionMeasure,
    ParetoII,
    SharpeLoading,
    StdDevLoading,
    solve_retention,
    stationarity_function,
)
from xolopt import numerics
from xolopt.errors import NumericalFailure
from xolopt.numerics import (
    FIXED_POINT_MAXITER,
    FIXED_POINT_RTOL,
    brentq,
    expand_and_solve,
    fixed_point,
    golden_refine,
)


def _scipy(f, a, b):
    """scipy's brentq with the port's tolerances and iteration cap, and f
    read afresh at its root; the calling test is skipped where scipy is not
    installed."""
    optimize = pytest.importorskip("scipy.optimize")
    root, info = optimize.brentq(
        f, a, b, xtol=numerics.BRENT_XTOL, rtol=numerics.BRENT_RTOL,
        maxiter=numerics.BRENT_MAXITER, full_output=True,
    )
    return root, info.iterations, float(f(root))


def _outcome(solver, *args):
    """(root, iterations, f(root)), or the type and text of the error
    raised."""
    try:
        return solver(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _both(f, a, b):
    """The port's outcome, which must be the same whether it reads f at the
    bracket ends itself or is handed f(a) and f(b), as the solvers hand it
    the values they hold."""
    outcome = _outcome(brentq, f, a, b)
    assert _outcome(brentq, f, a, b, f(a), f(b)) == outcome
    return outcome


def _plateau(x):
    # exactly zero on [1, 2], so every point of the plateau is a root
    return -1.0 if x < 1.0 else (1.0 if x > 2.0 else 0.0)


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
    assert _both(f, a, b) == _scipy(f, a, b)


@pytest.mark.parametrize(
    "f, a, b", [(lambda x: x - 1.0, 1.0, 3.0), (lambda x: x * x - 4.0, 0.0, 2.0)]
)
def test_root_at_a_bracket_end(f, a, b):
    # scipy returns the end without entering its loop and leaves the
    # iteration count unset (it reads back as arbitrary memory), so only the
    # root is comparable; the port counts no iterations
    root, iterations, value = _both(f, a, b)
    assert root == _scipy(f, a, b)[0]
    assert f(root) == value == 0.0 and iterations == 0


def test_iteration_cap_matches_scipy(monkeypatch):
    f = CASES[0][1]
    monkeypatch.setattr(numerics, "BRENT_MAXITER", 3)
    failure = _both(f, 2.0, 3.0)
    assert failure == _outcome(_scipy, f, 2.0, 3.0)
    assert failure[0] is RuntimeError
    monkeypatch.setattr(numerics, "BRENT_MAXITER", 200)
    assert _both(f, 2.0, 3.0) == _scipy(f, 2.0, 3.0)


def _solve_matches_scipy(model, rule, measure, n):
    """The solve's root, Brent steps and residual are scipy's on the
    stationarity function over the solve's bracket; returns the solve."""
    sol = solve_retention(model, rule, measure, n)
    lo, hi = sol.diagnostics.bracket
    assert lo < sol.d_star < hi
    root, iterations, value = _scipy(
        lambda d: stationarity_function(model, rule, measure, n, d), lo, hi)
    diag = sol.diagnostics
    assert (sol.d_star, diag.iterations, diag.stationarity_residual) == (
        root, iterations, abs(value))
    return sol


def test_decreasing_rule_stationarity_on_the_solver_bracket():
    """The flat rules' Brent step on a Lomax knot cell is scipy's on the
    stationarity function over the same cell."""
    model = ParetoII(9.0, 8.0)
    sol = _solve_matches_scipy(model, DecreasingLoading(0.5), DistortionMeasure.var(0.75), 100)
    knots = model.knots()["knots"]
    j = int(np.searchsorted(knots, sol.d_star))
    assert sol.diagnostics.bracket == (knots[j - 1], knots[j])


def test_flat_root_above_the_last_knot_doubles_out_from_it():
    """Past the last knot, `expand_and_solve` starts from it: its first
    probe, twice the knot, already brackets the root, and Brent's step
    there is scipy's."""
    model = ParetoII(9.0, 8.0)
    rule, measure = ConstantLoading(0.3), DistortionMeasure("gini", 0.5)
    sol = _solve_matches_scipy(model, rule, measure, 1000)
    last = model.knots()["knots"][-1]
    assert sol.diagnostics.bracket == (last, 2.0 * last)

    def f(d):
        return stationarity_function(model, rule, measure, 1000, d)

    res = expand_and_solve(f, last, 2.0 * last, f(last))
    assert res == expand_and_solve(f, last, 2.0 * last)
    assert (res.root, res.bracket) == (sol.d_star, sol.diagnostics.bracket)


def test_flat_root_below_the_first_knot_starts_from_the_critical_quantile():
    """At delta = 1e-3 the critical quantile lies below the first knot,
    which closes the root's cell: Brent's step from the quantile is
    scipy's."""
    model = ParetoII(9.0, 8.0)
    sol = _solve_matches_scipy(model, DecreasingLoading(1e-3), DistortionMeasure.var(0.75), 1)
    assert sol.diagnostics.bracket[1] == model.knots()["knots"][0]


@pytest.mark.parametrize("rule", [StdDevLoading(0.5), SharpeLoading(0.5)],
                         ids=lambda r: r.name)
def test_spread_rule_solves_match_scipy(rule):
    """The spread rules' Brent step on a Lomax cell is scipy's on the
    stationarity function over the same cell."""
    _solve_matches_scipy(ParetoII(9.0, 8.0), rule, DistortionMeasure.var(0.75), 100)


# interpolated, the cell [2, 3] makes the inverse quadratic step's
# denominator underflow to 0
UNDERFLOWING_VALUES = [0.0, 0.0, -2.6774738800891943e-243, 6.45627945690787e-234]


def test_underflowing_interpolation_step_bisects_like_scipy():
    grid = np.arange(4.0)

    def f(x):
        return float(np.interp(x, grid, UNDERFLOWING_VALUES))

    result = _both(f, 2.0, 3.0)
    assert result == _scipy(f, 2.0, 3.0)
    assert result[:2] == (2.0000000004147083, 4)


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

    assert _both(f, a, b) == _outcome(_scipy, f, a, b)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0),   # no root at all
        (lambda x: x * x - 1.0, -2.0, 2.0),   # two roots, same end signs
    ],
)
def test_bracket_without_sign_change_raises_the_scipy_error(f, a, b):
    optimize = pytest.importorskip("scipy.optimize")
    with pytest.raises(ValueError) as theirs:
        optimize.brentq(f, a, b)
    with pytest.raises(ValueError) as ours:
        brentq(f, a, b)
    assert type(ours.value) is type(theirs.value) is ValueError


def test_nan_raises_the_scipy_error():
    optimize = pytest.importorskip("scipy.optimize")
    def f(x):
        return float("nan") if x > 0.5 else -1.0

    with pytest.raises(ValueError):
        optimize.brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)


@pytest.mark.parametrize("fa, fb", [(math.nan, 1.0), (-1.0, math.nan)])
def test_a_nan_end_value_raises(fa, fb):
    """An end value handed in is checked as one read by the port."""
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: x - 0.5, 0.0, 1.0, fa, fb)


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


def _recording(g):
    """g, plus the list of points it is evaluated at."""
    seen = []

    def wrapped(x):
        seen.append(x)
        return g(x)

    return wrapped, seen


def test_fixed_point_of_a_contraction_with_negative_slope():
    """cos has slope -0.67 at its fixed point, where the damped step also
    contracts; the secant steps get there in a handful of evaluations."""
    x, evaluations = fixed_point(math.cos, 1.0)
    assert abs(math.cos(x) - x) <= FIXED_POINT_RTOL * x
    assert x == pytest.approx(0.7390851332151607, rel=1e-8)
    assert evaluations <= 6


def test_fixed_point_where_the_damped_step_diverges():
    """At slope 1.5 the damped step (x + g(x))/2 has slope 1.25 and walks
    away from the fixed point 2; the secant step through two points of the
    linear map lands on it."""
    g = lambda x: 1.5 * x - 1.0
    damped = 1.0
    for _ in range(20):
        damped = 0.5 * (damped + g(damped))
    assert abs(damped - 2.0) == pytest.approx(1.25 ** 20)
    x, evaluations = fixed_point(g, 1.0)
    assert x == pytest.approx(2.0, rel=1e-15)
    assert evaluations == 3


def test_fixed_point_of_a_locally_constant_map():
    """A kink: g is flat near its fixed point 0.25, so h = g - x has slope -1
    there and the secant step from the second evaluation is exact; the third
    evaluation confirms it."""
    g, seen = _recording(lambda x: 0.25 if x < 1.0 else 0.25 + (x - 1.0) ** 2)
    x, evaluations = fixed_point(g, 0.75)
    assert seen == [0.75, 0.5, 0.25]
    assert (x, evaluations) == (0.25, 3)


def test_fixed_point_falls_back_to_the_damped_step_inside_the_positive_axis():
    """h = 1/x - 1 is nearly flat far from its root 1, so the secant line
    through two early points crosses zero below x = 0; the damped step is
    taken instead and every evaluated point stays positive."""
    g, seen = _recording(lambda x: x - 1.0 + 1.0 / x)
    x, evaluations = fixed_point(g, 10.0)
    h0, h1 = 1.0 / seen[0] - 1.0, 1.0 / seen[1] - 1.0
    assert seen[1] - h1 * (seen[1] - seen[0]) / (h1 - h0) < 0.0
    assert seen[2] == seen[1] + 0.5 * h1
    assert min(seen) > 0.0
    assert x == pytest.approx(1.0, rel=1e-8)
    assert evaluations == len(seen) < FIXED_POINT_MAXITER


def test_fixed_point_gives_up_at_the_cap():
    """g(x) = x + 1 has no fixed point; h never changes, so every step is
    damped, until the cap."""
    g, seen = _recording(lambda x: x + 1.0)
    with pytest.raises(NumericalFailure):
        fixed_point(g, 1.0)
    assert len(seen) == FIXED_POINT_MAXITER
