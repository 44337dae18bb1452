"""Bracketed root finding, golden-section search, and quadrature helpers.

scipy is imported only inside the quadrature helpers, which serve the
self-check; root finding uses the port of Brent's method below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoRootFound, NumericalFailure

INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Brent's method stops once the bracket is below (BRENT_XTOL + BRENT_RTOL*|x|)
# and gives up after BRENT_MAXITER steps
BRENT_XTOL = 1e-12
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAXITER = 100

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class MinResult:
    x: float
    fx: float
    bracket: tuple[float, float]
    iterations: int
    at_boundary: bool


def brentq(f: Callable[[float], float], a: float, b: float) -> tuple[float, int]:
    """Root of f in [a, b] by Brent's method; returns (root, iterations).

    A line-by-line port of scipy's ``brentq.c``: the same bracket updates,
    inverse quadratic / secant steps and stopping rule, so roots and
    iteration counts agree bit for bit with ``scipy.optimize.brentq`` called
    with ``xtol=BRENT_XTOL, rtol=BRENT_RTOL, maxiter=BRENT_MAXITER``.  A
    root at either end takes no iterations (scipy leaves its count unset
    there).  Like scipy, raises ValueError when f(a) and f(b) have the same
    sign or f returns NaN, and RuntimeError when the cap is reached.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, BRENT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


def expand_and_solve(
    f: Callable[[float], float],
    lo: float,
    hi_start: float,
    cap: float = 1e12,
) -> RootResult:
    """Root of an eventually increasing function on (lo, inf).

    Requires f(lo) <= 0.  The upper end doubles from hi_start until
    f(hi) > 0; if the cap is passed first, no root exists in range.
    """
    flo = f(lo)
    if flo > 0.0:
        # The function is already nonnegative at the left end; the root
        # collapses onto the bracket start.
        return RootResult(root=lo, residual=flo, bracket=(lo, lo), iterations=0)
    hi = max(hi_start, lo * 2.0, 1e-12)
    expansions = 0
    while f(hi) <= 0.0:
        hi *= 2.0
        expansions += 1
        if hi > cap:
            raise NoRootFound(
                f"no sign change found up to {cap:g}; retention appears unbounded"
            )
    root, iterations = brentq(f, lo, hi)
    return RootResult(
        root=root,
        residual=float(f(root)),
        bracket=(float(lo), float(hi)),
        iterations=iterations + expansions,
    )


def golden_section_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float | None = None,
) -> tuple[float, float, int]:
    """Minimise a unimodal function on [a, b]; returns (x, f(x), iterations)."""
    if xtol is None:
        xtol = 1e-10 * (1.0 + abs(b))
    x1 = b - INV_GOLDEN * (b - a)
    x2 = a + INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while (b - a) > xtol and iterations < 200:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_GOLDEN * (b - a)
            f2 = f(x2)
        iterations += 1
    x = 0.5 * (a + b)
    return float(x), float(f(x)), iterations


def grid_then_golden(
    f: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray | None = None,
    xtol_scale: float = 1e-10,
) -> MinResult:
    """Scan a grid for the minimum, then refine inside the bracketing cell.

    `values` may carry precomputed f(grid) (e.g. from a vectorised pass).
    Ties break toward the smallest grid point.  NaNs are ignored.
    """
    grid = np.asarray(grid, dtype=float)
    if values is None:
        values = np.array([f(x) for x in grid], dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        raise NumericalFailure("objective not finite anywhere on the grid")
    masked = np.where(finite, values, np.inf)
    i = int(np.argmin(masked))
    at_boundary = i == 0 or i == len(grid) - 1
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if at_boundary:
        return MinResult(
            x=float(grid[i]),
            fx=float(values[i]),
            bracket=(float(lo), float(hi)),
            iterations=0,
            at_boundary=True,
        )
    x, fx, iterations = golden_section_min(
        f, float(lo), float(hi), xtol=xtol_scale * (1.0 + float(grid[i]))
    )
    if fx > values[i]:
        x, fx = float(grid[i]), float(values[i])
    return MinResult(
        x=x, fx=fx, bracket=(float(lo), float(hi)), iterations=iterations,
        at_boundary=False,
    )


def leftmost_local_min(
    f: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray | None = None,
    xtol_scale: float = 1e-10,
) -> MinResult:
    """Refine the leftmost interior dip of f on the grid.

    Intended for objectives that flatten or dip again far in the tail, where
    the economically meaningful solution is the first interior basin rather
    than the global grid minimum.  Falls back to an at_boundary result when
    the values are monotone.
    """
    grid = np.asarray(grid, dtype=float)
    if values is None:
        values = np.array([f(x) for x in grid], dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        raise NumericalFailure("objective not finite anywhere on the grid")
    for i in range(1, len(grid) - 1):
        if not (finite[i - 1] and finite[i] and finite[i + 1]):
            continue
        if values[i - 1] > values[i] <= values[i + 1]:
            x, fx, iterations = golden_section_min(
                f,
                float(grid[i - 1]),
                float(grid[i + 1]),
                xtol=xtol_scale * (1.0 + float(grid[i])),
            )
            if fx > values[i]:
                x, fx = float(grid[i]), float(values[i])
            return MinResult(
                x=x,
                fx=fx,
                bracket=(float(grid[i - 1]), float(grid[i + 1])),
                iterations=iterations,
                at_boundary=False,
            )
    masked = np.where(finite, values, np.inf)
    i = int(np.argmin(masked))
    return MinResult(
        x=float(grid[i]),
        fx=float(values[i]),
        bracket=(float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])),
        iterations=0,
        at_boundary=True,
    )


def first_sign_change(
    f: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray | None = None,
) -> RootResult | None:
    """Refine the leftmost sign change of f on the grid, if any."""
    grid = np.asarray(grid, dtype=float)
    if values is None:
        values = np.array([f(x) for x in grid], dtype=float)
    values = np.asarray(values, dtype=float)
    a, b = values[:-1], values[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        hits = np.isfinite(a) & np.isfinite(b) & ((a == 0.0) | (a * b < 0.0))
    if not hits.any():
        return None
    i = int(np.argmax(hits))
    if a[i] == 0.0:
        return RootResult(float(grid[i]), 0.0, (float(grid[i]), float(grid[i])), 0)
    root, iterations = brentq(f, grid[i], grid[i + 1])
    return RootResult(
        root=root,
        residual=float(f(root)),
        bracket=(float(grid[i]), float(grid[i + 1])),
        iterations=iterations,
    )


def integrate_finite(
    f: Callable[[float], float], a: float, b: float
) -> float:
    """Adaptive quadrature on a finite interval with the package tolerances."""
    from scipy import integrate

    value, abserr = integrate.quad(
        f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=200
    )
    if abserr > QUAD_ABS_TOL + 10.0 * QUAD_REL_TOL * abs(value):
        raise NumericalFailure(
            f"quadrature on [{a:g}, {b:g}] reported error {abserr:g}"
        )
    return float(value)


def integrate_tail(f: Callable[[float], float], d: float) -> float:
    """Integral of f over (d, inf) via the substitution x = d + t/(1-t)."""
    from scipy import integrate

    def g(t: float) -> float:
        onemt = 1.0 - t
        x = d + t / onemt
        return f(x) / (onemt * onemt)

    value, abserr = integrate.quad(
        g, 0.0, 1.0, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=200
    )
    if abserr > QUAD_ABS_TOL + 10.0 * QUAD_REL_TOL * abs(value):
        raise NumericalFailure(f"tail quadrature from {d:g} reported error {abserr:g}")
    return float(value)


def log_spaced_grid(lo: float, hi: float, size: int) -> np.ndarray:
    """Logarithmically spaced grid with guards for tiny or inverted ends."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalFailure("grid endpoints must be finite")
    if hi <= 0.0:
        raise NumericalFailure("grid upper end must be positive")
    lo = max(lo, hi * 1e-9)
    if lo >= hi:
        return np.array([hi], dtype=float)
    return np.geomspace(lo, hi, size)
