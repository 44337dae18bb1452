"""Bracketed root finding, fixed points, golden-section refinement and log grids.

Root finding uses the port of scipy's Brent method below, so this module
imports no scipy.
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

# expand_and_solve gives up once its upper end passes EXPAND_CAP
EXPAND_CAP = 1e12

# fixed_point stops once |g(x) - x| <= FIXED_POINT_RTOL * x and gives up
# after FIXED_POINT_MAXITER evaluations of g
FIXED_POINT_RTOL = 1e-8
FIXED_POINT_MAXITER = 100


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


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float | None = None,
    fb: float | None = None,
) -> tuple[float, int, float]:
    """Root of f in [a, b] by Brent's method; returns (root, iterations,
    f(root)).

    A line-by-line port of scipy's ``brentq.c``: the same bracket updates,
    inverse quadratic / secant steps and stopping rule, so roots and
    iteration counts agree bit for bit with ``scipy.optimize.brentq`` called
    with ``xtol=BRENT_XTOL, rtol=BRENT_RTOL, maxiter=BRENT_MAXITER``.  A
    caller that already holds f(a) or f(b) passes it as fa or fb, and f is
    read only at the points the steps reach, each once; f(root) is the value
    read there, not a further call.  A root at either end takes no
    iterations (scipy leaves its count unset there).  Like scipy, raises
    ValueError when f(a) and f(b) have the same sign or a value of f is
    NaN, and RuntimeError when the cap is reached.
    """

    def checked(x: float, fx: float) -> float:
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = checked(xpre, f(xpre) if fa is None else fa)
    fcur = checked(xcur, f(xcur) if fb is None else fb)
    if fpre == 0.0:
        return xpre, 0, fpre
    if fcur == 0.0:
        return xcur, 0, fcur
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
            return xcur, i, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # an underflowed denominator gives scipy an infinite or NaN
                # step, which the test below turns into a bisection
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denom
                        if denom != 0.0 else math.inf)
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
        fcur = checked(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


def fixed_point(g: Callable[[float], float], x0: float) -> tuple[float, int]:
    """Positive fixed point x = g(x) from x0 > 0; returns (x, evaluations of g).

    Secant steps on h(x) = g(x) - x through the last two points, safeguarded
    by the damped step x + h(x)/2 = (x + g(x))/2: the first step is damped,
    and so is any step where h did not change or the secant step is not
    finite and positive.  A secant step is not clamped between x and g(x):
    where g rises, the fixed point lies outside that segment, and where g
    rises faster than x, the damped step moves away from it.  Stops at the
    first evaluated x with |g(x) - x| <= FIXED_POINT_RTOL * x, a test free
    of the units of x; raises NumericalFailure after FIXED_POINT_MAXITER
    evaluations.
    """
    # no previous point yet: the NaN secant step gives way to the damped one
    x, x_prev, h_prev = float(x0), math.nan, math.nan
    for evaluations in range(1, FIXED_POINT_MAXITER + 1):
        h = float(g(x)) - x
        if abs(h) <= FIXED_POINT_RTOL * x:
            return x, evaluations
        step = x + 0.5 * h
        if h != h_prev:
            secant = x - h * (x - x_prev) / (h - h_prev)
            if math.isfinite(secant) and secant > 0.0:
                step = secant
        x, x_prev, h_prev = step, x, h
    raise NumericalFailure(
        f"fixed point did not converge in {FIXED_POINT_MAXITER} evaluations"
    )


def expand_and_solve(
    f: Callable[[float], float],
    lo: float,
    hi_start: float,
) -> RootResult:
    """Root of an eventually increasing function on (lo, inf).

    Requires f(lo) <= 0.  The upper end doubles from hi_start until
    f(hi) > 0; if EXPAND_CAP is passed first, no root exists in range.
    Brent's method starts from f(lo) and the last probe's value, so f is
    read once at each point: lo, the probes and Brent's steps.  The
    residual is the value Brent's method read at the root.
    """
    flo = f(lo)
    if flo > 0.0:
        # The function is already nonnegative at the left end; the root
        # collapses onto the bracket start.
        return RootResult(root=lo, residual=flo, bracket=(lo, lo), iterations=0)
    hi = max(hi_start, lo * 2.0, 1e-12)
    fhi, expansions = f(hi), 0
    while fhi <= 0.0:
        hi *= 2.0
        expansions += 1
        if hi > EXPAND_CAP:
            raise NoRootFound(
                f"no sign change found up to {EXPAND_CAP:g}; retention appears unbounded"
            )
        fhi = f(hi)
    root, iterations, residual = brentq(f, lo, hi, flo, fhi)
    return RootResult(
        root=root,
        residual=residual,
        bracket=(float(lo), float(hi)),
        iterations=iterations + expansions,
    )


def golden_refine(
    f: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray,
    i: int,
) -> MinResult:
    """Refine a minimum of f next to grid[i] by golden-section search.

    For objectives without a usable derivative; `values` holds f(grid) and
    the caller picks i.  The search runs over the two cells beside grid[i]
    down to a width of 1e-10 (1 + grid[i]); grid[i] itself is kept when the
    search ends higher.  An index at either end of the grid raises
    ValueError.
    """
    if not 0 < i < len(grid) - 1:
        raise ValueError(f"index {i} is not an interior point of a {len(grid)}-point grid")
    a, b = float(grid[i - 1]), float(grid[i + 1])
    bracket = (a, b)
    xtol = 1e-10 * (1.0 + float(grid[i]))
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
    fx = float(f(x))
    if fx > values[i]:
        x, fx = grid[i], values[i]
    return MinResult(float(x), float(fx), bracket, iterations)


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
