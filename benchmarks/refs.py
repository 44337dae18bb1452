"""Reference computations that the benchmark checks the program against.

Nothing here imports xolopt.  Every formula is derived again from the model
definitions, with numpy, ``math`` and ``statistics.NormalDist`` only, so a
change to the program cannot move the references along with it.

Conventions follow the paper: X is a Lomax(alpha, lam) claim with survival
(1 + x/lam)^-alpha, d is the retention, and for a cap d

    sbar = P(X > d),   mu1 = E[min(X, d)],    mu2 = E[min(X, d)^2],
                       nu1 = E[(X - d)+],     nu2 = E[(X - d)+^2].

A loading rule is a pair (name, parameter) with name in constant,
decreasing, stddev, sharpe; a distortion measure is a pair (kind, parameter)
with kind in var, es, wang, dualpower, gini.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_Z = NormalDist()
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ------------------------------------------------------------ Lomax model


def lomax_quantile(alpha: float, lam: float, p: float) -> float:
    return lam * ((1.0 - p) ** (-1.0 / alpha) - 1.0)


def lomax_survival(alpha: float, lam: float, x):
    return (1.0 + np.asarray(x, dtype=float) / lam) ** (-alpha)


def lomax_moments(alpha: float, lam: float, d) -> dict[str, np.ndarray]:
    """Closed-form capped and excess moments, vectorised over d (alpha > 2).

    The excess moments come from the tail integrals of the survival
    function; the capped ones from the identities min(X, d) = X - (X - d)+
    and min(X, d)^2 = X^2 - (X - d)+^2 - 2 d (X - d)+.  ``var`` is the
    variance of min(X, d).  Below the mean it is taken from the shortfall
    (d - X)+, whose moments are integrals of the distribution function over
    [0, d], so that it does not cancel when d is small.
    """
    d = np.asarray(d, dtype=float)
    c = 1.0 + d / lam
    mean = lam / (alpha - 1.0)
    m2 = 2.0 * lam * lam / ((alpha - 1.0) * (alpha - 2.0))
    nu1 = mean * c ** (1.0 - alpha)
    nu2 = m2 * c ** (2.0 - alpha)
    mu1 = mean - nu1
    mu2 = m2 - nu2 - 2.0 * d * nu1
    var = np.where(d < mean, _shortfall_variance(alpha, lam, np.minimum(d, mean)),
                   mu2 - mu1 * mu1)
    return {"sbar": c ** (-alpha), "mu1": mu1, "mu2": mu2, "nu1": nu1, "nu2": nu2,
            "var": var}


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _shortfall_variance(alpha: float, lam: float, d: np.ndarray) -> np.ndarray:
    """Var((d - X)+) from E[(d-X)+] = int F and E[(d-X)+^2] = 2 int (d-x) F
    over [0, d], by 40-point Gauss-Legendre with F = -expm1(-alpha log1p(x/lam))."""
    x = 0.5 * d[..., None] * (_GL_NODES + 1.0)
    cdf = -np.expm1(-alpha * np.log1p(x / lam))
    half = 0.5 * d
    m1 = half * (cdf @ _GL_WEIGHTS)
    m2 = 2.0 * half * (((d[..., None] - x) * cdf) @ _GL_WEIGHTS)
    return m2 - m1 * m1


def stop_loss_retention(alpha: float, lam: float, rho: float) -> float:
    """Aggregate stop-loss optimum lam((1 + rho)^(1/alpha) - 1)."""
    return lam * ((1.0 + rho) ** (1.0 / alpha) - 1.0)


# ------------------------------------------------------- distortion phi


def _dualpower_phi(beta: float) -> float:
    """E[Z beta Phi(Z)^(beta-1)] by the trapezoid rule on [-12, 12].

    For integer beta this is the mean of the largest of beta standard
    normals: 1/sqrt(pi) for beta = 2 and 3/(2 sqrt(pi)) for beta = 3.
    """
    z = np.linspace(-12.0, 12.0, 48001)
    cdf = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in z])
    dens = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    f = z * beta * cdf ** (beta - 1.0) * dens
    return float(np.sum(f[1:] + f[:-1]) * 0.5 * (z[1] - z[0]))


def phi(kind: str, param: float) -> float:
    """phi_h(Z) of a standard normal Z under the distortion (kind, param)."""
    if kind == "var":
        return _Z.inv_cdf(param)
    if kind == "es":
        return _Z.pdf(_Z.inv_cdf(param)) / (1.0 - param)
    if kind == "wang":
        return float(param)
    if kind == "gini":
        # h(s) = (1 + b) s - b s^2 adds b E[max(Z1, Z2)] = b / sqrt(pi)
        return param / math.sqrt(math.pi)
    if kind == "dualpower":
        return _dualpower_phi(param)
    raise ValueError(f"no reference phi for {kind!r}")


# --------------------------------------------------- CLT retention optima


def effective_rho(alpha: float, lam: float, rule: tuple[str, float], n: int, d):
    """Loading the reinsurer applies at retention d, vectorised over d."""
    name, param = rule
    if name == "constant":
        return np.full_like(np.asarray(d, dtype=float), param)
    if name == "decreasing":
        return np.full_like(np.asarray(d, dtype=float), param / math.sqrt(n))
    g = lomax_moments(alpha, lam, d)
    spread = np.sqrt(g["nu2"] - g["nu1"] ** 2)
    if name == "stddev":
        return param * spread / math.sqrt(n)
    return param / (math.sqrt(n) * spread)


def scaled_objective(alpha: float, lam: float, rule: tuple[str, float],
                     phi_value: float, d):
    """(CLT objective - N E[X]) / sqrt(N), which no longer depends on N.

    constant rho enters as the decreasing rule with delta = sqrt(N) rho, so
    pass ("decreasing", sqrt(N) rho) for it.
    """
    name, param = rule
    g = lomax_moments(alpha, lam, d)
    sd = np.sqrt(np.maximum(g["var"], 0.0))
    if name == "decreasing":
        return param * g["nu1"] + phi_value * sd
    spread = np.sqrt(np.maximum(g["nu2"] - g["nu1"] ** 2, 0.0))
    if name == "stddev":
        return phi_value * sd + param * g["nu1"] * spread
    if name == "sharpe":
        return phi_value * sd + param * g["nu1"] / spread
    raise ValueError(f"unknown rule {name!r}")


def foc_root(alpha: float, lam: float, s: float, phi_value: float) -> float:
    """Root of (d - mu1)^2 - (s/phi)^2 var(min(X, d)) above its atom level.

    s is sqrt(N) rho for the constant rule and delta for the decreasing
    rule.  Bisection runs until the bracket stops shrinking.
    """
    q = (s / phi_value) ** 2

    def g(d: float) -> float:
        m = lomax_moments(alpha, lam, d)
        return float((d - m["mu1"]) ** 2 - q * m["var"])

    lo = lomax_quantile(alpha, lam, s * s / (s * s + phi_value * phi_value))
    hi = max(2.0 * lo, 1.0)
    while g(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


def golden_min(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Minimum of a unimodal scalar function on [a, b]: (x, f(x))."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def scan_then_golden(f_vec, grid: np.ndarray, rel_xtol: float) -> tuple[float, float]:
    """Global grid minimum of a vectorised f, refined in its grid cell."""
    values = f_vec(grid)
    i = int(np.nanargmin(values))
    if i == 0 or i == grid.size - 1:
        raise ValueError(f"minimum at the scan edge d={grid[i]:g}")
    x, fx = golden_min(lambda t: float(f_vec(np.array([t]))[0]),
                       float(grid[i - 1]), float(grid[i + 1]),
                       rel_xtol * float(grid[i]))
    return (x, fx) if fx <= values[i] else (float(grid[i]), float(values[i]))


def clt_optimum(alpha: float, lam: float, rule: tuple[str, float],
                phi_value: float, n: int) -> float:
    """Retention minimising the CLT objective of the paper.

    The first-order-condition root for constant and decreasing loadings, and
    a dense scan plus golden refinement of the objective for stddev and
    sharpe, whose optimum does not depend on N.
    """
    name, param = rule
    if name == "constant":
        return foc_root(alpha, lam, math.sqrt(n) * param, phi_value)
    if name == "decreasing":
        return foc_root(alpha, lam, param, phi_value)
    grid = np.geomspace(lomax_quantile(alpha, lam, 1e-4),
                        lomax_quantile(alpha, lam, 1.0 - 1e-6), 4001)
    return scan_then_golden(
        lambda d: scaled_objective(alpha, lam, rule, phi_value, d), grid, 1e-13
    )[0]


# ------------------------------------------------- plug-in (raw claims)


class PlugIn:
    """Plug-in moments of a raw claim sample, from sorted prefix sums.

    The capped variance is taken from the shortfall (d - X)+, whose sums run
    over the claims below d only, so it does not cancel when d is tiny.
    """

    def __init__(self, claims):
        self.x = np.sort(np.asarray(claims, dtype=float))
        self.n = self.x.size
        self.c1 = np.concatenate([[0.0], np.cumsum(self.x)])
        self.c2 = np.concatenate([[0.0], np.cumsum(self.x * self.x)])

    def moments(self, d) -> dict[str, np.ndarray]:
        d = np.asarray(d, dtype=float)
        n = self.n
        k = np.searchsorted(self.x, d, side="right")
        below1, below2 = self.c1[k], self.c2[k]
        tail = n - k
        short1 = (k * d - below1) / n                       # E[(d - X)+]
        short2 = (k * d * d - 2.0 * d * below1 + below2) / n  # E[(d - X)+^2]
        tail1 = self.c1[-1] - below1
        tail2 = self.c2[-1] - below2
        nu1 = (tail1 - d * tail) / n
        nu2 = (tail2 - 2.0 * d * tail1 + d * d * tail) / n
        return {
            "mu1": d - short1,
            "var_capped": np.maximum(short2 - short1 * short1, 0.0),
            "nu1": nu1,
            "var_ceded": np.maximum(nu2 - nu1 * nu1, 0.0),
        }

    def objective(self, rule: tuple[str, float], phi_value: float, d):
        """Scaled plug-in objective, as scaled_objective for the Lomax model."""
        name, param = rule
        g = self.moments(d)
        sd = np.sqrt(g["var_capped"])
        if name == "decreasing":
            return param * g["nu1"] + phi_value * sd
        spread = np.sqrt(g["var_ceded"])
        if name == "stddev":
            return phi_value * sd + param * g["nu1"] * spread
        with np.errstate(divide="ignore", invalid="ignore"):
            load = np.where(g["nu1"] > 0.0, param * g["nu1"] / spread, np.inf)
        return phi_value * sd + load

    def foc(self, delta: float, phi_value: float, d):
        """(d - mu1)^2 - (delta/phi)^2 var(min(X, d)) for the decreasing rule."""
        g = self.moments(d)
        return (d - g["mu1"]) ** 2 - (delta / phi_value) ** 2 * g["var_capped"]

    def scan_minimum(self, rule: tuple[str, float], phi_value: float,
                     points: int = 200001) -> float:
        """Smallest objective value on a dense log grid over the sample range."""
        lo = float(self.x[self.x > 0.0][0])
        hi = float(np.quantile(self.x, 0.999))
        return float(np.nanmin(self.objective(rule, phi_value,
                                              np.geomspace(lo, hi, points))))


# ---------------------------------------------- exact lattice cost oracle


def capped_sum_quantile(alpha: float, lam: float, n: int, d: float, p: float,
                        cells: int) -> float:
    """p-quantile of the sum of n i.i.d. min(X, d), on a lattice of step d/cells.

    min(X, d) is discretised by rounding to the nearest lattice point, with
    its atom P(X >= d) kept at d, and the n-fold convolution is taken by FFT.
    Inside a lattice cell the distribution function is interpolated
    linearly; a quantile that falls on the top atom is exactly n d.
    """
    h = d / cells
    edges = (np.arange(cells) + 0.5) * h
    cdf = 1.0 - lomax_survival(alpha, lam, edges)
    mass = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    size = n * cells + 1
    length = 1 << (size - 1).bit_length()
    law = np.fft.irfft(np.fft.rfft(mass, length) ** n, length)[:size]
    cum = np.cumsum(np.maximum(law, 0.0))
    cum /= cum[-1]
    k = int(np.searchsorted(cum, p))
    if k >= size - 1:
        return n * d
    below = cum[k - 1] if k > 0 else 0.0
    return (k - 0.5) * h + h * (p - below) / (cum[k] - below)


def exact_cost(alpha: float, lam: float, rule: tuple[str, float], n: int,
               p: float, d: float, cells: int) -> float:
    """Exact p-quantile of the total cost: capped-sum quantile plus premium."""
    nu1 = float(lomax_moments(alpha, lam, d)["nu1"])
    rho = float(effective_rho(alpha, lam, rule, n, d))
    return capped_sum_quantile(alpha, lam, n, d, p, cells) + (1.0 + rho) * n * nu1


class ExactCostOracle:
    """Exact total-cost quantiles for one (model, rule, n, p).

    A 48-point log scan on a lattice of 500 cells per retention brackets the
    minimum.  On each lattice (500, 1000, 2000, ... cells) that bracket is
    scanned with 15 points and the best cell again with 15 points; a scan
    rather than golden section, because the lattice cost is jagged at the
    scale of its step.  The step is halved until the minimum cost moves by
    less than ``rel_tol``, and later evaluations use the finest lattice.
    """

    def __init__(self, alpha: float, lam: float, rule: tuple[str, float],
                 n: int, p: float, rel_tol: float):
        self.args = (alpha, lam, rule, n, p)
        cells = 500
        grid = np.geomspace(lomax_quantile(alpha, lam, 0.01),
                            lomax_quantile(alpha, lam, 1.0 - 1e-5), 48)
        values = [self.cost(float(d), cells) for d in grid]
        i = int(np.argmin(values))
        self._bracket = (float(grid[max(i - 2, 0)]), float(grid[min(i + 2, grid.size - 1)]))
        previous = self._minimum(cells)
        while True:
            cells *= 2
            current = self._minimum(cells)
            if abs(current - previous) < rel_tol * current:
                break
            if cells >= 16000:
                raise RuntimeError("lattice cost did not settle by 16000 cells")
            previous = current
        self.cells = cells
        self.min_cost = current
        self.lattice_change = abs(current - previous) / current

    def cost(self, d: float, cells: int | None = None) -> float:
        return exact_cost(*self.args, d, cells or self.cells)

    def _minimum(self, cells: int) -> float:
        lo, hi = self._bracket
        for _ in range(2):
            grid = np.linspace(lo, hi, 15)
            values = [self.cost(float(d), cells) for d in grid]
            j = int(np.argmin(values))
            lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        return min(values)

    def excess(self, d: float) -> float:
        """Relative cost of retention d above the exact minimum."""
        return (self.cost(d) - self.min_cost) / self.min_cost
