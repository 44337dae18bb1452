"""Claim-severity models and their truncated / excess-layer moments.

Two models are supported: a Pareto type-II (Lomax) distribution with closed
moment formulas, and the empirical distribution of an observed loss sample.
Both expose the same interface so solvers and estimators can run on either.

Moment notation used throughout (d is the retention):

    sbar = P(X > d)
    mu1  = E[min(X, d)]
    mu2  = E[min(X, d)^2]
    gap  = E[(d - X)+] = d - mu1
    nu1  = E[(X - d)+]
    nu2  = E[(X - d)+^2]
    var  = Var(min(X, d)) = mu2 - mu1^2

On the Lomax model (t = d/scale, u = t max(shape, 1)) raw moments cancel in
d - mu1 and in the central moments at small caps, so one power series in u
gives those there (`_capped_series`): gap and var up to u = 1/2 in
`moment_grid` (then mu1 = d - gap, mu2 = var + mu1^2), the central moments
of orders 2 to 4 up to t max(shape, 4) = 2 in `higher_truncated_moments`.
Above, one closed form for E[min(X, d)^k], k = 1..4, takes over.  Against
that closed form in 130-digit arithmetic, for shapes 0.5 to 300 and t from
1e-8 to 20, the worst relative errors seen: gap 1.4e-15, mu1 2.5e-16, mu2
4.9e-15, var 3.0e-14, and skewness and excess kurtosis 3.1e-12 max(1, |kappa|).

The Lomax formulas are written element by element, with numpy's ufuncs and
without matrix products or masked assignment, so they take an array of
retentions or one float: a root-finding step reads one float without making
an array, and gets the bits of the same retention's entry in a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AllZero,
    DegenerateVariance,
    DomainError,
    NonfiniteMoment,
)
from .numerics import log_spaced_grid


@dataclass(frozen=True)
class LossSummary:
    count: int
    mean: float
    median: float
    max: float
    lorenz: np.ndarray


def load_shape(k: int, sbar, nu1, nu2):
    """sbar sigma^k + k (1 - sbar) nu1^2 sigma^(k-2), with sigma^2 = nu2 -
    nu1^2 the ceded variance: the rate at which nu1 sigma^k falls as d
    rises, from the moments at d.  A loading rule of spread power k has
    marginal load -c(N) times it.  Takes arrays or floats; numpy's power,
    not **, gives a float the bits of an array entry.  Leaves masking the
    warnings of a layer without spread to its callers."""
    return _load_shape(k, sbar, *_spread_powers(k, nu1, nu2))


def _spread_powers(k: int, nu1, nu2) -> tuple:
    """nu1^2, sigma^k and sigma^(k-2): the terms of `load_shape` that do not
    depend on sbar (sigma^(k-2) is None for k = 0)."""
    spread = np.sqrt(nu2 - nu1 * nu1)
    return nu1 * nu1, np.power(spread, k), np.power(spread, k - 2) if k else None


def _load_shape(k: int, sbar, nu1_sq, power, lower):
    tilt = k * (1.0 - sbar) * nu1_sq * lower if k else 0.0
    return sbar * power + tilt


def _rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


@lru_cache(maxsize=64)
def _capped_series(a: float) -> tuple[tuple, tuple]:
    """Coefficients of the capped Lomax moments as power series in
    u = t max(a, 1), in units of h = scale/max(a, 1).

    W = (d - X)+ has mean gap and the central moments of min(X, d), the
    third with its sign flipped.  With F = -sum_{j>=1} c_j u^j the cdf,
    E[W^k] = h^k sum_{j>=1} (-c_j) k! j!/(k+j)! u^(k+j), and products of
    these give the central moments.  The products in one coefficient share
    their sign, so none cancels.  Returns rows over u, u^2, ...: gap and
    var to u^50, and var and the third and fourth central moments to u^100.
    """
    n = 100
    j = np.arange(1.0, n)
    c = np.cumprod(-(a + j - 1.0) / (j * max(a, 1.0)))  # c_1, c_2, ...
    w = np.zeros((5, n + 1))  # E[W^k]/h^k by power of u, k = 1..4
    for k in range(1, 5):
        w[k, k + 1:] = -c[:n - k] * np.cumprod(j / (k + j))[:n - k]

    def times(x, y):
        return np.convolve(x, y)[:n + 1]

    w11 = times(w[1], w[1])
    var = w[2] - w11
    third = -(w[3] - 3.0 * times(w[1], w[2]) + 2.0 * times(w11, w[1]))
    fourth = w[4] - 4.0 * times(w[1], w[3]) + 6.0 * times(w11, w[2]) - 3.0 * times(w11, w11)
    table = np.array([w[1], var, third, fourth])[:, 1:]
    return tuple(map(tuple, table[:2, :50].tolist())), tuple(map(tuple, table[1:].tolist()))


def _polynomial(coefficients: tuple, x):
    """sum_i coefficients[i] x^i, i = 0, 1, ..., by Horner's rule; with
    Python floats for coefficients, a float x is summed in plain floats."""
    total = coefficients[-1]
    for c in coefficients[-2::-1]:
        total = total * x + c
    return total


def _retentions(d) -> tuple:
    """d as a float when it is a scalar, else as a float array, and whether
    it is a scalar: the models read one float without making an array.
    DomainError unless every entry is >= 0, so NaN is refused too."""
    scalar = isinstance(d, float) or np.ndim(d) == 0
    d = float(d) if scalar else np.asarray(d, dtype=float)
    if not (d >= 0.0 if scalar else np.all(d >= 0.0)):
        bad = d if scalar else d[~(d >= 0.0)][0]
        raise DomainError(f"retention must be nonnegative, got {bad}")
    return d, scalar


def _any(cond) -> bool:
    """Whether cond holds anywhere, for a bool array or a scalar."""
    return cond.any() if isinstance(cond, np.ndarray) else bool(cond)


def _where(cond, x, y):
    """np.where(cond, x, y), and x or y itself for a scalar cond."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


#: Shapes from which the closed form is the tail sum (see below)
_TAIL_SUM_SHAPE = 5.0


@lru_cache(maxsize=128)
def _closed_form_constants(a: float, scale: float, order: int) -> tuple:
    """The exponents m - a, m = 0..order, and for k = 1..order the
    coefficients of `_lomax_closed_form` times scale^k."""
    e, ks = tuple(m - a for m in range(order + 1)), range(1, order + 1)
    if a < _TAIL_SUM_SHAPE:  # k (-1)^(k-m) C(k-1, m-1)/(m - a), m = 1..k, with no divisor at m = a
        return e, None, tuple(tuple(scale ** k * k * (-1) ** (k - m) * math.comb(k - 1, m - 1)
                                    / (m - a or 1.0) for m in range(1, k + 1)) for k in ks)
    # k!/((a-1)...(a-k)), and (a-k)_i/i!, i < k
    prefactor = tuple(math.prod(scale * j / (a - j) for j in range(1, k + 1)) for k in ks)
    sums = tuple(tuple(math.prod((a - k + j) / (j + 1) for j in range(i)) for i in range(k))
                 for k in ks)
    return e, prefactor, sums


def _lomax_closed_form(a: float, scale: float, t, order: int) -> tuple[list, list]:
    """[(1 + t)^(m - a) for m = 0..order], and [E[min(X, d)^k] for
    k = 1..order], at t = d/scale, a float or an array.

    E[min(X, d)^k] = k scale^k int_0^Z z^(k-1) (1 - z)^(a-k-1) dz with
    Z = t/(1 + t).  From shape 5 up, expanding (1 - z)^(a-k-1) about z = 0
    gives the negative-binomial tail k!/((a-1)...(a-k)) (1 - (1 + t)^(k-a)
    sum_{i<k} (a-k)_i/i! Z^i), which cancels only near a = k.  Below, the
    binomial expansion of z^(k-1) about z = 1 gives k sum_m (-1)^(k-m)
    C(k-1, m-1) I_m, with I_m = expm1((m - a) log(1 + t))/(m - a), or
    log(1 + t) at m = a.  Its terms cancel by about a^(k-1) at large
    shapes: at shape 50 that cost 1e-9 in the kurtosis above the series.

    Element-wise: every entry of an array gets the operations that the
    same float gets alone, with numpy's ufuncs, so the two agree bit for
    bit.
    """
    e, prefactor, coefficients = _closed_form_constants(a, scale, order)
    log_c = np.log1p(t)
    x = [m_a * log_c for m_a in e]
    powers = [np.exp(v) for v in x]
    if a >= _TAIL_SUM_SHAPE:
        z = t / (1.0 + t)
        return powers, [p * (1.0 - q * _polynomial(c, z))
                        for p, q, c in zip(prefactor, powers[1:], coefficients)]
    integrals = [log_c if m == a else np.expm1(x[m]) for m in range(1, order + 1)]
    moments = []
    for row in coefficients:
        total = row[0] * integrals[0]
        for c, integral in zip(row[1:], integrals[1:]):
            total = total + c * integral
        moments.append(total)
    return powers, moments


class SeverityModel:
    """Common interface of severity models; see ParetoII and EmpiricalLosses."""

    def survival(self, x: float) -> float:
        raise NotImplementedError

    def prob_zero(self) -> float:
        """Probability mass at zero (atom size)."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Left-continuous generalized inverse inf{x : F(x) >= p}."""
        raise NotImplementedError

    def upper_quantile(self, level: float) -> float:
        """Right endpoint sup{x : F(x) <= level} of a cdf level set."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def moment_grid(self, d) -> dict:
        """Truncated moments at retentions d, by name (`sbar`, `mu1`, `mu2`,
        `gap`, `nu1`, `nu2`, `var`): arrays for an array, and floats for a
        float, with the same arithmetic for both.  The floats are mostly
        NumPy float64 scalars, whose comparisons give numpy.bool_, so a
        caller that needs a Python bool or float converts them.
        DomainError for a negative or NaN retention."""
        raise NotImplementedError

    def knots(self) -> dict[str, np.ndarray]:
        """The retentions at which the solver reads the objective derivative,
        ascending, with the moments there.

        Columns: `knots`; `below`, the point at which the left-hand limit at
        each knot is read (the knot itself where the moments are smooth);
        the `moment_grid` columns at each knot, sbar being its right-hand
        value; and `sbar_left`, the left-hand limit of sbar.  Only sbar may
        jump at a knot, so between two knots `moment_grid` is one smooth
        function of d.  Read-only, built on first use and kept.
        """
        return self._knots

    @cached_property
    def _knots(self) -> dict[str, np.ndarray]:
        table = self._build_knots()
        for column in table.values():
            column.flags.writeable = False
        return table

    def knot_shapes(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """`load_shape` at power k at each knot of `knots()`, from the left
        and from the right (one array where sbar does not jump).  Read-only,
        built on first use and kept, one entry per power."""
        if k not in self._shapes:
            t = self.knots()
            with np.errstate(divide="ignore", invalid="ignore"):
                powers = _spread_powers(k, t["nu1"], t["nu2"])  # shared by both sides
                right = _load_shape(k, t["sbar"], *powers)
                left = (right if t["sbar_left"] is t["sbar"]
                        else _load_shape(k, t["sbar_left"], *powers))
            left.flags.writeable = right.flags.writeable = False
            self._shapes[k] = left, right
        return self._shapes[k]

    @cached_property
    def _shapes(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return {}

    def _build_knots(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def higher_truncated_moments(self, d) -> dict:
        """Skewness and excess kurtosis of min(X, d), as `kappa3` and
        `kappa4`: Python floats for d > 0, and arrays of the grid's shape
        for an array.  DomainError unless every retention is positive."""
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Deterministic sample of n losses for the given seed."""
        return self.sample_rng(n, _rng_from_seed(seed))

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ParetoII(SeverityModel):
    """Pareto type-II (Lomax) severity: survival (1 + x/scale)^(-shape).

    The mean is scale/(shape-1) for shape > 1; the second moment requires
    shape > 2.  For shape = 9, scale = 8 the mean is exactly 1.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise DomainError(f"shape must be positive, got {self.shape}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError(f"scale must be positive, got {self.scale}")

    def survival(self, x: float) -> float:
        if x < 0.0:
            raise DomainError(f"loss must be nonnegative, got {x}")
        return float((1.0 + x / self.scale) ** (-self.shape))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = (self.shape / self.scale) * (1.0 + x / self.scale) ** (-self.shape - 1.0)
        return out if out.ndim else float(out)

    def prob_zero(self) -> float:
        return 0.0

    def quantile(self, p: float) -> float:
        if not 0.0 <= p < 1.0:
            raise DomainError(f"quantile level must be in [0, 1), got {p}")
        return float(self.scale * ((1.0 - p) ** (-1.0 / self.shape) - 1.0))

    def upper_quantile(self, level: float) -> float:
        # Continuous strictly increasing cdf: both generalized inverses agree.
        return self.quantile(level)

    def mean(self) -> float:
        if self.shape <= 1.0:
            raise NonfiniteMoment(f"mean requires shape > 1, got {self.shape}")
        return self.scale / (self.shape - 1.0)

    def second_moment(self) -> float:
        if self.shape <= 2.0:
            raise NonfiniteMoment(
                f"second moment requires shape > 2, got {self.shape}"
            )
        return 2.0 * self.scale ** 2 / ((self.shape - 1.0) * (self.shape - 2.0))

    def moment_grid(self, d) -> dict:
        a, lam = self.shape, self.scale
        d, _ = _retentions(d)
        t = d / lam
        powers, (mu1, mu2) = _lomax_closed_form(a, lam, t, 2)
        gap, var = d - mu1, mu2 - mu1 * mu1
        # below u = t max(a, 1) = 1/2 the series terms shrink at least
        # twofold each, and those up to u^50 give gap and var to 2e-15
        small = t <= 0.5 / max(a, 1.0)
        if _any(small):
            # u = 0 off the series range, where the series would overflow
            h, u = lam / max(a, 1.0), _where(small, t, 0.0) * max(a, 1.0)
            series_gap, series_var = (u * _polynomial(row, u) for row in _capped_series(a)[0])
            gap = _where(small, h * series_gap, gap)
            var = _where(small, h * h * series_var, var)
            mu1 = _where(small, d - gap, mu1)
            mu2 = _where(small, var + mu1 * mu1, mu2)
        # without a finite ceded mean or second moment, (1 + t)^(m - a) >= 1
        nu1 = (lam / (a - 1.0) if a > 1.0 else math.inf) * powers[1]
        nu2 = (2.0 * lam * lam / ((a - 1.0) * (a - 2.0)) if a > 2.0 else math.inf) * powers[2]
        return {"sbar": powers[0], "mu1": mu1, "mu2": mu2, "gap": gap, "nu1": nu1,
                "nu2": nu2, "var": var}

    def _build_knots(self) -> dict[str, np.ndarray]:
        # 1000 log-spaced points from the 1e-4 to the 1 - 1e-6 quantile; the
        # moments are smooth, so each knot is its own left-hand point
        grid = log_spaced_grid(self.quantile(1e-4), self.quantile(1.0 - 1e-6), 1000)
        g = self.moment_grid(grid)
        return {"knots": grid, "below": grid, **g, "sbar_left": g["sbar"]}

    def higher_truncated_moments(self, d) -> dict:
        if not np.all(np.asarray(d) > 0.0):
            raise DomainError(f"retention must be positive, got {d}")
        a = self.shape
        t = (d if isinstance(d, float) else np.asarray(d, dtype=float)) / self.scale
        m1, m2, m3, m4 = _lomax_closed_form(a, 1.0, t, 4)[1]
        central = [m2 - m1 * m1, m3 - 3.0 * m1 * m2 + 2.0 * np.power(m1, 3),
                   m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * np.power(m1, 4)]
        # the raw moments cancel for small caps, so up to t max(a, 4) = 2
        # the series gives the central moments, in units of the scale
        small = t * max(a, 4.0) <= 2.0
        if _any(small):
            h = 1.0 / max(a, 1.0)
            u = _where(small, t, 0.0) / h
            central = [_where(small, np.power(h, k) * (u * _polynomial(row, u)), moment)
                       for k, row, moment in zip((2.0, 3.0, 4.0), _capped_series(a)[1], central)]
        return _standardised(d, *central)

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        return self.scale * ((1.0 - u) ** (-1.0 / self.shape) - 1.0)


#: The most elements of one (retentions x losses) matrix that
#: `EmpiricalLosses.higher_truncated_moments` builds, 2 MB of floats (one
#: retention's row where the sample is larger)
_CHUNK_ELEMENTS = 2 ** 18


class EmpiricalLosses(SeverityModel):
    """Empirical distribution of a nonnegative loss sample (at least 2 points).

    Survival uses the strict inequality P(X > x) = #{X_i > x}/n so that the
    plug-in moment identities hold exactly.  Prefix sums over the sorted
    sample make every first and second truncated moment an O(log n) lookup;
    the higher moments take two O(n) passes over the capped sample.

    Between two neighbouring claims the count k of losses at or below d is
    fixed, so every first and second moment is a polynomial in d whose
    coefficients are prefix sums (`cell_moments`).  The moments are
    continuous at a claim and only sbar jumps there, by the claim's ties
    over n.  The knots are the distinct positive claims up to the 0.999
    quantile, each with its left-hand limit read at the float below it;
    repeated solves on one sample share the table.
    """

    def __init__(self, losses):
        x = np.asarray(losses, dtype=float).ravel()
        if x.size < 2:
            raise DomainError("empirical model needs at least 2 losses")
        if not np.all(np.isfinite(x)):
            raise DomainError("losses must be finite")
        if np.any(x < 0.0):
            raise DomainError("losses must be nonnegative")
        self.losses = np.sort(x)
        self.n = int(x.size)
        z = np.concatenate([[0.0], self.losses])
        self._cum1 = np.cumsum(z)
        self._cum2 = np.cumsum(z * z)

    def survival(self, x: float) -> float:
        if x < 0.0:
            raise DomainError(f"loss must be nonnegative, got {x}")
        k = int(np.searchsorted(self.losses, x, side="right"))
        return (self.n - k) / self.n

    def prob_zero(self) -> float:
        return float(np.searchsorted(self.losses, 0.0, side="right")) / self.n

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"quantile level must be in [0, 1], got {p}")
        if p == 0.0:
            return float(self.losses[0])
        k = int(np.ceil(p * self.n - 1e-9))
        return float(self.losses[min(k, self.n) - 1])

    def upper_quantile(self, level: float) -> float:
        if not 0.0 <= level < 1.0:
            raise DomainError(f"level must be in [0, 1), got {level}")
        k = int(np.floor(level * self.n + 1e-9))
        return float(self.losses[min(k, self.n - 1)])

    def mean(self) -> float:
        return float(self._cum1[-1] / self.n)

    def second_moment(self) -> float:
        return float(self._cum2[-1] / self.n)

    def moment_grid(self, d) -> dict:
        d, scalar = _retentions(d)
        k = self.losses.searchsorted(d, "right")
        return self.cell_moments(d, int(k) if scalar else k)

    def cell_moments(self, d, k) -> dict:
        """Moments at retentions d, given the count k of losses at or below
        each: the polynomials in d of the cell between two claims.  Takes
        arrays or scalars, with the same arithmetic for both."""
        n = self.n
        below1 = self._cum1[k]
        below2 = self._cum2[k]
        tail_count = n - k
        tail1 = self._cum1[-1] - below1
        tail2 = self._cum2[-1] - below2
        sbar = tail_count / n
        mu1 = (below1 + d * tail_count) / n
        mu2 = (below2 + d * d * tail_count) / n
        nu1 = (tail1 - d * tail_count) / n
        nu2 = (tail2 - 2.0 * d * tail1 + d * d * tail_count) / n
        return {"sbar": sbar, "mu1": mu1, "mu2": mu2, "gap": d - mu1, "nu1": nu1,
                "nu2": nu2, "var": mu2 - mu1 * mu1}

    def _build_knots(self) -> dict[str, np.ndarray]:
        # every distinct positive claim up to the 0.999 quantile, with k, the
        # count of losses at or below it
        x = self.losses
        # one past the last index of each run of equal losses
        k = np.flatnonzero(np.append(x[1:] != x[:-1], True)) + 1
        k_left = np.append(0, k[:-1])
        positive = x[k - 1] > 0.0
        if not positive.any():
            raise AllZero("all losses are zero")
        kept = positive & (x[k - 1] <= self.quantile(0.999))
        k, k_left = k[kept], k_left[kept]
        claims = x[k - 1]
        return {"knots": claims, "below": np.nextafter(claims, 0.0),
                **self.cell_moments(claims, k), "sbar_left": (self.n - k_left) / self.n}

    def higher_truncated_moments(self, d) -> dict:
        if not np.all(np.asarray(d) > 0.0):
            raise DomainError(f"retention must be positive, got {d}")
        grid = np.asarray(d, dtype=float)
        flat = grid.reshape(-1)
        # central moments of orders 2 to 4, a chunk of retentions at a time:
        # each row of capped losses gets the same arithmetic alone or in one
        central = np.empty((3, flat.size))
        rows = max(1, _CHUNK_ELEMENTS // self.n)
        for i in range(0, flat.size, rows):
            capped = np.minimum(self.losses, flat[i:i + rows, None])
            dev = capped - capped.mean(axis=-1, keepdims=True)
            central[:, i:i + rows] = [np.mean(dev ** k, axis=-1) for k in (2, 3, 4)]
        return _standardised(d, *central.reshape(3, *grid.shape))

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self.n, size=n)
        return self.losses[idx]


def _standardised(d, var, third, fourth) -> dict:
    """Skewness and excess kurtosis from the central moments of min(X, d).

    A retention without capped variance raises DegenerateVariance, which
    names it and, for a grid, the first such point and the grid's ends."""
    if not np.all(var > 0.0):
        if np.ndim(d) == 0:
            raise DegenerateVariance(f"capped loss at d={d} has zero variance")
        grid = np.ravel(d)
        first = np.flatnonzero(~(np.ravel(var) > 0.0))[0]
        raise DegenerateVariance(
            f"capped loss at d={float(grid[first])} has zero variance (the first "
            f"such point of {grid.size} retentions from {float(grid[0])} to {float(grid[-1])})"
        )
    kappa3, kappa4 = third / np.power(var, 1.5), fourth / (var * var) - 3.0
    if np.ndim(d) == 0:
        kappa3, kappa4 = float(kappa3), float(kappa4)
    return {"kappa3": kappa3, "kappa4": kappa4}


def kde_density(losses, x):
    """Gaussian kernel density estimate of the loss density at x >= 0;
    DomainError for a negative or NaN point.

    losses is an `EmpiricalLosses` model or a loss sample.  The bandwidth is
    the sample's own, Silverman's rule (Density Estimation, 1986, eq. 3.31):
    h = 0.9 min(sd, IQR/1.34) n^(-1/5), with the sd alone where the quartiles
    coincide; a sample without spread raises DegenerateVariance.  Losses are
    nonnegative, so the kernels are reflected at 0.  Each point sums the
    kernels of the claims, and of their mirror images, within 9h of it: a
    term left out is below exp(-40.5).  The points are taken one at a time,
    so memory does not grow with their number, and a point's density does
    not depend on the others.
    """
    emp = losses if isinstance(losses, EmpiricalLosses) else EmpiricalLosses(losses)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs >= 0.0):
        raise DomainError(f"density point must be nonnegative, got {xs[~(xs >= 0.0)][0]}")
    claims = emp.losses
    if claims[0] == claims[-1]:
        raise DegenerateVariance("a sample without spread has no density bandwidth")
    dev = claims - emp.mean()
    sd, iqr = math.sqrt(dev @ dev / emp.n), emp.quantile(0.75) - emp.quantile(0.25)
    h = 0.9 * (min(sd, iqr / 1.34) if iqr > 0.0 else sd) * emp.n ** -0.2
    cut = 9.0 * h
    lo, hi, mirrored = (np.searchsorted(claims, v) for v in (xs - cut, xs + cut, cut - xs))
    sums = np.empty(xs.shape)
    for i, at in enumerate(xs):
        z = at - np.concatenate([claims[lo[i]:hi[i]], -claims[:mirrored[i]]])
        z /= h
        z *= z
        z *= -0.5
        sums[i] = np.exp(z, out=z).sum()
    dens = sums / (emp.n * h * math.sqrt(2.0 * math.pi))
    return float(dens[0]) if np.ndim(x) == 0 else dens


def summary_and_lorenz(losses) -> LossSummary:
    """Location summary plus the Lorenz curve of loss concentration.

    The Lorenz curve is returned as an (n+1, 2) array of points
    (k/n, share of total losses in the k smallest claims).
    """
    x = np.sort(np.asarray(losses, dtype=float).ravel())
    if x.size == 0:
        raise DomainError("empty loss sample")
    if not np.all(np.isfinite(x)):
        raise DomainError("losses must be finite")
    if np.any(x < 0.0):
        raise DomainError("losses must be nonnegative")
    total = x.sum()
    if total <= 0.0:
        raise AllZero("all losses are zero; concentration is undefined")
    cum = np.concatenate([[0.0], np.cumsum(x)]) / total
    cum[-1] = 1.0  # pin the endpoint against cumsum rounding
    u = np.arange(x.size + 1) / x.size
    return LossSummary(
        count=int(x.size),
        mean=float(x.mean()),
        median=float(np.median(x)),
        max=float(x[-1]),
        lorenz=np.column_stack([u, cum]),
    )
