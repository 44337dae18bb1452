"""Claim-severity models and their truncated / excess-layer moments.

Two models are supported: a Pareto type-II (Lomax) distribution with closed
moment formulas, and the empirical distribution of an observed loss sample.
Both expose the same interface so solvers and estimators can run on either.

Moment notation used throughout (d is the retention):

    sbar = P(X > d)
    mu1  = E[min(X, d)]
    mu2  = E[min(X, d)^2]
    nu1  = E[(X - d)+]
    nu2  = E[(X - d)+^2]
    var  = Var(min(X, d)) = mu2 - mu1^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AllZero,
    DegenerateVariance,
    DomainError,
    NonfiniteMoment,
)
from .numerics import log_spaced_grid


@dataclass(frozen=True)
class TruncatedMoments:
    """Capped and excess moments of a severity model at retention d."""

    d: float
    sbar: float
    mu1: float
    mu2: float
    nu1: float
    nu2: float
    var: float


@dataclass(frozen=True)
class HigherTruncatedMoments:
    """Third/fourth capped moments with standardised skewness and excess kurtosis."""

    d: float
    m3: float
    m4: float
    kappa3: float
    kappa4: float


@dataclass(frozen=True)
class LossSummary:
    count: int
    mean: float
    median: float
    max: float
    lorenz: np.ndarray


def _rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


_VARIANCE_SERIES_TERMS = 48
_VARIANCE_SERIES_POWERS = np.arange(3.0, _VARIANCE_SERIES_TERMS + 3.0)  # m + 2


@lru_cache(maxsize=64)
def _capped_variance_series(a: float) -> np.ndarray:
    """Coefficients w_1, w_2, ... of the Lomax capped variance in t = d/scale.

    Var(X wedge d) = 2 int_0^d S(y) int_0^y F(x) dx dy.  With c_j the
    binomial coefficients of S = (1 + t)^(-a) and F = -sum_{j>=1} c_j t^j,
    it is scale^2 sum_{m>=1} w_m t^(m+2), where

        w_m = 2/(m+2) sum_{j=1..m} c_{m-j} (-c_j)/(j+1).

    Every product in one w_m has the same sign, so the coefficients carry
    no cancellation; w_1 = a/3.
    """
    k = _VARIANCE_SERIES_TERMS
    c = np.empty(k + 1)
    c[0] = 1.0
    for j in range(k):
        c[j + 1] = c[j] * -(a + j) / (j + 1.0)
    excess = -c[1:] / np.arange(2.0, k + 2.0)  # -c_j/(j+1), j = 1..k
    w = 2.0 * np.convolve(c[:k], excess)[:k] / _VARIANCE_SERIES_POWERS
    w.flags.writeable = False  # shared by every caller through the cache
    return w


class SeverityModel:
    """Common interface of severity models; see ParetoII and EmpiricalLosses."""

    def survival(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        return 1.0 - self.survival(x)

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

    def truncated_moments(self, d: float) -> TruncatedMoments:
        if d < 0.0:
            raise DomainError(f"retention must be nonnegative, got {d}")
        g = self.moment_grid(np.array([d], dtype=float))
        return TruncatedMoments(d=float(d), **{k: float(v[0]) for k, v in g.items()})

    def moment_grid(self, d: np.ndarray) -> dict[str, np.ndarray]:
        """Vectorised truncated moments over an array of retentions."""
        raise NotImplementedError

    def higher_truncated_moments(self, d: float) -> HigherTruncatedMoments:
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Deterministic sample of n losses for the given seed."""
        return self.sample_rng(n, _rng_from_seed(seed))

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _standardised_higher(self, d: float, m1: float, m2: float,
                             m3: float, m4: float) -> HigherTruncatedMoments:
        var = m2 - m1 * m1
        if var <= 0.0:
            raise DegenerateVariance(
                f"capped loss at d={d:g} has zero variance"
            )
        c3 = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3
        c4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 ** 4
        return HigherTruncatedMoments(
            d=float(d),
            m3=float(m3),
            m4=float(m4),
            kappa3=float(c3 / var ** 1.5),
            kappa4=float(c4 / (var * var) - 3.0),
        )


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

    def moment_grid(self, d: np.ndarray) -> dict[str, np.ndarray]:
        a, lam = self.shape, self.scale
        d = np.asarray(d, dtype=float)
        t = d / lam
        c = 1.0 + t
        sbar = c ** (-a)
        c1 = c ** (1.0 - a)
        c2 = c ** (2.0 - a)
        # integral of w^(1-a) over [1, c], with the logarithmic limit at a = 2
        if a == 2.0:
            i1 = np.log(c)
        else:
            i1 = (c2 - 1.0) / (2.0 - a)
        # integral of w^(-a) over [1, c], logarithmic at a = 1
        if a == 1.0:
            i0 = np.log(c)
            mu1 = lam * i0
        else:
            i0 = (c1 - 1.0) / (1.0 - a)
            mu1 = (lam / (a - 1.0)) * (1.0 - c1)
        mu2 = 2.0 * lam * lam * (i1 - i0)
        if a > 1.0:
            nu1 = (lam / (a - 1.0)) * c1
        else:
            nu1 = np.full_like(c, np.inf)
        if a > 2.0:
            nu2 = 2.0 * lam * lam / ((a - 1.0) * (a - 2.0)) * c2
        else:
            nu2 = np.full_like(c, np.inf)
        var = mu2 - mu1 ** 2
        # mu2 - mu1^2 cancels to O(t^3) for small caps, so below a*t = 1/2
        # (t = 1/2 for a < 1) the series takes over: its terms shrink at
        # least twofold each, and 48 of them keep it within 2e-15 relative.
        # Above, the closed form is within about 6e-14 + 1e-14*a relative,
        # which is 1e-12 or better for shapes up to 90.
        small = t <= 1.0 / (2.0 * max(a, 1.0))
        if small.any():
            var = np.array(var, dtype=float)
            powers = np.power.outer(t[small], _VARIANCE_SERIES_POWERS)
            var[small] = (powers @ _capped_variance_series(a)) * (lam * lam)
        return {"sbar": sbar, "mu1": mu1, "mu2": mu2, "nu1": nu1, "nu2": nu2,
                "var": var}

    def _capped_power(self, k: int, d: float) -> float:
        """E[(X wedge d)^k] via k * integral of x^(k-1) survival(x).

        Substituting u = 1 + x/lambda turns each term into a power of u, so
        the integral is exact for any cap; exponents of -1 fall back to log.
        The antiderivative terms cancel to O((d/lambda)^k), so small caps
        switch to the binomial series of (1 + s)^(-alpha), which is exact
        term by term.
        """
        a = self.shape
        t = d / self.scale
        if t <= 0.5:
            total = 0.0
            coef = 1.0
            for j in range(400):
                term = coef * t ** (k + j) / (k + j)
                total += term
                if abs(term) <= 1e-17 * abs(total):
                    break
                coef *= -(a + j) / (j + 1.0)
            return float(k * self.scale ** k * total)
        c = 1.0 + t
        total = 0.0
        for j in range(k):
            expo = (k - 1 - j) - a
            coeff = math.comb(k - 1, j) * (-1.0) ** j
            if expo == -1.0:
                piece = math.log(c)
            else:
                piece = (c ** (expo + 1.0) - 1.0) / (expo + 1.0)
            total += coeff * piece
        return float(k * self.scale ** k * total)

    def search_grid(self) -> np.ndarray:
        """Retentions at which the solver samples the objective derivative:
        1000 log-spaced points from the 1e-4 to the 1 - 1e-6 quantile."""
        return log_spaced_grid(self.quantile(1e-4), self.quantile(1.0 - 1e-6), 1000)

    def higher_truncated_moments(self, d: float) -> HigherTruncatedMoments:
        if d <= 0.0:
            raise DomainError(f"retention must be positive, got {d}")
        tm = self.truncated_moments(d)
        m3 = self._capped_power(3, d)
        m4 = self._capped_power(4, d)
        return self._standardised_higher(d, tm.mu1, tm.mu2, m3, m4)

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        return self.scale * ((1.0 - u) ** (-1.0 / self.shape) - 1.0)


class EmpiricalLosses(SeverityModel):
    """Empirical distribution of a nonnegative loss sample (at least 2 points).

    Survival uses the strict inequality P(X > x) = #{X_i > x}/n so that the
    plug-in moment identities hold exactly.  Prefix sums over the sorted
    sample make every first and second truncated moment an O(log n) lookup;
    the third and fourth take one O(n) pass over the capped sample.

    Between two neighbouring claims the count k of losses at or below d is
    fixed, so every first and second moment is a polynomial in d whose
    coefficients are prefix sums (`cell_moments`).  The moments are
    continuous at a claim and only sbar jumps there, by the claim's ties
    over n: `claim_table` holds, for every distinct positive claim, the
    moments at the claim and sbar on both sides of it.  It is built on
    first use and kept, so repeated solves on one sample share it.
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
        self._claims: dict[str, np.ndarray] | None = None

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

    def moment_grid(self, d: np.ndarray) -> dict[str, np.ndarray]:
        d = np.asarray(d, dtype=float)
        return self.cell_moments(d, np.searchsorted(self.losses, d, side="right"))

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
        return {"sbar": sbar, "mu1": mu1, "mu2": mu2, "nu1": nu1, "nu2": nu2,
                "var": mu2 - mu1 * mu1}

    def claim_table(self) -> dict[str, np.ndarray]:
        """The moments at every distinct positive claim, ascending.

        Columns: `claims`; `k`, the count of losses at or below each claim;
        the `cell_moments` there (sbar is the right-hand value); and
        `sbar_left`, the share of losses at or above the claim.  Read-only;
        AllZero when no loss is positive.
        """
        if self._claims is None:
            self._claims = self._build_claim_table()
        return self._claims

    def _build_claim_table(self) -> dict[str, np.ndarray]:
        x = self.losses
        # one past the last index of each run of equal losses
        k = np.flatnonzero(np.append(x[1:] != x[:-1], True)) + 1
        k_left = np.append(0, k[:-1])
        positive = x[k - 1] > 0.0
        if not positive.any():
            raise AllZero("all losses are zero")
        k, k_left = k[positive], k_left[positive]
        claims = x[k - 1]
        table = {"claims": claims, "k": k, **self.cell_moments(claims, k),
                 "sbar_left": (self.n - k_left) / self.n}
        for column in table.values():
            column.flags.writeable = False
        return table

    def higher_truncated_moments(self, d: float) -> HigherTruncatedMoments:
        if d <= 0.0:
            raise DomainError(f"retention must be positive, got {d}")
        c = np.minimum(self.losses, d)
        m1, m2, m3, m4 = (float(np.mean(c ** k)) for k in range(1, 5))
        return self._standardised_higher(d, m1, m2, m3, m4)

    def sample_rng(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self.n, size=n)
        return self.losses[idx]


def kde_density(losses, x, bandwidth: float = 0.1):
    """Gaussian kernel density estimate of the loss density at x.

    Accepts scalar or array x; the bandwidth is the kernel standard
    deviation on the loss scale.
    """
    if bandwidth <= 0.0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    losses = np.asarray(losses, dtype=float).ravel()
    if losses.size == 0:
        raise DomainError("need at least one loss for a density estimate")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    z = (xs[:, None] - losses[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (
        losses.size * bandwidth * math.sqrt(2.0 * math.pi)
    )
    return float(dens[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else dens


def summary_and_lorenz(losses) -> LossSummary:
    """Location summary plus the Lorenz curve of loss concentration.

    The Lorenz curve is returned as an (n+1, 2) array of points
    (k/n, share of total losses in the k smallest claims).
    """
    x = np.sort(np.asarray(losses, dtype=float).ravel())
    if x.size == 0:
        raise DomainError("empty loss sample")
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
