"""Distortion risk measures and their action on a standard normal variable.

A distortion function h maps [0, 1] onto [0, 1], is nondecreasing, and
satisfies h(0) = 0, h(1) = 1.  The induced risk measure of a random variable
Z is the Choquet integral of its survival function.  What the retention
solvers need is the scalar

    phi_h(Z) = integral over t in (0, 1) of Quantile_Z(1 - t) dh(t)

for standard normal Z: it replaces the plain normal quantile in the
normal-approximation objectives.

var, es and wang have closed forms.  The other kinds take phi from one
trapezoid rule through `DistortionMeasure.h_prime`; the module needs only
numpy and the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import DomainError, NumericalFailure

_KINDS = ("var", "es", "dualpower", "gini", "pht", "wang")

#: Reference pairs (p, standard normal quantile) used by the self-check.
REFERENCE_QUANTILES = (
    (0.5, 0.0),
    (0.75, 0.6744897501960817),
    (0.9, 1.2815515655446004),
    (0.95, 1.6448536269514722),
    (0.975, 1.959963984540054),
    (0.99, 2.3263478740408408),
)

_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile, valid for p strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class DistortionMeasure:
    """One member of the supported distortion family.

    kind: 'var', 'es', 'dualpower', 'gini', 'pht', or 'wang'
    param: risk level p for var/es, distortion parameter beta otherwise
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown distortion kind {self.kind!r}")
        p = self.param
        if self.kind in ("var", "es") and not 0.0 < p < 1.0:
            raise DomainError(f"{self.kind} level must be in (0, 1), got {p}")
        if self.kind == "dualpower" and p < 1.0:
            raise DomainError(f"dual-power exponent must be >= 1, got {p}")
        if self.kind == "gini" and not 0.0 <= p <= 1.0:
            raise DomainError(f"gini parameter must be in [0, 1], got {p}")
        if self.kind == "pht" and not 0.0 <= p < 1.0:
            raise DomainError(f"pht parameter must be in [0, 1), got {p}")
        if self.kind == "wang" and p < 0.0:
            raise DomainError(f"wang parameter must be >= 0, got {p}")

    @classmethod
    def var(cls, p: float) -> "DistortionMeasure":
        return cls("var", p)

    @classmethod
    def es(cls, p: float) -> "DistortionMeasure":
        return cls("es", p)

    @classmethod
    def dual_power(cls, beta: float) -> "DistortionMeasure":
        return cls("dualpower", beta)

    @classmethod
    def gini(cls, beta: float) -> "DistortionMeasure":
        return cls("gini", beta)

    @classmethod
    def pht(cls, beta: float) -> "DistortionMeasure":
        return cls("pht", beta)

    @classmethod
    def wang(cls, beta: float) -> "DistortionMeasure":
        return cls("wang", beta)

    def h(self, s):
        """Distortion function evaluated at survival level s in [0, 1]."""
        scalar = np.asarray(s).ndim == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any((s < 0.0) | (s > 1.0)):
            raise DomainError("distortion argument must lie in [0, 1]")
        b = self.param
        if self.kind == "var":
            out = (s >= b).astype(float)
        elif self.kind == "es":
            out = np.minimum(s / (1.0 - b), 1.0)
        elif self.kind == "dualpower":
            out = 1.0 - (1.0 - s) ** b
        elif self.kind == "gini":
            out = (1.0 + b) * s - b * s * s
        elif self.kind == "pht":
            out = s ** (1.0 - b)
        else:  # wang
            z = _normal_quantiles(s).ravel()
            out = np.array([normal_cdf(x + b) for x in z]).reshape(s.shape)
        return float(out[0]) if scalar else out

    def h_prime(self, s):
        """Derivative of h on (0, 1); undefined for the var kind."""
        s = np.asarray(s, dtype=float)
        b = self.param
        if self.kind == "var":
            raise DomainError("var distortion has no density")
        if self.kind == "es":
            return np.where(s < 1.0 - b, 1.0 / (1.0 - b), 0.0)
        if self.kind == "dualpower":
            return b * (1.0 - s) ** (b - 1.0)
        if self.kind == "gini":
            return (1.0 + b) - 2.0 * b * s
        if self.kind == "pht":
            return (1.0 - b) * s ** (-b)
        # wang: density(z + b) / density(z) at z = quantile(s), written as a
        # power so that s = 0 and s = 1 take their limits
        return np.exp(-_normal_quantiles(s)) ** b * math.exp(-0.5 * b * b)

    def phi_normal(self) -> float:
        """phi_h of a standard normal variable (cached per measure)."""
        return _phi_normal_cached(self.kind, self.param)

    def describe(self) -> str:
        return f"{self.kind}:{self.param:g}"


@lru_cache(maxsize=256)
def _phi_normal_cached(kind: str, param: float) -> float:
    if kind == "var":
        return normal_quantile(param)
    if kind == "es":
        z = normal_quantile(param)
        return float(np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) / (1.0 - param))
    if kind == "wang":
        # Choquet shift property: distorting a normal by wang(beta) moves
        # its mean by exactly beta.
        return float(param)
    return phi_normal_by_quadrature(DistortionMeasure(kind, param))


def _normal_quantiles(s: np.ndarray) -> np.ndarray:
    """normal_quantile elementwise, extended by -inf at 0 and +inf at 1."""
    flat = [
        normal_quantile(x) if 0.0 < x < 1.0 else math.copysign(math.inf, x - 0.5)
        for x in s.ravel()
    ]
    return np.array(flat).reshape(s.shape)


#: Trapezoid rule for phi: nodes z = k * step for |k| <= 3700.  The integrand
#: z h'(S(z)) density(z) is smooth and decays like a Gaussian, so the rule is
#: exact to rounding once the part beyond +-37 is negligible.
_PHI_STEP = 0.01
_PHI_HALF_NODES = 3700
#: Largest integrand value at either end of the range, relative to phi,
#: that the rule accepts; its error is about this ratio.
_PHI_END_TOL = 1e-12


@lru_cache(maxsize=1)
def _phi_grid() -> tuple[np.ndarray, np.ndarray]:
    """Survival levels S(z) and the factor z * density(z) at every node."""
    z = np.arange(-_PHI_HALF_NODES, _PHI_HALF_NODES + 1) * _PHI_STEP
    survival = np.array([normal_cdf(-x) for x in z])
    z_density = z * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    for a in (survival, z_density):
        a.flags.writeable = False  # shared by every caller through the cache
    return survival, z_density


def phi_normal_by_quadrature(measure: DistortionMeasure) -> float:
    """phi_h(Z) = integral of z h'(S(z)) density(z) dz, by the trapezoid rule.

    Substituting the survival level t = S(z) = P(Z > z) turns the quantile
    factor into z.  Only measures with a continuous h' qualify; raises
    NumericalFailure when the integrand has not died out at the ends of the
    range, as for pht with beta near 1.
    """
    if measure.kind in ("var", "es"):
        raise DomainError(
            f"{measure.describe()} has a jump in h'; use the closed form"
        )
    survival, z_density = _phi_grid()
    f = z_density * measure.h_prime(survival)
    total = float(_PHI_STEP * (f.sum() - 0.5 * (f[0] + f[-1])))
    end = max(abs(f[0]), abs(f[-1]))
    if not (math.isfinite(total) and end <= _PHI_END_TOL * max(abs(total), 1.0)):
        raise NumericalFailure(
            f"phi rule for {measure.describe()} is cut off at |z| = "
            f"{_PHI_HALF_NODES * _PHI_STEP:g}: end value {end:g}, phi {total:g}"
        )
    return total


def parse_measure(text: str) -> DistortionMeasure:
    """Parse 'kind:param' strings such as 'var:0.75' or 'wang:0.5'."""
    parts = text.strip().lower().split(":")
    if len(parts) != 2:
        raise DomainError(
            f"measure must look like 'var:0.75', got {text!r}"
        )
    kind, raw = parts
    try:
        param = float(raw)
    except ValueError:
        raise DomainError(f"measure parameter is not a number: {raw!r}") from None
    return DistortionMeasure(kind=kind, param=param)
