"""Exception types shared across the package.

Every domain failure raises a subclass of XoloptError so callers (and the
CLI) can distinguish modelling problems from programming errors.
"""

from __future__ import annotations


class XoloptError(Exception):
    """Base class for all domain errors raised by this package."""


class DomainError(XoloptError, ValueError):
    """An argument is outside the mathematically valid domain."""


class NonfiniteMoment(XoloptError):
    """A required moment of the severity model does not exist."""


class DegenerateVariance(XoloptError):
    """A variance needed by a formula is zero or negative."""


class AllZero(XoloptError):
    """All losses are zero, so ratio-based summaries are undefined."""


class NumericalFailure(XoloptError):
    """Quadrature or iteration failed to reach the requested accuracy."""


class NonpositivePhi(XoloptError):
    """The distortion coefficient of the normal term is not positive."""


class ConditionViolated(XoloptError):
    """A sufficient condition required by the solver fails."""


class AtomConditionViolated(ConditionViolated):
    """The probability mass at zero is too large for the root to exist."""


class NoRootFound(XoloptError):
    """No stationary point exists in the searchable range."""


class ConditionNotMet(XoloptError):
    """The stop-loss optimality condition fails, no finite retention."""


class GridBoundaryMinimum(XoloptError):
    """A Monte Carlo grid search ended on the boundary of the grid."""


class LossParseError(XoloptError):
    """A loss input file could not be parsed.

    Attributes:
        line: 1-based line number of the offending record, 0 if global.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
