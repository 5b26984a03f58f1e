"""Exception hierarchy shared across the package, and the config finiteness check.

The CLI maps ConfigError to exit code 2 and NumericalError (and
subclasses) to exit code 3.
"""

import math
from dataclasses import fields
from numbers import Real


class HermiteTrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HermiteTrError):
    """Invalid or unparsable configuration."""


def require_finite(config, error=ConfigError):
    """Raise error unless every real in dataclass config's fields, tuples included, is finite."""
    for f in fields(config):
        if not _finite(getattr(config, f.name)):
            raise error(f"{f.name} must be finite, got {getattr(config, f.name)!r}")


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return not isinstance(value, Real) or math.isfinite(value)


class NumericalError(HermiteTrError):
    """Base class for numerical failures during a run."""


class DuplicatePointsError(NumericalError):
    """Training points closer than the distinctness threshold."""

    def __init__(self, i, j, dist):
        self.indices = (i, j)
        self.dist = dist
        super().__init__(
            f"training points {i} and {j} coincide (distance {dist:.3e})"
        )


class IllConditionedGramError(NumericalError):
    """Gram factorization failed even at the maximum jitter level."""

    def __init__(self, jitter, size):
        self.jitter = jitter
        self.size = size
        super().__init__(
            f"Gram matrix of size {size} not factorizable (max jitter {jitter:.1e})"
        )


class AssumptionViolationError(NumericalError):
    """Surrogate or objective dropped below its positivity floor.

    The constraint ratio requires a strictly positive denominator; add a
    larger additive offset to the objective if this fires at evaluation
    points of interest.
    """


class LineSearchError(NumericalError):
    """Backtracking exhausted without an acceptable point."""


class StalledError(NumericalError):
    """Too many consecutive rejections in the outer loop."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)
