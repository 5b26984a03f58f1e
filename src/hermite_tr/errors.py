"""Exception hierarchy shared across the package, and the config value checks.

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


def integral(raw):
    """int(raw), refusing a YAML boolean and a non-integral float."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(raw)


class NumericalError(HermiteTrError):
    """Base class for numerical failures during a run.

    report is the raising run's partial RunReport, ending "stalled" at its
    last iterate, or None if the run failed before it had an iterate.
    """

    report = None


def failure_text(exc) -> str:
    """A failed run's record: the error's type and text."""
    return f"{type(exc).__name__}: {exc}"


class NonFiniteError(NumericalError):
    """The objective returned an infinite or NaN value or gradient."""


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
    """No further progress.

    Raised after max_rejects trust-region rejections in a row, when a baseline
    line search fails along steepest descent, and with no usable reference start.
    """
