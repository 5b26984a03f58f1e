"""Benchmark objectives behind a common evaluation-counting interface.

An objective evaluation always returns the value together with its
gradient and increments the counter by exactly one; the counter is the
cost metric reported by the experiment harness.  peek() computes the same
quantities without counting and exists for audits and reference checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionViolationError, ConfigError


@dataclass
class Problem:
    """Objective with box bounds and an evaluation counter."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], tuple]
    counter: int = 0
    positivity_guard: bool = True

    def eval(self, x):
        """Counted evaluation of (J, grad J) at x."""
        self.counter += 1
        return self._compute(x)

    def peek(self, x):
        """Uncounted evaluation, for audits and reference bookkeeping."""
        return self._compute(x)

    def _compute(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        val, grad = self.fn(x)
        if self.positivity_guard and not val > 0.0:
            raise AssumptionViolationError(
                f"{self.name}: objective value {val:.3e} at {x} is not strictly "
                "positive; add a larger additive offset"
            )
        return float(val), np.asarray(grad, dtype=float)

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))


def problem_1d() -> Problem:
    """Single-well 1D objective on [-2, 2] with minimum value 2 at 0."""

    def fn(x):
        mu = x[0]
        val = -np.exp(-mu**2) + 3.0 * np.exp(-0.001 * mu**2)
        grad = 2.0 * mu * np.exp(-mu**2) - 0.006 * mu * np.exp(-0.001 * mu**2)
        return val, np.array([grad])

    return Problem(
        name="one_d",
        dim=1,
        lower=np.array([-2.0]),
        upper=np.array([2.0]),
        fn=fn,
    )


def problem_rosenbrock() -> Problem:
    """Rosenbrock valley shifted by +1 so the objective stays positive."""

    def fn(x):
        a, b = x
        val = (1.0 - a) ** 2 + 100.0 * (b - a**2) ** 2 + 1.0
        grad = np.array(
            [-2.0 * (1.0 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)]
        )
        return val, grad

    return Problem(
        name="rosenbrock",
        dim=2,
        lower=np.array([-np.inf, -np.inf]),
        upper=np.array([np.inf, np.inf]),
        fn=fn,
    )


def problem_pde2d(grid_n: int = 96) -> Problem:
    """Diffusion-control objective driven by the 2D elliptic solver."""
    from .pde2d import Pde2dDiscretization, pde2d_gradient, pde2d_solve

    disc = Pde2dDiscretization.build(grid_n)

    def fn(mu):
        u, val, lu = pde2d_solve(disc, mu)
        grad = pde2d_gradient(disc, mu, u, lu=lu)
        return val, grad

    return Problem(
        name="pde2d",
        dim=2,
        lower=np.array([0.5, 0.5]),
        upper=np.array([np.pi, np.pi]),
        fn=fn,
    )


# name -> factory taking the grid size, which only the PDE problem uses
PROBLEM_FACTORIES = {
    "one_d": lambda grid_n: problem_1d(),
    "rosenbrock": lambda grid_n: problem_rosenbrock(),
    "pde2d": problem_pde2d,
}


def make_problem(name: str, grid_n: int = 96) -> Problem:
    try:
        factory = PROBLEM_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}") from None
    return factory(grid_n)


def bounded_box(problem: Problem, box=None):
    """(lower, upper) float arrays of box, or of the problem's own box if None.

    Sampling needs finite bounds, so an unbounded result is a config
    error: the caller has to supply a start_box.
    """
    lower, upper = (np.asarray(b, dtype=float)
                    for b in (box if box is not None else (problem.lower, problem.upper)))
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ConfigError(f"problem {problem.name} has an unbounded box; provide start_box")
    return lower, upper
