"""Benchmark objectives behind a common evaluation-counting interface.

Every objective evaluation goes through Problem.eval and increments the
counter by exactly one; the counter is the cost metric reported by the
experiment harness, and nothing reads J or its gradient without it.  Each
request calls the objective once, a repeated point too; the only reuse of
an evaluated datum is the driver's, at a model center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionViolationError, NonFiniteError


@dataclass
class Problem:
    """Objective with box bounds and an evaluation counter.

    fn maps a point to (J, grad J).
    """

    name: str
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], tuple]
    counter: int = 0

    @property
    def dim(self) -> int:
        return len(self.lower)

    def eval(self, x):
        """Counted evaluation of (J, grad J) at x; the gradient is a fresh array.

        Each call counts one and calls fn once, at a repeated point too.
        A non-finite J or gradient raises NonFiniteError and a J that is not
        positive AssumptionViolationError; either still counts.
        """
        x = np.array(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        self.counter += 1
        val, grad = self.fn(x)
        val, grad = float(val), np.array(grad, dtype=float)
        if not (math.isfinite(val) and np.isfinite(grad).all()):
            raise NonFiniteError(
                f"{self.name}: non-finite objective at {x}: J = {val!r}, grad J = {grad}"
            )
        if not val > 0.0:
            raise AssumptionViolationError(
                f"{self.name}: objective value {val:.3e} at {x} is not strictly "
                "positive; add a larger additive offset"
            )
        return val, grad


# name -> (lower, upper) bounds, known without building the problem: its
# dimension is their length, and the config samples in them or a start_box
BOXES = {
    "one_d": ((-2.0,), (2.0,)),
    "rosenbrock": ((-np.inf, -np.inf), (np.inf, np.inf)),
    "pde2d": ((0.5, 0.5), (np.pi, np.pi)),
}


def _boxed(name, fn) -> Problem:
    lower, upper = BOXES[name]
    return Problem(name=name, lower=np.array(lower), upper=np.array(upper), fn=fn)


def problem_1d() -> Problem:
    """Single-well 1D objective on [-2, 2] with minimum value 2 at 0."""

    def fn(x):
        mu = x[0]
        val = -np.exp(-mu**2) + 3.0 * np.exp(-0.001 * mu**2)
        grad = 2.0 * mu * np.exp(-mu**2) - 0.006 * mu * np.exp(-0.001 * mu**2)
        return val, np.array([grad])

    return _boxed("one_d", fn)


def problem_rosenbrock() -> Problem:
    """Rosenbrock valley shifted by +1 so the objective stays positive."""

    def fn(x):
        a, b = x
        val = (1.0 - a) ** 2 + 100.0 * (b - a**2) ** 2 + 1.0
        grad = np.array(
            [-2.0 * (1.0 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)]
        )
        return val, grad

    return _boxed("rosenbrock", fn)


def problem_pde2d(grid_n: int) -> Problem:
    """Diffusion-control objective driven by the 2D elliptic solver.

    Problems on one grid share its discretization, which holds nothing
    that depends on mu; each keeps its own counter.
    """
    from .pde2d import discretization, pde2d_gradient, pde2d_solve

    disc = discretization(grid_n)

    def fn(mu):
        r, val, f = pde2d_solve(disc, mu)
        return val, pde2d_gradient(disc, mu, r, f)

    return _boxed("pde2d", fn)


# name -> factory taking the grid size, which only the PDE problem uses
PROBLEM_FACTORIES = {
    "one_d": lambda grid_n: problem_1d(),
    "rosenbrock": lambda grid_n: problem_rosenbrock(),
    "pde2d": problem_pde2d,
}


def make_problem(name: str, grid_n: int) -> Problem:
    try:
        factory = PROBLEM_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}") from None
    return factory(grid_n)
