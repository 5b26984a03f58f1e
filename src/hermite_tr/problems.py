"""Benchmark objectives behind a common evaluation-counting interface.

Every objective evaluation goes through Problem.eval and increments the
counter by exactly one; the counter is the cost metric reported by the
experiment harness, and nothing reads J or its gradient without it.  A
memo keyed by the exact bytes of the point serves a repeated point without
calling the objective again; it saves wall time only, since each request
still counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AssumptionViolationError, ConfigError


@dataclass
class Problem:
    """Objective with box bounds, an evaluation counter and a memo of evaluated points.

    fn maps a point to (J, grad J).
    """

    name: str
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], tuple]
    counter: int = 0
    # x.tobytes() -> (J, grad J)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def eval(self, x):
        """Counted evaluation of (J, grad J) at x; the gradient is a fresh array."""
        x = np.array(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        self.counter += 1
        key = x.tobytes()
        entry = self._memo.get(key)
        if entry is None:
            val, grad = self.fn(x)
            if not val > 0.0:
                raise AssumptionViolationError(
                    f"{self.name}: objective value {val:.3e} at {x} is not strictly "
                    "positive; add a larger additive offset"
                )
            entry = self._memo[key] = (float(val), np.asarray(grad, dtype=float))
        return entry[0], entry[1].copy()


# name -> (lower, upper) bounds; a problem's dimension is their length, so
# it is known without building the problem
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
    """Diffusion-control objective driven by the 2D elliptic solver."""
    from .pde2d import Pde2dDiscretization, pde2d_gradient, pde2d_solve

    disc = Pde2dDiscretization.build(grid_n)

    def fn(mu):
        w, val, f = pde2d_solve(disc, mu)
        return val, pde2d_gradient(disc, mu, w, f)

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
