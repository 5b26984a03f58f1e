"""Benchmark objectives behind a common evaluation-counting interface.

Every objective evaluation goes through Problem.eval and increments the
counter by exactly one; the counter is the cost metric reported by the
experiment harness, and nothing reads J or its gradient without it.  Each
request calls the objective once, a repeated point too; the only reuse of
an evaluated datum is the driver's, at a model center.  A problem is one
Entry of PROBLEMS: its box, its factory and its closed-form norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AssumptionViolationError, NonFiniteError
from .kernels import GAUSSIAN


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


def _boxed(name, fn) -> Problem:
    lower, upper = PROBLEMS[name].box
    return Problem(name=name, lower=np.array(lower), upper=np.array(upper), fn=fn)


def problem_1d() -> Problem:
    """Single-well 1D objective on [-2, 2] with minimum value 2 at 0."""

    def fn(x):
        mu = x[0]
        val = -np.exp(-mu**2) + 3.0 * np.exp(-0.001 * mu**2)
        grad = 2.0 * mu * np.exp(-mu**2) - 0.006 * mu * np.exp(-0.001 * mu**2)
        return val, np.array([grad])

    return _boxed("one_d", fn)


def analytic_norm_1d_gaussian(eps: float) -> float:
    """Exact RKHS norm of problem_1d's objective, Gaussian kernel.

    Derived by integrating |F(J)|^2 / F(phi) over frequency space for
    J(u) = -exp(-u^2) + 3 exp(-0.001 u^2); finite only for eps^2 > 1/2, and
    then positive: the third term exceeds the second wherever eps^2 > 0.001.
    """
    e2 = float(eps) ** 2
    if e2 <= 0.5:
        raise ValueError(
            f"RKHS norm divergent for this shape parameter (eps^2 = {e2:.4g} <= 1/2)"
        )
    norm_sq = e2 * (
        1.0 / np.sqrt(2.0 * e2 - 1.0)
        - 60.0 * np.sqrt(10.0) / np.sqrt(1001.0 * e2 - 1.0)
        + 9000.0 / np.sqrt(2000.0 * e2 - 1.0)
    )
    return float(np.sqrt(norm_sq))


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


class Entry(NamedTuple):
    box: tuple          # (lower, upper), known without building: configs sample in it
    factory: Callable   # grid_n -> Problem; only the PDE problem uses the grid size
    norms: dict         # kernel family -> (shape -> the objective's exact native-space norm)


PROBLEMS = {
    "one_d": Entry(((-2.0,), (2.0,)), lambda grid_n: problem_1d(),
                   {GAUSSIAN: analytic_norm_1d_gaussian}),
    "rosenbrock": Entry(((-np.inf, -np.inf), (np.inf, np.inf)),
                        lambda grid_n: problem_rosenbrock(), {}),
    "pde2d": Entry(((0.5, 0.5), (np.pi, np.pi)), problem_pde2d, {}),
}


def make_problem(name: str, grid_n: int) -> Problem:
    try:
        factory = PROBLEMS[name].factory
    except KeyError:
        raise ValueError(f"unknown problem {name!r}") from None
    return factory(grid_n)
