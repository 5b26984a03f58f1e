"""Inner solver: quasi-Newton descent on the surrogate inside the trust region.

The trust region is not a ball; a candidate is feasible while the relative
error-bound ratio stays below the current radius,

    c(x) = delta - norm_bound * power(x) / s(x) >= 0.

Steps come from BFGS directions with Armijo backtracking; the first
accepted inner point (the approximate generalized Cauchy point) is the
yardstick the outer loop measures sufficient decrease against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolationError, LineSearchError
from .surrogate import Surrogate

# Surrogate values at or below this floor make the constraint ratio
# meaningless (it diverges as the value approaches zero from above).
POSITIVITY_FLOOR = 1e-12
# Descent-angle floor; directions with smaller cos(angle) are reset.
COS_FLOOR = 1e-8


@dataclass(frozen=True)
class SubproblemConfig:
    kappa_bt: float = 0.5      # backtracking contraction, in (0, 1)
    kappa_arm: float = 1e-4    # Armijo constant, in (0, 0.5)
    tau_sub: float = 1e-8      # inner stationarity tolerance
    beta2: float = 0.95        # near-boundary window lower fraction, in (0, 1)
    l_max: int = 50            # max inner iterations
    j_max: int = 30            # max backtracking steps

    def __post_init__(self):
        if not 0.0 < self.kappa_bt < 1.0:
            raise ValueError(f"kappa_bt must be in (0,1), got {self.kappa_bt}")
        if not 0.0 < self.kappa_arm < 0.5:
            raise ValueError(f"kappa_arm must be in (0,0.5), got {self.kappa_arm}")
        if not self.tau_sub > 0:
            raise ValueError(f"tau_sub must be positive, got {self.tau_sub}")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in (0,1), got {self.beta2}")
        if self.l_max < 1 or self.j_max < 1:
            raise ValueError("l_max and j_max must be positive")


class Termination(enum.Enum):
    STATIONARY_INNER = "stationary_inner"
    NEAR_BOUNDARY = "near_boundary"
    MAX_INNER_ITERS = "max_inner_iters"
    LINE_SEARCH_FAILED = "line_search_failed"


@dataclass
class SubproblemResult:
    candidate: np.ndarray
    agc: np.ndarray                    # first accepted inner iterate
    iterates: list = field(default_factory=list)
    termination: Termination = Termination.MAX_INNER_ITERS


def project_box(x, box):
    """Componentwise clamp onto the box; identity when box is None."""
    if box is None:
        return np.asarray(x, dtype=float)
    lower, upper = box
    return np.minimum(np.maximum(np.asarray(x, dtype=float), lower), upper)


def projected_gradient_norm(x, grad, box) -> float:
    """Stationarity measure: ||x - P(x - grad)||_inf (plain inf-norm if unboxed)."""
    return float(np.max(np.abs(x - project_box(x - grad, box))))


def constraint_value(s: Surrogate, delta: float, x) -> float:
    """Trust-region slack delta - norm_bound * power(x) / s(x)."""
    val = s.value(x)
    if val <= POSITIVITY_FLOOR:
        raise AssumptionViolationError(
            f"surrogate value {val:.3e} at {np.asarray(x)} is below the positivity "
            "floor; the objective may need a larger additive offset"
        )
    return delta - s.norm_bound * s.power(x) / val


def armijo_backtrack(fun, x, fx, required_decrease, direction, cfg: SubproblemConfig,
                     box=None, feasible=None):
    """Smallest j with sufficient decrease at x(j) = P(x + kappa_bt^j * direction).

    fun maps a point to a scalar objective value; required_decrease maps
    the realized step vector (x - trial) to the minimum acceptable drop in
    fun; feasible (optional) is an extra acceptance predicate.  Returns
    (accepted point, its value, j).  Shared by the surrogate subproblem
    and the direct baseline so both pay for trials through the same code
    path.
    """
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    for j in range(cfg.j_max + 1):
        trial = project_box(x + cfg.kappa_bt**j * direction, box)
        step_vec = x - trial
        if not np.any(step_vec):
            continue
        f_trial = fun(trial)
        if fx - f_trial >= required_decrease(step_vec):
            if feasible is None or feasible(trial):
                return trial, f_trial, j
    raise LineSearchError(
        f"no acceptable point within {cfg.j_max} backtracking steps"
    )


def angle_decrease_rule(kappa_arm, grad_norm, cos_phi):
    """Decrease proportional to step length, gradient norm, and descent angle."""
    def rule(step_vec):
        return kappa_arm * grad_norm * float(np.linalg.norm(step_vec)) * cos_phi
    return rule


def projected_decrease_rule(kappa_arm, grad):
    """Decrease proportional to <grad, x - trial>; robust at active bounds."""
    grad = np.asarray(grad, dtype=float)
    def rule(step_vec):
        return kappa_arm * float(grad @ step_vec)
    return rule


def bfgs_inverse_update(hinv, step, y):
    """BFGS update of the inverse Hessian from the pair (step, y = grad change).

    Skipped (hinv returned unchanged) unless the curvature step @ y is
    safely positive, which keeps the update positive definite.
    """
    sy = float(step @ y)
    if sy > 1e-10 * np.linalg.norm(step) * np.linalg.norm(y):
        rho = 1.0 / sy
        eye = np.eye(step.shape[0])
        return (eye - rho * np.outer(step, y)) @ hinv @ (eye - rho * np.outer(y, step)) \
            + rho * np.outer(step, step)
    return hinv


def solve(s: Surrogate, x0, delta: float, cfg: SubproblemConfig, box=None) -> SubproblemResult:
    """Minimize the surrogate from x0 subject to the trust-region constraint.

    BFGS with identity initialization; the inverse-Hessian update is
    skipped on steps without positive curvature, and non-descent
    directions reset the recursion to steepest descent (a reset direction
    is always descent, so resets cannot repeat back to back).  Stops on
    inner stationarity, on entering the near-boundary window
    beta2*delta <= ratio <= delta, or after l_max accepted steps.
    """
    x = np.asarray(x0, dtype=float).copy()
    start_slack = constraint_value(s, delta, x)
    if start_slack <= 0.0:
        raise AssumptionViolationError(
            f"subproblem started infeasible: constraint {start_slack:.3e} at {x}"
        )
    dim = x.shape[0]
    grad = s.gradient(x)
    if projected_gradient_norm(x, grad, box) <= cfg.tau_sub:
        return SubproblemResult(candidate=x, agc=x.copy(), iterates=[],
                                termination=Termination.STATIONARY_INNER)

    # a trial below the positivity floor counts as infeasible (the
    # constraint ratio diverges there), so backtracking continues past it
    def feasible(trial):
        try:
            return constraint_value(s, delta, trial) >= 0.0
        except AssumptionViolationError:
            return False

    hinv = np.eye(dim)
    iterates: list = []
    agc = None
    termination = Termination.MAX_INNER_ITERS
    for _ in range(cfg.l_max):
        direction = -hinv @ grad
        grad_norm = float(np.linalg.norm(grad))
        dir_norm = float(np.linalg.norm(direction))
        cos_phi = (-float(grad @ direction) / (grad_norm * dir_norm)
                   if grad_norm * dir_norm > 0.0 else 0.0)
        if not cos_phi >= COS_FLOOR:
            direction = -grad
            hinv = np.eye(dim)
            cos_phi = 1.0
            # a reset direction is steepest descent, so it cannot need a
            # second reset while the gradient is nonzero
            assert float(grad @ direction) < 0.0

        try:
            x_new, _, _ = armijo_backtrack(
                s.value, x, s.value(x),
                angle_decrease_rule(cfg.kappa_arm, grad_norm, cos_phi),
                direction, cfg, box=box, feasible=feasible,
            )
        except LineSearchError:
            if agc is None:
                raise
            termination = Termination.LINE_SEARCH_FAILED
            break

        iterates.append(x_new.copy())
        if agc is None:
            agc = x_new.copy()
        grad_new = s.gradient(x_new)

        hinv = bfgs_inverse_update(hinv, x_new - x, grad_new - grad)
        x, grad = x_new, grad_new

        if projected_gradient_norm(x, grad, box) <= cfg.tau_sub:
            termination = Termination.STATIONARY_INNER
            break
        ratio = s.norm_bound * s.power(x) / s.value(x)
        if cfg.beta2 * delta <= ratio <= delta:
            termination = Termination.NEAR_BOUNDARY
            break

    return SubproblemResult(candidate=x, agc=agc, iterates=iterates, termination=termination)
