"""Inner solver: quasi-Newton descent on the surrogate inside the trust region.

The trust region is not a ball; a candidate is feasible while the relative
error-bound ratio stays below the current radius,

    c(x) = delta - norm_bound * power(x) / s(x) >= 0.

Steps come from BFGS directions with Armijo backtracking; the first
accepted inner point (the approximate generalized Cauchy point) is the
yardstick the outer loop measures sufficient decrease against.

Each line search forms its backtracking ladder, the trial points
P(x + kappa_bt^j * d) for j = 0..j_max, once, as one array whose row j
names trial j, and the surrogate scores the whole ladder as one block
(Surrogate.block): one distance pass, then a value and a power only at
the rows the search reaches.  These have the bits of point queries,
which are one-row blocks.  The solver's current point is a (block, row)
pair: the start's one-row block, then the accepted trial's row of its
ladder block, so the gradient and the trust-region ratio there need no
second distance pass.  The solve hands the outer loop the scores its
acceptance test reads, each from the row that holds it: the value at the
start, at the first accepted inner point and at the candidate, and the
power at the candidate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssumptionViolationError, ConfigError, LineSearchError, require_finite
from .surrogate import PointBlock, Surrogate

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
    j_max: int = 30            # max backtracking steps; each search's distance
                               # pass covers all j_max + 1 trials

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.kappa_bt < 1.0:
            raise ConfigError(f"kappa_bt must be in (0,1), got {self.kappa_bt}")
        if not 0.0 < self.kappa_arm < 0.5:
            raise ConfigError(f"kappa_arm must be in (0,0.5), got {self.kappa_arm}")
        if not self.tau_sub > 0:
            raise ConfigError(f"tau_sub must be positive, got {self.tau_sub}")
        if not 0.0 < self.beta2 < 1.0:
            raise ConfigError(f"beta2 must be in (0,1), got {self.beta2}")
        if self.l_max < 1 or self.j_max < 1:
            raise ConfigError("l_max and j_max must be positive")

    @cached_property
    def step_factors(self) -> np.ndarray:
        """kappa_bt**j for j = 0..j_max, each a Python float power (read-only)."""
        factors = np.array([self.kappa_bt**j for j in range(self.j_max + 1)])
        factors.flags.writeable = False
        return factors


class Termination(enum.Enum):
    STATIONARY_INNER = "stationary_inner"
    NEAR_BOUNDARY = "near_boundary"
    MAX_INNER_ITERS = "max_inner_iters"
    LINE_SEARCH_FAILED = "line_search_failed"


@dataclass
class SubproblemResult:
    """A solve's candidate and the surrogate's scores the outer loop decides on.

    The first accepted inner point (the AGC point) is iterates[0], or the
    start when no step was accepted; agc_value is the surrogate there.
    """

    candidate: np.ndarray
    iterates: list
    termination: Termination
    start_value: float        # surrogate value at the start
    agc_value: float          # surrogate value at the AGC point
    candidate_value: float    # surrogate value at the candidate
    candidate_power: float    # power at the candidate


def project_box(x, box):
    """Componentwise clamp onto box = (lower, upper); infinite bounds never clamp."""
    lower, upper = box
    return np.minimum(np.maximum(np.asarray(x, dtype=float), lower), upper)


def projected_gradient_norm(x, grad, box) -> float:
    """Stationarity measure: ||x - P(x - grad)||_inf (plain inf-norm if unbounded)."""
    return float(np.max(np.abs(x - project_box(x - grad, box))))


def trust_region_ratio(norm_bound: float, block: PointBlock, i) -> float:
    """norm_bound * power / value at row i of block, the ratio the radius bounds.

    The ratio diverges as the value approaches zero from above, so each
    caller first holds the value to POSITIVITY_FLOOR by its own policy.
    """
    return norm_bound * block.power(i) / block.value(i)


def in_trust_region(norm_bound: float, delta: float, block: PointBlock, i) -> bool:
    """Whether row i of block is feasible for radius delta.

    A trial at or below the positivity floor is not, since the constraint
    ratio diverges there, so backtracking continues past it.
    """
    return (block.value(i) > POSITIVITY_FLOOR
            and delta - trust_region_ratio(norm_bound, block, i) >= 0.0)


def backtracking_ladder(x, direction, cfg: SubproblemConfig, box) -> np.ndarray:
    """Trial points P(x + kappa_bt^j * direction), j = 0..j_max, one per row.

    Each entry is the arithmetic of one trial: kappa_bt**j as a Python
    float, times the direction, added to x, then clamped onto the box.
    """
    return project_box(x + cfg.step_factors[:, None] * direction, box)


def armijo_backtrack(fun, x, fx, required_decrease, ladder, feasible=None, resolution=None):
    """Smallest j with sufficient decrease at row j of ladder, the trials from x.

    ladder is backtracking_ladder's array; fun maps a row index to the
    objective value at that trial, required_decrease maps the realized
    step vector (x - trial) to the minimum acceptable drop in fun, and
    feasible (optional) is an extra acceptance predicate on a row index.
    Returns (accepted point, its value, j).  Shared by the surrogate
    subproblem and the direct baseline so both pay for trials through the
    same code path: fun is called once per row the search evaluates, in
    ladder order, with feasible (if any) on the same row right after; a
    row whose trial does not move from x is skipped.

    resolution (optional) is the smallest drop fun can resolve at x: the
    search raises LineSearchError at the first trial that requires no
    more than that, without evaluating it, since only rounding could pass
    its test ("step too small", Nocedal & Wright, sec. 3.5).
    """
    steps = np.asarray(x, dtype=float) - ladder
    moves = np.any(steps, axis=1).tolist()
    for j, step in enumerate(steps):
        if not moves[j]:
            continue
        required = required_decrease(step)
        if resolution is not None and required <= resolution:
            raise LineSearchError(
                f"line search stopped at the objective's rounding level after {j} trials"
            )
        f_trial = fun(j)
        if fx - f_trial >= required:
            if feasible is None or feasible(j):
                return ladder[j].copy(), f_trial, j
    raise LineSearchError(
        f"no acceptable point within {len(ladder) - 1} backtracking steps"
    )


def _norm(v) -> float:
    """np.linalg.norm(v) of a contiguous float vector, without its dispatch."""
    return math.sqrt(v.dot(v))


def angle_decrease_rule(kappa_arm, grad_norm, cos_phi):
    """Decrease proportional to step length, gradient norm, and descent angle."""
    def rule(step_vec):
        return kappa_arm * grad_norm * _norm(step_vec) * cos_phi
    return rule


def projected_decrease_rule(kappa_arm, grad):
    """Decrease proportional to <grad, x - trial>; robust at active bounds."""
    grad = np.asarray(grad, dtype=float)
    def rule(step_vec):
        return kappa_arm * float(grad @ step_vec)
    return rule


def relative_decrease(j_old, j_new) -> float:
    """Drop from j_old to j_new relative to the larger value, or to 1 below it."""
    return (j_old - j_new) / max(j_old, j_new, 1.0)


def bfgs_inverse_update(hinv, step, y):
    """BFGS update of the inverse Hessian from the pair (step, y = grad change).

    Skipped (hinv returned unchanged) unless the curvature step @ y is
    safely positive, which keeps the update positive definite.
    """
    sy = float(step @ y)
    if sy > 1e-10 * _norm(step) * _norm(y):
        rho = 1.0 / sy
        eye = np.eye(step.shape[0])
        return (eye - rho * np.outer(step, y)) @ hinv @ (eye - rho * np.outer(y, step)) \
            + rho * np.outer(step, step)
    return hinv


def solve(s: Surrogate, x0, delta: float, cfg: SubproblemConfig, box) -> SubproblemResult:
    """Minimize the surrogate from x0 subject to the trust-region constraint.

    BFGS with identity initialization; the inverse-Hessian update is
    skipped on steps without positive curvature, and non-descent
    directions reset the recursion to steepest descent (a reset direction
    is always descent, so resets cannot repeat back to back).  Stops on
    inner stationarity, on entering the near-boundary window
    beta2*delta <= ratio <= delta, or after l_max accepted steps.  A start
    at or below the positivity floor, or outside the trust region, raises
    AssumptionViolationError.
    """
    x = np.asarray(x0, dtype=float).copy()
    block, i = s.block(x[None, :]), 0           # the current point's row
    start_value = block.value(i)
    if start_value <= POSITIVITY_FLOOR:
        raise AssumptionViolationError(
            f"surrogate value {start_value:.3e} at {x} is below the positivity "
            "floor; the objective may need a larger additive offset"
        )
    start_slack = delta - trust_region_ratio(s.norm_bound, block, i)
    if start_slack <= 0.0:
        raise AssumptionViolationError(
            f"subproblem started infeasible: constraint {start_slack:.3e} at {x}"
        )
    dim = x.shape[0]
    grad = block.gradient(i)
    if projected_gradient_norm(x, grad, box) <= cfg.tau_sub:
        return SubproblemResult(x, [], Termination.STATIONARY_INNER, start_value,
                                start_value, start_value, block.power(i))

    hinv = np.eye(dim)
    iterates: list = []
    agc_value = None
    termination = Termination.MAX_INNER_ITERS
    for _ in range(cfg.l_max):
        direction = -hinv @ grad
        grad_norm = _norm(grad)
        dir_norm = _norm(direction)
        cos_phi = (-float(grad @ direction) / (grad_norm * dir_norm)
                   if grad_norm * dir_norm > 0.0 else 0.0)
        if not cos_phi >= COS_FLOOR:
            direction = -grad
            hinv = np.eye(dim)
            cos_phi = 1.0
            # a reset direction is steepest descent, so it cannot need a
            # second reset while the gradient is nonzero
            assert float(grad @ direction) < 0.0

        ladder = backtracking_ladder(x, direction, cfg, box)
        trials = s.block(ladder)
        try:
            x_new, _, j = armijo_backtrack(
                trials.value, x, block.value(i),
                angle_decrease_rule(cfg.kappa_arm, grad_norm, cos_phi),
                ladder, feasible=lambda j: in_trust_region(s.norm_bound, delta, trials, j),
            )
        except LineSearchError:
            if agc_value is None:
                raise
            termination = Termination.LINE_SEARCH_FAILED
            break

        block, i = trials, j
        iterates.append(x_new.copy())
        if agc_value is None:
            agc_value = block.value(i)
        grad_new = block.gradient(i)

        hinv = bfgs_inverse_update(hinv, x_new - x, grad_new - grad)
        x, grad = x_new, grad_new

        if projected_gradient_norm(x, grad, box) <= cfg.tau_sub:
            termination = Termination.STATIONARY_INNER
            break
        # an accepted trial is above the floor
        if cfg.beta2 * delta <= trust_region_ratio(s.norm_bound, block, i) <= delta:
            termination = Termination.NEAR_BOUNDARY
            break

    # the candidate is an accepted trial, whose feasibility test read its power
    return SubproblemResult(x, iterates, termination, start_value, agc_value,
                            block.value(i), block.power(i))
