"""Inner solver: quasi-Newton descent on the surrogate inside the trust region.

The trust region is not a ball; a candidate is feasible while the relative
error-bound ratio stays below the current radius,

    c(x) = delta - norm_bound * power(x) / s(x) >= 0.

Steps come from BFGS directions with Armijo backtracking; the first
accepted inner point (the approximate generalized Cauchy point) is the
yardstick the outer loop measures sufficient decrease against.

Each line search forms its backtracking ladder, the trial points
P(x + kappa_bt^j * d) for j = 0..j_max, once, as one array whose row j
names trial j.  The surrogate scores the rows the search reaches CHUNK at
a time, each chunk with one distance pass and one triangular solve
(Surrogate.block); the values and power-function values have the bits of
point queries, which are one-row blocks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionViolationError, ConfigError, LineSearchError, require_finite
from .surrogate import Surrogate

# Surrogate values at or below this floor make the constraint ratio
# meaningless (it diverges as the value approaches zero from above).
POSITIVITY_FLOOR = 1e-12
# Descent-angle floor; directions with smaller cos(angle) are reset.
COS_FLOOR = 1e-8
# Ladder trials the surrogate scores per block in the inner line search.
CHUNK = 8


@dataclass(frozen=True)
class SubproblemConfig:
    kappa_bt: float = 0.5      # backtracking contraction, in (0, 1)
    kappa_arm: float = 1e-4    # Armijo constant, in (0, 0.5)
    tau_sub: float = 1e-8      # inner stationarity tolerance
    beta2: float = 0.95        # near-boundary window lower fraction, in (0, 1)
    l_max: int = 50            # max inner iterations
    j_max: int = 30            # max backtracking steps

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
    candidate: np.ndarray
    agc: np.ndarray                    # first accepted inner iterate
    iterates: list = field(default_factory=list)
    termination: Termination = Termination.MAX_INNER_ITERS


def project_box(x, box):
    """Componentwise clamp onto box = (lower, upper); infinite bounds never clamp."""
    lower, upper = box
    return np.minimum(np.maximum(np.asarray(x, dtype=float), lower), upper)


def projected_gradient_norm(x, grad, box) -> float:
    """Stationarity measure: ||x - P(x - grad)||_inf (plain inf-norm if unbounded)."""
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


class _LadderScores:
    """The surrogate's value and trust-region test along one ladder, CHUNK rows a block.

    The search asks for rows in ladder order; a row past the current
    block gets the next CHUNK rows from there scored as one PointBlock,
    which becomes the current block.  A trial at or below the positivity
    floor counts as infeasible (the constraint ratio diverges there), so
    backtracking continues past it; the slack is constraint_value's, on
    the one value read.
    """

    def __init__(self, s: Surrogate, delta: float, ladder):
        self.s, self.delta, self.ladder = s, delta, ladder
        self.block, self.start = None, 0       # the current block and its first row

    def row(self, j):
        """(block, row in it) of ladder row j, j at or past the current block's first."""
        if self.block is None or j >= self.start + len(self.block):
            self.block, self.start = self.s.block(self.ladder[j : j + CHUNK]), j
        return self.block, j - self.start

    def value(self, j) -> float:
        block, i = self.row(j)
        return block.values[i]

    def feasible(self, j) -> bool:
        block, i = self.row(j)
        val = block.values[i]
        return (val > POSITIVITY_FLOOR
                and self.delta - self.s.norm_bound * block.power(i) / val >= 0.0)


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

    hinv = np.eye(dim)
    iterates: list = []
    agc = None
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
        scores = _LadderScores(s, delta, ladder)
        try:
            x_new, _, j = armijo_backtrack(
                scores.value, x, s.value(x),
                angle_decrease_rule(cfg.kappa_arm, grad_norm, cos_phi),
                ladder, feasible=scores.feasible,
            )
        except LineSearchError:
            if agc is None:
                raise
            termination = Termination.LINE_SEARCH_FAILED
            break

        # the accepted trial's gradient and trust-region reads come next
        s.remember(*scores.row(j))
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
