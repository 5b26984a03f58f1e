"""Pointwise oracles for the tests: one kernel pair, one uncounted objective call.

The package evaluates kernels only in vectorized form (Gram blocks and
kernel vectors from radial profiles) and counts every objective call.
These helpers state the same quantities one pair or one point at a time,
so tests can check the vectorized paths against them.  plain_pde2d is
the PDE solve as a sparse LU of the whole grid, without the condensation
onto the material interface.  per_trial_backtrack and per_trial_solve
are the line search and the inner solver with every trial formed and
scored on its own, through the surrogate's one-point queries.
"""

import numpy as np
from scipy.sparse.linalg import splu

from hermite_tr.errors import AssumptionViolationError, LineSearchError
from hermite_tr.kernels import KernelSpec, radial_profiles
from hermite_tr.pde2d import theta_derivs, theta_j
from hermite_tr.subproblem import (
    COS_FLOOR,
    POSITIVITY_FLOOR,
    SubproblemResult,
    Termination,
    angle_decrease_rule,
    bfgs_inverse_update,
    constraint_value,
    project_box,
    projected_gradient_norm,
)


def _check_pair(kernel, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (kernel.dim,) or y.shape != (kernel.dim,):
        raise ValueError(
            f"points must have shape ({kernel.dim},), got {x.shape} and {y.shape}"
        )
    return x, y


def value(kernel: KernelSpec, x, y) -> float:
    """k(x, y)."""
    x, y = _check_pair(kernel, x, y)
    phi, _, _ = radial_profiles(kernel, np.linalg.norm(x - y))
    return float(phi)


def grad1(kernel: KernelSpec, x, y) -> np.ndarray:
    """Gradient of k with respect to its first argument."""
    x, y = _check_pair(kernel, x, y)
    d = x - y
    _, g1, _ = radial_profiles(kernel, np.linalg.norm(d))
    return g1 * d


def cross_hessian(kernel: KernelSpec, x, y) -> np.ndarray:
    """Mixed second derivatives [d1_l d2_m k](x, y) as a dim x dim matrix."""
    x, y = _check_pair(kernel, x, y)
    d = x - y
    _, g1, g2 = radial_profiles(kernel, np.linalg.norm(d))
    return -g1 * np.eye(kernel.dim) - g2 * np.outer(d, d)


def peek(problem, x):
    """(J, grad J) at x from the problem's function, leaving its counter alone."""
    val, grad = problem.fn(np.asarray(x, dtype=float))
    return float(val), np.asarray(grad, dtype=float)


def plain_pde2d(disc, mu):
    """(u, J, grad J) at mu from a fresh splu of A(mu) and its sensitivity solves."""
    lu = splu(disc.system_matrix(mu))
    u = lu.solve(disc.load)
    fu = float(disc.load @ u)
    grad = np.zeros(2)
    for m, (dt1, dt2) in enumerate(theta_derivs(mu)):
        du = lu.solve(-(dt1 * disc.a1 + dt2 * disc.a2) @ u)
        grad[m] = 0.2 * fu + theta_j(mu) * float(disc.load @ du)
    return u, theta_j(mu) * fu, grad


def per_trial_backtrack(fun, x, fx, required_decrease, direction, cfg, box,
                        feasible=None, resolution=None):
    """armijo_backtrack with each trial P(x + kappa_bt^j * direction) formed on its own."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    for j in range(cfg.j_max + 1):
        trial = project_box(x + cfg.kappa_bt**j * direction, box)
        step_vec = x - trial
        if not np.any(step_vec):
            continue
        required = required_decrease(step_vec)
        if resolution is not None and required <= resolution:
            raise LineSearchError(
                f"line search stopped at the objective's rounding level after {j} trials"
            )
        f_trial = fun(trial)
        if fx - f_trial >= required:
            if feasible is None or feasible(trial):
                return trial, f_trial, j
    raise LineSearchError(f"no acceptable point within {cfg.j_max} backtracking steps")


def per_trial_solve(s, x0, delta, cfg, box):
    """subproblem.solve with every trial scored by s.value and s.power, one point at a time."""
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

    def feasible(trial):
        val = s.value(trial)
        return val > POSITIVITY_FLOOR and delta - s.norm_bound * s.power(trial) / val >= 0.0

    hinv = np.eye(dim)
    iterates = []
    agc = None
    termination = Termination.MAX_INNER_ITERS
    for _ in range(cfg.l_max):
        direction = -hinv @ grad
        grad_norm = float(np.sqrt(grad.dot(grad)))
        dir_norm = float(np.sqrt(direction.dot(direction)))
        cos_phi = (-float(grad @ direction) / (grad_norm * dir_norm)
                   if grad_norm * dir_norm > 0.0 else 0.0)
        if not cos_phi >= COS_FLOOR:
            direction = -grad
            hinv = np.eye(dim)
            cos_phi = 1.0
        try:
            x_new, _, _ = per_trial_backtrack(
                s.value, x, s.value(x), angle_decrease_rule(cfg.kappa_arm, grad_norm, cos_phi),
                direction, cfg, box, feasible=feasible,
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
