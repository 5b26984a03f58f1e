"""Projected BFGS on the true objective, the reference optimizer.

Runs directly against the (expensive) objective so its evaluation counts
are comparable head-to-head with the surrogate-driven method: every
backtracking trial costs one evaluation, through the inner solver's line
search and settings, and it stops by the trust region's tolerances; the
accepted trial keeps the gradient its own evaluation returned.  Also
provides tight-tolerance reference solutions for accuracy reporting.

A line search here ends, without evaluating the trial, once the decrease
a trial predicts, grad @ (x - trial), is at most one rounding unit of
J(x), eps * |J(x)| with eps the float64 machine epsilon: below that the
Armijo test could pass only by rounding.  The inner solver's searches on
the surrogate carry no such stop.  A trial whose evaluation raises a
NumericalError (J or its gradient not finite, or J not positive) counts
its evaluation and is rejected like one with J = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import Branch, IterationRecord, RunReport, TRConfig
from .errors import ConfigError, LineSearchError, NumericalError, StalledError, require_finite
from .problems import Problem
from .subproblem import (
    SubproblemConfig,
    armijo_backtrack,
    backtracking_ladder,
    bfgs_inverse_update,
    project_box,
    projected_decrease_rule,
    projected_gradient_norm,
    relative_decrease,
)

# float64 machine epsilon: one rounding unit of J(x) is EPS * |J(x)|
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BaselineConfig:
    """Stopping rule; config_from_dict sets both tolerances from trust_region."""

    tau_foc: float = TRConfig.tau_foc
    tau_j: float = TRConfig.tau_j
    i_max: int = 200

    def __post_init__(self):
        require_finite(self)
        if not (self.tau_foc > 0 and self.tau_j > 0):
            raise ConfigError("tolerances must be positive")
        if self.i_max < 1:
            raise ConfigError("i_max must be positive")


def minimize(problem: Problem, x0, cfg: BaselineConfig,
             ls_cfg: SubproblemConfig) -> RunReport:
    """Projected BFGS with Armijo backtracking by ls_cfg on the objective itself."""
    box = (problem.lower, problem.upper)
    evals_before = problem.counter

    x = project_box(np.asarray(x0, dtype=float), box)
    fx, grad = problem.eval(x)
    dim = x.shape[0]
    hinv = np.eye(dim)

    def search(direction):
        """(accepted trial, its J, its gradient) of a line search from the current x."""
        ladder = backtracking_ladder(x, direction, ls_cfg, box)
        grads = {}

        def fun(j):
            try:
                val, grads[j] = problem.eval(ladder[j])
            except NumericalError:
                return math.inf
            return val

        x_new, f_new, j = armijo_backtrack(fun, x, fx, rule, ladder, resolution=resolution)
        return x_new, f_new, grads[j]

    termination = "max_iters"
    iters = 0
    log = []
    try:
        for _ in range(cfg.i_max):
            if projected_gradient_norm(x, grad, box) <= cfg.tau_foc:
                termination = "foc"
                break

            # components pinned at a bound with the gradient pushing outward
            # carry no usable descent; mask them out of the direction
            dead = ((x <= problem.lower) & (grad > 0)) | ((x >= problem.upper) & (grad < 0))
            g_eff = np.where(dead, 0.0, grad)
            direction = -hinv @ g_eff
            direction[dead] = 0.0
            slope = float(g_eff @ direction)
            if not slope < 0.0:
                direction = -g_eff
                hinv = np.eye(dim)
            # projected-step decrease reference: stays satisfiable when bound
            # clipping kills the dominant gradient component
            rule = projected_decrease_rule(ls_cfg.kappa_arm, grad)
            # the rule requires kappa_arm * grad @ step, so the rounding level
            # of fx enters scaled by kappa_arm too
            resolution = ls_cfg.kappa_arm * EPS * abs(fx)
            try:
                try:
                    x_new, f_new, grad_new = search(direction)
                except LineSearchError:
                    if np.array_equal(direction, -g_eff):
                        raise
                    # retry once from a fresh steepest-descent direction
                    hinv = np.eye(dim)
                    x_new, f_new, grad_new = search(-g_eff)
            except LineSearchError:
                raise StalledError("line search failed along steepest descent") from None

            clipped = bool(np.any((x_new <= problem.lower) | (x_new >= problem.upper)))
            if clipped and not np.any((x <= problem.lower) | (x >= problem.upper)):
                # step just landed on a face: curvature pairs straddle the kink
                hinv = np.eye(dim)
            else:
                hinv = bfgs_inverse_update(hinv, x_new - x, grad_new - grad)

            j_diff = relative_decrease(fx, f_new)
            x, fx, grad = x_new, f_new, grad_new
            iters += 1
            log.append(IterationRecord(
                outer_iter=iters, branch=Branch.ACCEPTED_BY_DIRECT,
                candidate=np.asarray(x).tolist(), j_value=float(fx),
            ))
            if j_diff <= cfg.tau_j:
                termination = "stagnation"
                break
    except NumericalError as exc:
        exc.report = _report(problem, x, fx, grad, box, iters, evals_before, "stalled", log)
        raise

    return _report(problem, x, fx, grad, box, iters, evals_before, termination, log)


def _report(problem, x, fx, grad, box, iters, evals_before, termination, log):
    return RunReport(
        final_iterate=np.asarray(x).copy(),
        final_j=float(fx),
        final_foc=projected_gradient_norm(x, grad, box),
        fom_evals=problem.counter - evals_before,
        outer_iters=iters,
        termination=termination,
        norm_bound=0.0,
        log=list(log),
        method="baseline_bfgs",
    )


# tight tolerances and a long budget for the reference solution
REFERENCE = BaselineConfig(tau_foc=1e-10, tau_j=1e-16, i_max=500)


def reference_solution(problem: Problem, starts, ls_cfg: SubproblemConfig):
    """Best minimizer over REFERENCE baseline runs from each start, backtracking by ls_cfg.

    Returns (iterate, J, runs), with one {start, fom_evals, termination}
    per start.  termination is foc, stagnation or max_iters; stalled when
    the run raised a NumericalError, whose partial report still offers its
    iterate, as when the line searches reach the objective's rounding level
    before the gradient test fires; or failed when the start's own
    evaluation raised one.  Raises StalledError if every start failed.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.shape[0] < 1:
        raise ValueError("need at least one start")
    best = None
    runs = []
    for k, x0 in enumerate(starts):
        evals_before = problem.counter
        try:
            report = minimize(problem, x0, REFERENCE, ls_cfg)
        except NumericalError as exc:
            report = exc.report
        runs.append({"start": k, "fom_evals": problem.counter - evals_before,
                     "termination": "failed" if report is None else report.termination})
        if report is not None and (best is None or report.final_j < best.final_j):
            best = report
    if best is None:
        raise StalledError("all reference runs stalled without a usable iterate")
    return best.final_iterate, best.final_j, runs
