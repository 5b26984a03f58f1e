"""Projected BFGS on the true objective, the reference optimizer.

Runs directly against the (expensive) objective so its evaluation counts
are comparable head-to-head with the surrogate-driven method: every
backtracking trial costs one evaluation, through the same line-search
code path the subproblem uses.  Also provides tight-tolerance reference
solutions for accuracy reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import Branch, IterationRecord, RunReport
from .errors import ConfigError, LineSearchError, StalledError
from .problems import Problem
from .subproblem import (
    SubproblemConfig,
    armijo_backtrack,
    bfgs_inverse_update,
    project_box,
    projected_decrease_rule,
    projected_gradient_norm,
)


@dataclass(frozen=True)
class BaselineConfig:
    tau_foc: float = 1e-6
    tau_j: float = 1e-14
    i_max: int = 200
    kappa_bt: float = 0.5
    kappa_arm: float = 1e-4
    j_max: int = 30

    def __post_init__(self):
        if not (self.tau_foc > 0 and self.tau_j > 0):
            raise ConfigError("tolerances must be positive")
        if self.i_max < 1:
            raise ConfigError("i_max must be positive")
        self.line_search()   # rejects a bad kappa_bt, kappa_arm or j_max up front

    def line_search(self) -> SubproblemConfig:
        """Backtracking settings for the shared Armijo line search."""
        return SubproblemConfig(kappa_bt=self.kappa_bt, kappa_arm=self.kappa_arm,
                                j_max=self.j_max)


def minimize(problem: Problem, x0, cfg: BaselineConfig) -> RunReport:
    """Projected BFGS with Armijo backtracking on the objective itself."""
    box = (problem.lower, problem.upper)
    ls_cfg = cfg.line_search()
    evals_before = problem.counter

    x = project_box(np.asarray(x0, dtype=float), box)
    fx, grad = problem.eval(x)
    dim = x.shape[0]
    hinv = np.eye(dim)

    def fun(point):
        # rejected trials never need their gradient; the accepted one, the
        # last trial evaluated, fetches it below
        return problem.eval(point, gradient=False)[0]

    termination = "max_iters"
    iters = 0
    log = []
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
        try:
            try:
                x_new, f_new, _ = armijo_backtrack(fun, x, fx, rule, direction,
                                                   ls_cfg, box=box)
            except LineSearchError:
                if np.array_equal(direction, -g_eff):
                    raise
                # retry once from a fresh steepest-descent direction
                hinv = np.eye(dim)
                x_new, f_new, _ = armijo_backtrack(fun, x, fx, rule, -g_eff,
                                                   ls_cfg, box=box)
        except LineSearchError:
            raise StalledError(
                "line search failed along steepest descent",
                report=_report(problem, x, fx, grad, box, iters,
                               evals_before, "stalled", log),
            ) from None
        grad_new = problem.gradient(x_new)

        clipped = bool(np.any((x_new <= problem.lower) | (x_new >= problem.upper)))
        if clipped and not np.any((x <= problem.lower) | (x >= problem.upper)):
            # step just landed on a face: curvature pairs straddle the kink
            hinv = np.eye(dim)
        else:
            hinv = bfgs_inverse_update(hinv, x_new - x, grad_new - grad)

        j_diff = (fx - f_new) / max(fx, f_new, 1.0)
        x, fx, grad = x_new, f_new, grad_new
        iters += 1
        log.append(IterationRecord(
            outer_iter=iters, branch=Branch.ACCEPTED_BY_DIRECT,
            candidate=np.asarray(x).tolist(), j_value=float(fx),
        ))
        if j_diff <= cfg.tau_j:
            termination = "stagnation"
            break

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


def reference_solution(problem: Problem, starts):
    """Best minimizer over REFERENCE baseline runs from each start.

    At these tolerances the line search routinely runs into floating-point
    resolution before the gradient test fires; such runs still carry their
    best iterate, so a stalled run contributes its partial result and only
    a start that produced no iterate at all counts as fully failed.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.shape[0] < 1:
        raise ValueError("need at least one start")
    best = None
    for x0 in starts:
        try:
            report = minimize(problem, x0, REFERENCE)
        except StalledError as exc:
            report = exc.report
        if report is None or not np.isfinite(report.final_j):
            continue
        if best is None or report.final_j < best.final_j:
            best = report
    if best is None:
        raise StalledError("all reference runs stalled without a usable iterate")
    return best.final_iterate, best.final_j
