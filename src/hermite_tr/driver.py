"""Outer trust-region loop: bound-certified or direct acceptance.

Each outer iteration solves the surrogate subproblem, then decides the
candidate's fate using the error bound eta = norm_bound * power:

  1. surrogate value + eta at the candidate already beats the surrogate
     value at the first inner (Cauchy-like) point: accept, certified by
     the bound, unless the objective evaluated there refutes the
     certificate (an audit failure), which rejects the step;
  2. otherwise compare the objective at the candidate with that value
     directly: accept if it is no larger, else reject.

The objective is evaluated at every candidate (or its stored datum
reused when it is a known center), because an acceptance needs the data
for the refit and the decrease ratio and a rejection keeps the new point
in the model.  So the bound never decides whether the objective is
evaluated, and it does not decide alone that a step is accepted: a
certified step is accepted only if J at the candidate is within the
surrogate's exactness tolerance of the value at the first inner point,
and the certificate then labels the acceptance.  There is no certified
rejection: it would need surrogate value - eta at the candidate above
the value at the first inner point, but the inner solver takes only
Armijo descent steps from that point, so the candidate's surrogate
value never exceeds it (test_subproblem's test_candidate_never_above_agc
guards this).

A run's first model interpolates the start's datum and, when the norm
bound was estimated, every sample the estimate evaluated, as ORBIT
builds its models from every evaluated point (Wild, Regis & Shoemaker,
SIAM J. Sci. Comput. 30(6), 2008): those samples are already paid for,
and the start reuses a sample's datum when it coincides with one.

The radius update follows the classic three-interval rule on the
realized/predicted decrease ratio; rejections shrink by a separate factor.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConfigError,
    LineSearchError,
    NumericalError,
    StalledError,
    require_finite,
)
from .kernels import GAUSSIAN, KernelSpec
from .problems import Problem
from .subproblem import (
    SubproblemConfig,
    SubproblemResult,
    project_box,
    projected_gradient_norm,
    relative_decrease,
    solve,
)
from .surrogate import (
    Surrogate,
    TrainingSet,
    analytic_norm_1d_gaussian,
    coincide,
    estimate_norm,
    fit,
)


class Branch(enum.Enum):
    ACCEPTED_BY_SUFFICIENT = "accepted_by_sufficient"
    ACCEPTED_BY_DIRECT = "accepted_by_direct"
    REJECTED_BY_DIRECT = "rejected_by_direct"
    SUBPROBLEM_FAILED = "subproblem_failed"


@dataclass(frozen=True)
class NormSource:
    """Where the norm bound in the error estimate comes from."""

    kind: str = "estimated"        # "analytic" | "estimated" | "fixed"
    n_samples: int = 50
    seed: int = 0
    safety: float = 1.0
    value: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("analytic", "estimated", "fixed"):
            raise ConfigError(f"unknown norm source {self.kind!r}")
        if self.kind == "fixed" and not self.value > 0:
            raise ConfigError("fixed norm source needs a positive value")
        if self.kind == "estimated" and self.n_samples < 1:
            raise ConfigError("estimated norm source needs n_samples >= 1")
        if not self.safety >= 1.0:
            raise ConfigError(f"norm safety factor must be >= 1, got {self.safety}")
        if self.seed < 0:
            raise ConfigError(f"norm seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TRConfig:
    delta0: float = 0.5
    i_max: int = 50
    tau_foc: float = 1e-6
    tau_j: float = 1e-14
    xi1: float = 0.1
    xi2: float = 0.9
    beta_radius: float = 0.5    # ratio-based expand/shrink factor
    beta1_shrink: float = 0.5   # rejection shrink factor
    max_rejects: int = 15
    sub: SubproblemConfig = field(default_factory=SubproblemConfig)

    def __post_init__(self):
        require_finite(self)
        if not self.delta0 > 0:
            raise ConfigError(f"delta0 must be positive, got {self.delta0}")
        if not 0.0 < self.xi1 < self.xi2 < 1.0:
            raise ConfigError(f"need 0 < xi1 < xi2 < 1, got {self.xi1}, {self.xi2}")
        for name in ("beta_radius", "beta1_shrink"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must be in (0,1), got {v}")
        if not (self.tau_foc > 0 and self.tau_j > 0):
            raise ConfigError("tolerances must be positive")
        if self.i_max < 1 or self.max_rejects < 1:
            raise ConfigError("i_max and max_rejects must be positive")


@dataclass
class IterationRecord:
    outer_iter: int
    branch: Branch
    candidate: Optional[list] = None
    rho: Optional[float] = None
    delta_before: float = 0.0
    delta_after: float = 0.0
    foc_measure: Optional[float] = None
    j_value: Optional[float] = None
    sufficient_check_ok: Optional[bool] = None   # a-posteriori audit of branch 1
    note: str = ""

    def to_dict(self):
        d = dict(self.__dict__)
        d["branch"] = self.branch.value
        return d


@dataclass
class TRState:
    iterate: np.ndarray
    current_j: float
    delta: float
    surrogate: Surrogate
    outer_iter: int = 0
    log: list = field(default_factory=list)


@dataclass
class RunReport:
    final_iterate: np.ndarray
    final_j: float
    final_foc: float              # projected inf-norm of the true gradient
    fom_evals: int
    outer_iters: int
    termination: str              # "foc" | "stagnation" | "max_iters" | "stalled"
    norm_bound: float
    log: list = field(default_factory=list)
    audit_failures: int = 0
    method: str = "kernel_tr"

    def to_dict(self):
        return {
            "method": self.method,
            "final_iterate": np.asarray(self.final_iterate).tolist(),
            "final_j": self.final_j,
            "final_foc": self.final_foc,
            "fom_evals": self.fom_evals,
            "outer_iters": self.outer_iters,
            "termination": self.termination,
            "norm_bound": self.norm_bound,
            "audit_failures": self.audit_failures,
            "log": [r.to_dict() for r in self.log],
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def rho(j_old: float, j_new: float, m_old: float, m_new: float) -> float:
    """Realized over predicted decrease; caller screens the degenerate case."""
    denom = m_old - m_new
    if denom == 0.0:
        raise ZeroDivisionError("zero model decrease")
    return (j_old - j_new) / denom


def model_decrease_degenerate(m_old: float, m_new: float) -> bool:
    return abs(m_old - m_new) <= 1e-14 * (1.0 + abs(m_old))


def update_radius(rho_value: float, delta: float, cfg: TRConfig) -> float:
    """Three-interval radius law: expand, keep, or shrink by beta."""
    if rho_value >= cfg.xi2:
        return delta / cfg.beta_radius
    if rho_value >= cfg.xi1:
        return delta
    return cfg.beta_radius * delta


def _eval_with_reuse(problem: Problem, history: TrainingSet, x):
    """Objective data at x, reusing the stored datum for near-duplicate centers."""
    idx = history.find_close(x)
    if idx is not None:
        return history.values[idx], history.gradients[idx], history, False
    val, grad = problem.eval(x)
    return val, grad, history.with_point(x, val, grad), True


def _initial_data(problem: Problem, x, samples: TrainingSet | None) -> TrainingSet:
    """The start's datum first, then the samples; a coinciding sample lends its datum."""
    idx = None if samples is None else samples.find_close(x)
    if idx is None:
        j0, g0 = problem.eval(x)
    else:
        j0, g0 = samples.values[idx], samples.gradients[idx]
    if samples is None:
        return TrainingSet(x[None, :], np.array([j0]), g0[None, :])
    rest = [i for i in range(samples.n) if i != idx]
    return TrainingSet(np.vstack([x, samples.points[rest]]),
                       np.append(j0, samples.values[rest]),
                       np.vstack([g0, samples.gradients[rest]]))


def resolve_norm_bound(norm_source: NormSource, kernel: KernelSpec, problem: Problem, box):
    """Materialize the norm bound; returns (value, objective evals spent, samples).

    samples is the TrainingSet an estimated bound was fitted to, in draw
    order, and None for a fixed or analytic bound.
    """
    if norm_source.kind == "fixed":
        return float(norm_source.value), 0, None
    if norm_source.kind == "analytic":
        if kernel.family != GAUSSIAN or problem.dim != 1:
            raise ConfigError("analytic norm source is only valid for the 1D Gaussian setup")
        try:
            return analytic_norm_1d_gaussian(kernel.shape), 0, None
        except ValueError as exc:
            raise ConfigError(f"analytic norm source: {exc}") from None
    before = problem.counter
    value, samples = estimate_norm(
        kernel, problem, norm_source.n_samples, norm_source.seed,
        norm_source.safety, box=box,
    )
    return value, problem.counter - before, samples


def acceptance_step(state: TRState, result: SubproblemResult, problem: Problem,
                    cfg: TRConfig) -> IterationRecord:
    """Decide the candidate's fate and update the state in place.

    The objective is evaluated at the candidate (unless it duplicates a
    history point) and the refit model, its Gram grown from the current
    one's, is kept whatever the outcome.  An
    accepted step moves the iterate and the radius follows the ratio law;
    a rejection shrinks the radius by the rejection factor.  Returns the
    log record; record.branch tells which case decided.
    """
    s = state.surrogate
    cand = np.asarray(result.candidate, dtype=float)
    # the candidate from the memo the inner solve leaves, the others from one block
    jhat_cand = s.value(cand)
    eta_cand = s.norm_bound * s.power(cand)
    jhat_x, jhat_agc = s.block(np.array([state.iterate, result.agc])).values

    j_cand, _, new_history, added = _eval_with_reuse(problem, s.training, cand)
    if added:
        state.surrogate = fit(s.kernel, new_history, s.norm_bound, previous=s)

    record = IterationRecord(
        outer_iter=state.outer_iter,
        branch=Branch.REJECTED_BY_DIRECT,
        candidate=cand.tolist(),
        delta_before=state.delta,
        j_value=float(j_cand),
    )
    if jhat_cand + eta_cand <= jhat_agc:
        record.branch = Branch.ACCEPTED_BY_SUFFICIENT
        # audit: the direct condition must hold a posteriori.  The
        # surrogate's values carry interpolation noise up to the exactness
        # contract 1e-8*(1+|value|), so the exact-arithmetic inequality can
        # only be asserted at that resolution.
        slack = 1e-8 * (1.0 + abs(jhat_agc))
        record.sufficient_check_ok = bool(j_cand <= jhat_agc + slack)
        if not record.sufficient_check_ok:
            record.branch = Branch.REJECTED_BY_DIRECT
    elif j_cand <= jhat_agc:
        record.branch = Branch.ACCEPTED_BY_DIRECT

    if record.branch is Branch.REJECTED_BY_DIRECT:
        state.delta = cfg.beta1_shrink * state.delta
    else:
        if model_decrease_degenerate(jhat_x, jhat_cand):
            state.delta = cfg.beta_radius * state.delta
            record.note = "degenerate model decrease"
        else:
            record.rho = rho(state.current_j, j_cand, jhat_x, jhat_cand)
            state.delta = update_radius(record.rho, state.delta, cfg)
        state.iterate = cand
        state.current_j = float(j_cand)
        state.outer_iter += 1

    record.delta_after = state.delta
    state.log.append(record)
    return record


def run(problem: Problem, kernel: KernelSpec, x0, cfg: TRConfig,
        norm_bound: float, samples: TrainingSet | None = None) -> RunReport:
    """Full optimization run; see the module docstring for the loop shape.

    norm_bound is the resolved RKHS norm bound and samples the data it was
    estimated from, if any (see resolve_norm_bound).  The first model
    holds the start's datum, then the samples in their order; a start
    within DISTINCT_TOL of a sample takes that sample's datum without an
    evaluation.
    Termination: projected surrogate-gradient measure at the current
    iterate below tau_foc, relative objective decrease at an accepted step
    below tau_j (stagnation), a rejected candidate repeating itself with
    no new information (a fixed point of the loop, reported as
    stagnation), or i_max accepted iterations.
    """
    box = (problem.lower, problem.upper)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ConfigError(f"x0 must have shape ({problem.dim},), got {x0.shape}")
    x = project_box(x0, box)
    evals_before = problem.counter

    surrogate = fit(kernel, _initial_data(problem, x, samples), norm_bound)
    j0 = float(surrogate.training.values[0])
    state = TRState(iterate=x, current_j=j0, delta=cfg.delta0, surrogate=surrogate)

    termination = "max_iters"
    rejects = 0
    last_rejected = None
    solver_failed_before = False

    def partial_report():
        return _build_report(state, problem, termination="stalled",
                             evals_before=evals_before)

    while state.outer_iter < cfg.i_max:
        foc = projected_gradient_norm(
            state.iterate, state.surrogate.gradient(state.iterate), box
        )
        if foc <= cfg.tau_foc:
            termination = "foc"
            break

        try:
            result = solve(state.surrogate, state.iterate, state.delta, cfg.sub, box=box)
        except (LineSearchError, AssumptionViolationError) as exc:
            cause = exc
            delta_before = state.delta
            state.delta = cfg.beta1_shrink * state.delta
            state.log.append(IterationRecord(
                outer_iter=state.outer_iter, branch=Branch.SUBPROBLEM_FAILED,
                delta_before=delta_before, delta_after=state.delta,
                note=f"{type(exc).__name__}: {exc}",
            ))
            if solver_failed_before:
                # A failure here adds no data, and the feasible set only
                # shrinks with the radius, so a repeat is conclusive: no
                # radius can unblock the inner solver.  Stop at the current
                # iterate rather than grinding out the rejection budget.
                state.log[-1].note += " (repeat; no radius can help)"
                termination = "stagnation"
                break
            solver_failed_before = True
        else:
            cause = None
            solver_failed_before = False
            j_before = state.current_j
            history_size_before = state.surrogate.training.n
            try:
                record = acceptance_step(state, result, problem, cfg)
            except NumericalError as exc:
                if getattr(exc, "report", None) is None:
                    exc.report = partial_report()
                raise

            if record.branch is not Branch.REJECTED_BY_DIRECT:
                rejects = 0
                last_rejected = None
                record.foc_measure = projected_gradient_norm(
                    state.iterate, state.surrogate.gradient(state.iterate), box
                )
                if relative_decrease(j_before, state.current_j) <= cfg.tau_j:
                    termination = "stagnation"
                    break
                continue

            cand = np.asarray(result.candidate, dtype=float)
            added = state.surrogate.training.n > history_size_before
            if (last_rejected is not None and not added
                    and coincide(np.linalg.norm(cand - last_rejected), cand)):
                # Deterministic fixed point: same candidate, no new data, and a
                # smaller radius cannot change it.  No further progress is
                # possible, so report stagnation at the current iterate.
                record.note = (record.note + " fixed-point candidate").strip()
                termination = "stagnation"
                break
            last_rejected = cand

        # a failed subproblem and a direct rejection share one budget
        rejects += 1
        if rejects >= cfg.max_rejects:
            raise StalledError(
                f"{cfg.max_rejects} consecutive rejections", report=partial_report()
            ) from cause

    return _build_report(state, problem, termination=termination,
                         evals_before=evals_before)


def _build_report(state: TRState, problem: Problem, termination: str,
                  evals_before: int) -> RunReport:
    history = state.surrogate.training
    true_grad = history.gradients[history.find_close(state.iterate)]
    final_foc = projected_gradient_norm(state.iterate, true_grad,
                                        (problem.lower, problem.upper))
    audit_failures = sum(
        1 for r in state.log if r.sufficient_check_ok is False
    )
    return RunReport(
        final_iterate=np.asarray(state.iterate).copy(),
        final_j=state.current_j,
        final_foc=final_foc,
        fom_evals=problem.counter - evals_before,
        outer_iters=state.outer_iter,
        termination=termination,
        norm_bound=state.surrogate.norm_bound,
        log=list(state.log),
        audit_failures=audit_failures,
    )
