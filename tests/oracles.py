"""Pointwise oracles for the tests: one kernel pair, one uncounted objective call.

The package evaluates kernels only in vectorized form (Gram blocks and
kernel vectors from radial profiles) and counts every objective call.
These helpers state the same quantities one pair or one point at a time,
so tests can check the vectorized paths against them.  sparse_blocks
and sparse_interface are pde2d's blocks and condensation as
scipy.sparse forms them, whose bits the package's stencil arithmetic
must keep; of the condensation, the package keeps only c_E and c_N
once it has formed the modal load.  interface_eigenbasis is the
eigenbasis of the pencil (S2, S1) that the package forms the modal load
from and drops.  plain_pde2d is the PDE solve as a sparse LU of the
whole grid, without the condensation onto the material interface, and
cholesky_pde2d the condensed solve without the interface's eigenbasis:
a dense Cholesky of S(mu) per point, from sparse_interface's S1 and S2.
per_trial_backtrack and per_trial_solve are the line search and the
inner solver with every trial formed and scored on its own, through the
surrogate's one-point queries, constraint_value is the trust-region
slack at a point from those queries, and scored_result a
SubproblemResult whose scores are those queries.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import splu

from hermite_tr._lapack import dsygvd
from hermite_tr.errors import AssumptionViolationError, LineSearchError, NumericalError
from hermite_tr.kernels import KernelSpec, radial_profiles
from hermite_tr.pde2d import (
    OMEGA_X,
    OMEGA_Y_HIGH,
    OMEGA_Y_LOW,
    SCHUR_CHUNK,
    theta1,
    theta2,
    theta_derivs,
    theta_j,
)
from hermite_tr.subproblem import (
    COS_FLOOR,
    POSITIVITY_FLOOR,
    SubproblemResult,
    Termination,
    angle_decrease_rule,
    bfgs_inverse_update,
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


def sparse_blocks(grid_n):
    """(A1, A2) of the grid_n x grid_n discretization, assembled as scipy.sparse CSC."""
    n = grid_n
    h = 2.0 / n
    centers = -1.0 + (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(centers, centers, indexing="ij")

    in_x = (X >= OMEGA_X[0]) & (X <= OMEGA_X[1])
    in_y = ((Y >= OMEGA_Y_LOW[0]) & (Y <= OMEGA_Y_LOW[1])) | (
        (Y >= OMEGA_Y_HIGH[0]) & (Y <= OMEGA_Y_HIGH[1])
    )
    inclusion = in_x & in_y
    indicators = {1: (~inclusion).astype(float), 2: inclusion.astype(float)}

    ids = np.arange(n * n).reshape(n, n)
    blocks = {}
    for region, ind in indicators.items():
        rows, cols, vals = [], [], []

        def add_faces(w, left, right):
            rows.extend([left, right, left, right])
            cols.extend([left, right, right, left])
            vals.extend([w, w, -w, -w])

        # interior faces along x and y; weight = mean of adjacent indicators
        w = 0.5 * (ind[:-1, :] + ind[1:, :])
        add_faces(w.ravel(), ids[:-1, :].ravel(), ids[1:, :].ravel())
        w = 0.5 * (ind[:, :-1] + ind[:, 1:])
        add_faces(w.ravel(), ids[:, :-1].ravel(), ids[:, 1:].ravel())
        # Dirichlet faces: half-cell distance doubles the transmissibility
        for edge_ids, edge_ind in (
            (ids[0, :], ind[0, :]),
            (ids[-1, :], ind[-1, :]),
            (ids[:, 0], ind[:, 0]),
            (ids[:, -1], ind[:, -1]),
        ):
            rows.append(edge_ids)
            cols.append(edge_ids)
            vals.append(2.0 * edge_ind)

        blocks[region] = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n * n, n * n),
        ).tocsc()
    return blocks[1], blocks[2]


def _touched(a) -> np.ndarray:
    """Mask of the cells whose rows of the symmetric block a hold a nonzero."""
    a = a.copy()
    a.eliminate_zeros()     # the assembly stores zero-weight faces
    return np.diff(a.indptr) > 0


def _eliminate(a, cells, gamma, load):
    """Eliminate cells from the block a: (Schur complement on gamma, a_gc z, l_c . z).

    z = a_cc^-1 l_c.  Only the columns of a_cg that hold a nonzero (the
    ring next to cells) enter the complement, SCHUR_CHUNK at a time.
    """
    s = a[gamma][:, gamma].toarray()
    lu = splu(a[cells][:, cells].tocsc())
    z = lu.solve(load[cells])
    coupling = a[cells][:, gamma].tocsc()
    ring = np.flatnonzero(np.diff(coupling.indptr))
    b = coupling[:, ring]
    bt = b.T.tocsr()
    for start in range(0, ring.size, SCHUR_CHUNK):
        cols = slice(start, start + SCHUR_CHUNK)
        s[np.ix_(ring, ring[cols])] -= bt @ lu.solve(b[:, cols].toarray())
    return 0.5 * (s + s.T), coupling.T @ z, float(load[cells] @ z)


def sparse_interface(disc):
    """pde2d's condensation of disc, from sparse_blocks with scipy.sparse and splu.

    The cell partition (gamma, exterior, inclusions), S1, S2, the reduced
    load g and c_E, c_N as c1, c2.  The eigenbasis is interface_eigenbasis's.
    """
    a1, a2 = sparse_blocks(disc.grid_n)
    t1, t2 = _touched(a1), _touched(a2)
    gamma = np.flatnonzero(t1 & t2)
    exterior = np.flatnonzero(t1 & ~t2)
    inclusions = np.flatnonzero(t2 & ~t1)
    s1, g1, c1 = _eliminate(a1, exterior, gamma, disc.load)
    s2, g2, c2 = _eliminate(a2, inclusions, gamma, disc.load)
    return SimpleNamespace(gamma=gamma, exterior=exterior, inclusions=inclusions,
                           s1=s1, s2=s2, load=disc.load[gamma] - g1 - g2, c1=c1, c2=c2)


def interface_eigenbasis(face):
    """(lambda, V) of the pencil (S2, S1) from sparse_interface's S1 and S2.

    The package's one dsygvd call on the same S1 and S2, so lambda and V
    have the bits of the eigenbasis the package forms h = V^T g from.
    """
    eigenvalues, modes, info = dsygvd(face.s2, face.s1, itype=1, jobz="V", uplo="L")
    if info != 0:
        raise NumericalError(f"interface eigensolve failed: LAPACK info {info}")
    return eigenvalues, modes


def plain_pde2d(disc, mu):
    """(u, J, grad J) at mu from a fresh splu of A(mu) and its sensitivity solves."""
    lu = splu(disc.system_matrix(mu))
    a1, a2 = sparse_blocks(disc.grid_n)
    u = lu.solve(disc.load)
    fu = float(disc.load @ u)
    grad = np.zeros(2)
    for m, (dt1, dt2) in enumerate(theta_derivs(mu)):
        du = lu.solve(-(dt1 * a1 + dt2 * a2) @ u)
        grad[m] = 0.2 * fu + theta_j(mu) * float(disc.load @ du)
    return u, theta_j(mu) * fu, grad


def cholesky_pde2d(face, mu):
    """(u_G, J, grad J) at mu from a Cholesky factor of S(mu) = theta1 S1 + theta2 S2.

    face is sparse_interface's condensation.  Raises
    NumericalError("linear solve failed ...") where S(mu) is not
    positive definite.
    """
    t1, t2 = theta1(mu), theta2(mu)
    factor, info = dpotrf(t1 * face.s1 + t2 * face.s2, lower=True)
    if info == 0:
        w, info = dpotrs(factor, face.load, lower=True)
    if info != 0:
        raise NumericalError(f"linear solve failed at mu={mu}: LAPACK info {info}")
    f = face.c1 / t1 + face.c2 / t2 + float(face.load @ w)
    df1 = -face.c1 / t1**2 - float(w @ (face.s1 @ w))
    df2 = -face.c2 / t2**2 - float(w @ (face.s2 @ w))
    tj = theta_j(mu)
    grad = np.array([0.2 * f + tj * (dt1 * df1 + dt2 * df2) for dt1, dt2 in theta_derivs(mu)])
    return w, tj * f, grad


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


def constraint_value(s, delta, x) -> float:
    """Trust-region slack delta - norm_bound * power(x) / s(x), from point queries."""
    val = s.value(x)
    if val <= POSITIVITY_FLOOR:
        raise AssumptionViolationError(
            f"surrogate value {val:.3e} at {np.asarray(x)} is below the positivity "
            "floor; the objective may need a larger additive offset"
        )
    return delta - s.norm_bound * s.power(x) / val


def scored_result(s, start, candidate, iterates, termination):
    """SubproblemResult with its scores from point queries of s.

    The AGC point is iterates[0], or start when iterates is empty.
    """
    agc = iterates[0] if iterates else start
    return SubproblemResult(candidate, iterates, termination, s.value(start), s.value(agc),
                            s.value(candidate), s.power(candidate))


def per_trial_solve(s, x0, delta, cfg, box):
    """subproblem.solve with every trial scored by s.value and s.power, one point at a time."""
    x = start = np.asarray(x0, dtype=float).copy()
    start_slack = constraint_value(s, delta, x)
    if start_slack <= 0.0:
        raise AssumptionViolationError(
            f"subproblem started infeasible: constraint {start_slack:.3e} at {x}"
        )
    dim = x.shape[0]
    grad = s.gradient(x)
    if projected_gradient_norm(x, grad, box) <= cfg.tau_sub:
        return scored_result(s, start, x, [], Termination.STATIONARY_INNER)

    def feasible(trial):
        val = s.value(trial)
        return val > POSITIVITY_FLOOR and delta - s.norm_bound * s.power(trial) / val >= 0.0

    hinv = np.eye(dim)
    iterates = []
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
            if not iterates:
                raise
            termination = Termination.LINE_SEARCH_FAILED
            break
        iterates.append(x_new.copy())
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
    return scored_result(s, start, x, iterates, termination)
