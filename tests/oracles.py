"""Pointwise oracles for the tests: one kernel pair, one uncounted objective call.

The package evaluates kernels only in vectorized form (Gram blocks and
kernel vectors from radial profiles) and counts every objective call.
These helpers state the same quantities one pair or one point at a time,
so tests can check the vectorized paths against them.  plain_pde2d is
the PDE solve without the reused column order.
"""

import numpy as np
from scipy.sparse.linalg import splu

from hermite_tr.kernels import KernelSpec, radial_profiles
from hermite_tr.pde2d import theta_derivs, theta_j


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
    return float(val), np.asarray(grad(), dtype=float)


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
