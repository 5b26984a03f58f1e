"""Finite-volume solver for the 2D variable-diffusion benchmark.

The PDE is -div(lambda(x; mu) grad u) = l(x) on (-1,1)^2 with homogeneous
Dirichlet boundary and a two-material diffusion field: two square
inclusions carry coefficient theta2(mu), the rest theta1(mu).  The
objective is J(mu) = theta_J(mu) * integral(l * u).

Discretization: cell-centered two-point fluxes on a uniform n x n grid,
Dirichlet handled through half-cell boundary transmissibilities.  Face
coefficients are assembled per material region by averaging the region
indicators of the two adjacent cells, which keeps the parameter
dependence exactly affine:

    A(mu) = theta1(mu) * A1 + theta2(mu) * A2.

The two stiffness blocks are assembled once and reused for every mu; the
affine split is what makes the sensitivity right-hand sides cheap.  Grid
sizes divisible by 6 align the inclusion edges with cell faces; other
sizes snap the inclusions to whole cells by center membership.

theta1 and theta2 stay above 1 on the problem box, so A(mu) keeps the
sparsity pattern of A1 + A2 there.  The fill-reducing column order that
splu computes from that pattern is therefore taken once, from the first
factorization, and every later factorization reuses it: factoring
A[:, order] in natural order gives the same bits as a fresh splu(A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, NumericalError

OMEGA_X = (-2.0 / 3.0, -1.0 / 3.0)
OMEGA_Y_LOW = (-2.0 / 3.0, -1.0 / 3.0)
OMEGA_Y_HIGH = (1.0 / 3.0, 2.0 / 3.0)


def theta1(mu):
    return 1.1 + np.sin(mu[0]) * mu[1]


def theta2(mu):
    return 1.1 + np.sin(mu[1])


def theta_j(mu):
    return 1.0 + (mu[0] + mu[1]) / 5.0


# (d theta1/d mu_m, d theta2/d mu_m) for m = 0, 1
def theta_derivs(mu):
    return (
        (np.cos(mu[0]) * mu[1], 0.0),
        (np.sin(mu[0]), np.cos(mu[1])),
    )


@dataclass
class Pde2dDiscretization:
    """Assembled affine stiffness blocks, load vector, and grid metadata."""

    grid_n: int
    a1: sp.csc_matrix
    a2: sp.csc_matrix
    load: np.ndarray          # midpoint quadrature of l, also the system rhs
    # splu's column order for the full pattern, set by the first solve
    column_order: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @staticmethod
    def build(grid_n: int) -> "Pde2dDiscretization":
        if grid_n < 6:
            raise ConfigError(f"grid_n must be at least 6, got {grid_n}")
        n = int(grid_n)
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

        load = (
            0.5 * np.pi**2 * np.cos(0.5 * np.pi * X) * np.cos(0.5 * np.pi * Y)
        ).ravel() * h * h
        return Pde2dDiscretization(grid_n=n, a1=blocks[1], a2=blocks[2], load=load)

    def system_matrix(self, mu) -> sp.csc_matrix:
        return (theta1(mu) * self.a1 + theta2(mu) * self.a2).tocsc()


class _OrderedFactor:
    """splu factor of A[:, order]; solve(rhs) returns x with A x = rhs."""

    __slots__ = ("lu", "order")

    def __init__(self, lu, order):
        self.lu, self.order = lu, order

    def solve(self, rhs):
        x = np.empty(len(self.order))
        x[self.order] = self.lu.solve(rhs)
        return x


def _factor(disc: Pde2dDiscretization, a):
    """Factor of a = A(mu), reusing the column order of the first solve."""
    if disc.column_order is None:
        lu = splu(a)
        # perm_c[j] is the position column j moves to
        disc.column_order = np.argsort(lu.perm_c)
        return lu
    order = disc.column_order
    return _OrderedFactor(splu(a[:, order], permc_spec="NATURAL"), order)


def pde2d_solve(disc: Pde2dDiscretization, mu):
    """Solve the primal system at mu; returns (state u, J, factor of A(mu))."""
    mu = np.asarray(mu, dtype=float)
    try:
        lu = _factor(disc, disc.system_matrix(mu))
        u = lu.solve(disc.load)
    except RuntimeError as exc:
        raise NumericalError(f"linear solve failed at mu={mu}: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite state at mu={mu}")
    val = theta_j(mu) * float(disc.load @ u)
    return u, val, lu


def pde2d_gradient(disc: Pde2dDiscretization, mu, u, lu):
    """Gradient of J via one solve with pde2d_solve's factor lu per parameter component."""
    mu = np.asarray(mu, dtype=float)
    tj = theta_j(mu)
    fu = float(disc.load @ u)
    grad = np.zeros(2)
    for m, (dt1, dt2) in enumerate(theta_derivs(mu)):
        rhs = -(dt1 * disc.a1 + dt2 * disc.a2) @ u
        du = lu.solve(rhs)
        grad[m] = 0.2 * fu + tj * float(disc.load @ du)
    return grad
