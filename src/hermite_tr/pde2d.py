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

Grid sizes divisible by 6 align the inclusion edges with cell faces;
other sizes snap the inclusions to whole cells by center membership.

Solves are condensed onto the material interface G, the cells whose rows
both blocks touch (248 of 9,216 at n = 96).  The other cells split into
the exterior E, touched by A1 only, and the inclusion interiors N,
touched by A2 only; a face between an E and an N cell would put both in
G, so E and N never couple.  Eliminating E with A1 and N with A2 leaves
the Schur complement

    S(mu) = theta1 * S1 + theta2 * S2,   S1 = A1_GG - A1_GE A1_EE^-1 A1_EG,

(S2 likewise with N), the reduced load g = l_G - A1_GE z_E - A2_GN z_N
and the constants c_E = l_E . z_E, c_N = l_N . z_N, where z_E = A1_EE^-1
l_E and z_N = A2_NN^-1 l_N.  None of them depends on mu, so they are
formed once per discretization, at its first solve (the offline step of
static condensation; Huynh, Knezevic & Patera, ESAIM: M2AN 47(1), 2013).
theta1 and theta2 stay above 1 on the problem box, so S(mu) is positive
definite there, and each solve factors the dense S(mu) by Cholesky and
solves S w = g for the interface state w = u_G, and

    l . u = c_E / theta1 + c_N / theta2 + g . w.

The gradient needs no further solve: d(l . u)/d theta1 = -c_E / theta1^2
- w . S1 w, and likewise for theta2 with c_N and S2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._lapack import dpotrf, dpotrs
from .errors import ConfigError, NumericalError

OMEGA_X = (-2.0 / 3.0, -1.0 / 3.0)
OMEGA_Y_LOW = (-2.0 / 3.0, -1.0 / 3.0)
OMEGA_Y_HIGH = (1.0 / 3.0, 2.0 / 3.0)
# columns per block solve when forming S1 and S2, which bounds the dense
# work array at (cells eliminated) x SCHUR_CHUNK
SCHUR_CHUNK = 32


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

    @cached_property
    def interface(self) -> "Interface":
        """The mu-independent condensed system, formed at the first use."""
        return Interface.condense(self)


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


@dataclass(frozen=True)
class Interface:
    """A(mu) condensed onto the interface cells; see the module docstring."""

    gamma: np.ndarray       # interface cells G
    exterior: np.ndarray    # cells E, touched by A1 only
    inclusions: np.ndarray  # cells N, touched by A2 only
    s1: np.ndarray          # dense |G| x |G| Schur complements, symmetric
    s2: np.ndarray
    load: np.ndarray        # reduced load g
    c1: float               # l_E . z_E
    c2: float               # l_N . z_N

    @staticmethod
    def condense(disc: Pde2dDiscretization) -> "Interface":
        t1, t2 = _touched(disc.a1), _touched(disc.a2)
        gamma = np.flatnonzero(t1 & t2)
        exterior = np.flatnonzero(t1 & ~t2)
        inclusions = np.flatnonzero(t2 & ~t1)
        s1, g1, c1 = _eliminate(disc.a1, exterior, gamma, disc.load)
        s2, g2, c2 = _eliminate(disc.a2, inclusions, gamma, disc.load)
        return Interface(gamma=gamma, exterior=exterior, inclusions=inclusions,
                         s1=s1, s2=s2, load=disc.load[gamma] - g1 - g2, c1=c1, c2=c2)


def pde2d_solve(disc: Pde2dDiscretization, mu):
    """Solve at mu; returns (interface state u_G, J, f = l . u)."""
    mu = np.asarray(mu, dtype=float)
    face = disc.interface
    t1, t2 = theta1(mu), theta2(mu)
    # S is exactly symmetric (s1 and s2 are), so its transpose is the same
    # matrix in Fortran order, which LAPACK factors in place.  A NaN in S
    # can pass the factorization; it then shows in the state.
    schur = t1 * face.s1
    schur += t2 * face.s2     # in place: cheaper than numpy's reuse of a large temporary
    factor, info = dpotrf(schur.T, lower=True, clean=False, overwrite_a=True)
    if info == 0:
        w, info = dpotrs(factor, face.load, lower=True)
    if info != 0:
        raise NumericalError(f"linear solve failed at mu={mu}: LAPACK info {info}")
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite state at mu={mu}")
    f = face.c1 / t1 + face.c2 / t2 + float(face.load @ w)
    return w, theta_j(mu) * f, f


def pde2d_gradient(disc: Pde2dDiscretization, mu, w, f):
    """Gradient of J from pde2d_solve's interface state w and f; no solve."""
    mu = np.asarray(mu, dtype=float)
    face = disc.interface
    t1, t2 = theta1(mu), theta2(mu)
    df1 = -face.c1 / t1**2 - float(w @ (face.s1 @ w))
    df2 = -face.c2 / t2**2 - float(w @ (face.s2 @ w))
    tj = theta_j(mu)
    return np.array([0.2 * f + tj * (dt1 * df1 + dt2 * df2)
                     for dt1, dt2 in theta_derivs(mu)])
