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

Cell (i, j) is number c = i n + j, so its neighbours are c - n, c - 1,
c + 1 and c + n.  Each block is held as its five-point stencil: a 5 x n^2
numpy array whose column c holds row c of the block, the entries at
columns c - n, c - 1, c, c + 1 and c + n (minus the face weights and the
diagonal), 0 past the edge of the grid.

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
The step ends with one eigensolve of the pencil (S2, S1), LAPACK's dsygvd:
S1 is positive definite, since the exterior has the Dirichlet boundary,
so S2 V = S1 V diag(lambda) with V^T S1 V = I and V^T S2 V = diag(lambda)
(Golub & Van Loan, Matrix Computations, section 8.7).  S2 is only
semidefinite, as the inclusions have no Dirichlet face, so lambda >= 0
up to rounding.
discretization(grid_n) shares one discretization per grid per process, so
every problem on a grid shares that step too: a process that runs several
experiments on one grid pays it once, and a single run pays it once as
before.  An entry holds about 0.81 MB at n = 96, nearly all of it the
stencils and the load, and is never evicted; all its arrays are
read-only.  Of the condensation it keeps what a solve reads, lambda,
h = V^T g, c_E and c_N: the cell partition, S1, S2, g and V are dropped
once h is formed.

Online, S(mu) is diagonal in the modes: V^T S(mu) V = diag(d) with
d = theta1 + theta2 * lambda, and theta1 and theta2 stay above 1 on the
problem box, so d > 1 there.  With h = V^T g, each solve is O(|G|), with
no factorization: the modal coordinates r = h / d give the interface
state w = u_G = V r, and

    l . u = c_E / theta1 + c_N / theta2 + h . r.

The gradient needs no further solve: d(l . u)/d theta1 = -c_E / theta1^2
- w . S1 w with w . S1 w = r . r, and likewise for theta2 with c_N and
w . S2 w = r . (lambda r).

The offline step builds each eliminated block, A1_EE and A2_NN, from its
stencil as a canonical CSC matrix and factors it with SuperLU's gstrf,
called as scipy.sparse.linalg.splu calls it (COLAMD ordering) but loaded
without scipy.sparse.  The other blocks repeat scipy.sparse's arithmetic,
so S1, S2, g, c_E and c_N have the bits a scipy.sparse condensation gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._lapack import dsygvd, scipy_extension
from .errors import ConfigError, NumericalError, integral

gstrf = scipy_extension("scipy.sparse.linalg._dsolve._superlu").gstrf

OMEGA_X = (-2.0 / 3.0, -1.0 / 3.0)
OMEGA_Y_LOW = (-2.0 / 3.0, -1.0 / 3.0)
OMEGA_Y_HIGH = (1.0 / 3.0, 2.0 / 3.0)
# columns per block solve when forming S1 and S2, which bounds the dense
# work array at (cells eliminated) x SCHUR_CHUNK.  SuperLU may solve a
# block of right-hand sides with BLAS-3, so the chunk is part of the bits:
# at n = 96, lambda, h, c_E and c_N are the same at 4, 8, 16 and 32, not
# at 2.  The condensation takes as long at 8 as at 32, and a pde2d
# experiment's peak RSS falls by about 3.6 MB (of 56), since the
# exterior's right-hand-side blocks no longer sit on top of its factor.
SCHUR_CHUNK = 8
# splu's defaults: COLAMD ordering, SuperLU's own pivot threshold and sizes
SPLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": None, "PanelSize": None, "Relax": None}


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


def stencil_offsets(n):
    """Column offsets of the five stencil rows: c - n, c - 1, c, c + 1, c + n."""
    return np.array([-n, -1, 0, 1, n])


@dataclass
class Pde2dDiscretization:
    """The two blocks' stencils, the load vector, and the grid size; the arrays are read-only."""

    grid_n: int
    stencils: np.ndarray      # 2 x 5 x n^2: A1's stencil, then A2's
    load: np.ndarray          # midpoint quadrature of l, also the system rhs

    @staticmethod
    def build(grid_n: int) -> "Pde2dDiscretization":
        """A fresh discretization; discretization(grid_n) shares one per grid."""
        try:
            n = integral(grid_n)
        except (TypeError, ValueError):
            raise ConfigError(f"grid_n must be an integer, got {grid_n!r}") from None
        if n < 6:
            raise ConfigError(f"grid_n must be at least 6, got {grid_n}")
        h = 2.0 / n
        centers = -1.0 + (np.arange(n) + 0.5) * h
        X, Y = np.meshgrid(centers, centers, indexing="ij")

        in_x = (X >= OMEGA_X[0]) & (X <= OMEGA_X[1])
        in_y = ((Y >= OMEGA_Y_LOW[0]) & (Y <= OMEGA_Y_LOW[1])) | (
            (Y >= OMEGA_Y_HIGH[0]) & (Y <= OMEGA_Y_HIGH[1])
        )
        inclusion = in_x & in_y

        stencils = np.zeros((2, 5, n, n))
        for stencil, ind in zip(stencils, ((~inclusion).astype(float), inclusion.astype(float))):
            low_x, low_y, diag, high_y, high_x = stencil
            # interior faces; weight = mean of the two adjacent indicators
            w = 0.5 * (ind[:-1, :] + ind[1:, :])
            low_x[1:, :] = high_x[:-1, :] = -w
            diag[1:, :] += w
            diag[:-1, :] += w
            w = 0.5 * (ind[:, :-1] + ind[:, 1:])
            low_y[:, 1:] = high_y[:, :-1] = -w
            diag[:, 1:] += w
            diag[:, :-1] += w
            # Dirichlet faces: half-cell distance doubles the transmissibility
            for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
                diag[edge] += 2.0 * ind[edge]

        load = (
            0.5 * np.pi**2 * np.cos(0.5 * np.pi * X) * np.cos(0.5 * np.pi * Y)
        ).ravel() * h * h
        return Pde2dDiscretization(grid_n=n, stencils=_read_only(stencils).reshape(2, 5, n * n),
                                   load=_read_only(load))

    def system_matrix(self, mu):
        """A(mu) as a scipy.sparse CSC array; tests use it, the solves never form A."""
        from scipy.sparse import diags_array

        n = self.grid_n
        low_x, low_y, diag, high_y, high_x = (
            theta1(mu) * self.stencils[0] + theta2(mu) * self.stencils[1])
        return diags_array([low_x[n:], low_y[1:], diag, high_y[:-1], high_x[:-n]],
                           offsets=stencil_offsets(n), format="csc")

    @cached_property
    def interface(self) -> "Interface":
        """The mu-independent condensed system, formed at the first use."""
        return Interface.condense(self)


@cache
def discretization(grid_n) -> Pde2dDiscretization:
    """The process's one discretization of the grid, built at the first call.

    Problems on one grid share it, and so its interface, condensed at the
    first solve on any of them.  A refused grid_n raises and caches nothing.
    """
    return Pde2dDiscretization.build(grid_n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def splu(data, indices, indptr):
    """SuperLU factor of the square canonical CSC matrix (data, indices, indptr).

    The factor scipy.sparse.linalg.splu makes, with its default options,
    except that its L and U properties, which would build scipy.sparse
    arrays with csc_construct_func, are not available; solve is.
    """
    return gstrf(indptr.size - 1, data.size, data, indices, indptr,
                 csc_construct_func=None, ilu=False, options=SPLU_OPTIONS)


def _block(stencil, offsets, rows, cols):
    """The block A[rows][:, cols] of a stencil's matrix, by stencil row.

    offsets are the stencil's column offsets, rows and cols ascending cell
    numbers.  Returns (keep, pos, val), each rows.size x 5: where keep,
    entry k of row i is the nonzero val[i, k] in column pos[i, k] of the
    block, and a row's kept entries are in ascending column order.
    Elsewhere pos is 0 and val is 0.0.
    """
    position = np.full(stencil.shape[1], -1)
    position[cols] = np.arange(cols.size)
    pos = position.take(rows[:, None] + offsets, mode="clip")
    val = stencil[:, rows].T
    # the stencil holds 0 for a neighbour past the edge of the grid (and
    # for c - 1 and c + 1 across it), so clipping those is harmless
    keep = (pos >= 0) & (val != 0)
    return keep, np.where(keep, pos, 0), np.where(keep, val, 0.0)


def _product(pos, val, x):
    """A block from _block times the 2-D array x.

    One multiply-add per stencil row, from zero: each output row sums its
    terms in ascending column order, without FMA, as scipy's csr_matvec(s)
    does.  A dropped entry adds 0.0 * x, which leaves a sum unchanged.
    """
    out = np.zeros((pos.shape[0], x.shape[1]))
    if x.shape[0] == 0:     # a block without columns: pos has nothing to point at
        return out
    for p, v in zip(pos.T, val.T):
        out += v[:, None] * x[p]
    return out


def _eliminate(stencil, offsets, cells, gamma, load):
    """Eliminate cells from a stencil's block: (Schur complement on gamma, a_gc z, l_c . z).

    z = a_cc^-1 l_c.  Only the rows of a_gc that hold a nonzero (the ring
    next to cells) enter the complement, SCHUR_CHUNK at a time.
    """
    # only nonzero entries are written: a zero-weight face would store -0.0
    keep, pos, val = _block(stencil, offsets, gamma, gamma)
    s = np.zeros((gamma.size, gamma.size))
    s[np.nonzero(keep)[0], pos[keep]] = val[keep]
    # a_cc is symmetric, so its rows are its CSC columns
    keep, pos, val = _block(stencil, offsets, cells, cells)
    indptr = np.zeros(cells.size + 1, dtype=np.intc)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    lu = splu(val[keep], pos[keep].astype(np.intc), indptr)
    z = lu.solve(load[cells])
    keep, pos, val = _block(stencil, offsets, gamma, cells)
    ring = np.flatnonzero(keep.any(axis=1))
    for start in range(0, ring.size, SCHUR_CHUNK):
        rows = ring[start:start + SCHUR_CHUNK]
        i, k = np.nonzero(keep[rows])
        bt = np.zeros((rows.size, cells.size))
        bt[i, pos[rows][i, k]] = val[rows][i, k]
        s[np.ix_(ring, rows)] -= _product(pos[ring], val[ring], lu.solve(bt.T))
    return 0.5 * (s + s.T), _product(pos, val, z[:, None])[:, 0], float(load[cells] @ z)


@dataclass(frozen=True)
class Interface:
    """What a solve reads of A(mu) condensed onto the interface; see the module docstring."""

    c1: float               # l_E . z_E
    c2: float               # l_N . z_N
    eigenvalues: np.ndarray  # lambda, ascending
    modal_load: np.ndarray  # h = V^T g

    @staticmethod
    def condense(disc: Pde2dDiscretization) -> "Interface":
        a1, a2 = disc.stencils
        # the face weights are not negative, so a cell's row of a block
        # holds a nonzero exactly where its diagonal does
        t1, t2 = a1[2] != 0, a2[2] != 0
        gamma = np.flatnonzero(t1 & t2)
        exterior = np.flatnonzero(t1 & ~t2)
        inclusions = np.flatnonzero(t2 & ~t1)
        offsets = stencil_offsets(disc.grid_n)
        s1, g1, c1 = _eliminate(a1, offsets, exterior, gamma, disc.load)
        s2, g2, c2 = _eliminate(a2, offsets, inclusions, gamma, disc.load)
        load = disc.load[gamma] - g1 - g2
        eigenvalues, modes, info = dsygvd(s2, s1, itype=1, jobz="V", uplo="L")
        if info != 0:
            raise NumericalError(f"interface eigensolve failed at grid {disc.grid_n}: "
                                 f"LAPACK info {info}")
        # h from V as dsygvd returns it, in Fortran order
        return Interface(c1=c1, c2=c2, eigenvalues=_read_only(eigenvalues),
                         modal_load=_read_only(modes.T @ load))


def pde2d_solve(disc: Pde2dDiscretization, mu):
    """Solve at mu; returns (modal coordinates r of u_G = V r, J, f = l . u)."""
    mu = np.asarray(mu, dtype=float)
    face = disc.interface
    t1, t2 = theta1(mu), theta2(mu)
    d = t1 + t2 * face.eigenvalues
    # d > 0 is False for NaN, so a non-finite theta fails here too
    if not np.all(d > 0.0):
        raise NumericalError(f"linear solve failed at mu={mu}: S(mu) is not positive definite")
    r = face.modal_load / d
    if not np.all(np.isfinite(r)):
        raise NumericalError(f"non-finite state at mu={mu}")
    f = face.c1 / t1 + face.c2 / t2 + float(face.modal_load @ r)
    return r, theta_j(mu) * f, f


def pde2d_gradient(disc: Pde2dDiscretization, mu, r, f):
    """Gradient of J from pde2d_solve's modal coordinates r and f; no solve."""
    mu = np.asarray(mu, dtype=float)
    face = disc.interface
    t1, t2 = theta1(mu), theta2(mu)
    df1 = -face.c1 / t1**2 - float(r @ r)
    df2 = -face.c2 / t2**2 - float(r @ (face.eigenvalues * r))
    tj = theta_j(mu)
    return np.array([0.2 * f + tj * (dt1 * df1 + dt2 * df2)
                     for dt1, dt2 in theta_derivs(mu)])
