"""Gradient-enhanced kernel interpolation: fit, evaluation, error bounds.

The interpolant matches function values and gradients at every center,

    s(x) = sum_i alpha_i k(x_i, x) + <beta_i, grad1 k(x_i, x)>,

with coefficients from the generalized Gram system.  Rows/columns are
ordered as [n value functionals; then n*p derivative functionals grouped
by center], and the coefficient vector is [alpha; beta.ravel()].

The residual norm of projecting a (derivative of a) kernel translate onto
the data subspace gives a pointwise error bound when multiplied by an
upper bound on the RKHS norm of the target; that product defines the
trust region used by the outer optimizer.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from ._lapack import dpotrf, dpotrs
from .errors import (
    DuplicatePointsError,
    IllConditionedGramError,
    NumericalError,
)
from .kernels import KernelSpec, radial_profiles
from .sampling import uniform

# Points closer than DISTINCT_TOL * (1 + ||x||) count as the same center.
DISTINCT_TOL = 1e-10
# Jitter ladder for the regularized factorization, scaled by mean(diag).
JITTERS = (0.0, 1e-14, 1e-12, 1e-10)
# scipy.linalg's message for a non-finite input, kept as the contract
NOT_FINITE = "array must not contain infs or NaNs"


def coincide(dist, x) -> bool:
    """Whether a point at distance dist from x counts as x; at an infinite one, never."""
    return math.isfinite(dist) and dist <= DISTINCT_TOL * (1.0 + np.linalg.norm(x))


@dataclass(frozen=True)
class TrainingSet:
    """Pairwise-distinct points with objective values and gradients."""

    points: np.ndarray    # (n, p)
    values: np.ndarray    # (n,)
    gradients: np.ndarray  # (n, p)
    distinct: InitVar[bool] = False   # the caller has checked the points

    def __post_init__(self, distinct):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        grads = np.atleast_2d(np.asarray(self.gradients, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gradients", grads)
        n, p = pts.shape
        if n < 1:
            raise ValueError("training set needs at least one point")
        if vals.shape != (n,) or grads.shape != (n, p):
            raise ValueError(
                f"inconsistent training data: {n} points of dim {p}, "
                f"{vals.shape} values, {grads.shape} gradients"
            )
        if not distinct:
            _require_distinct(pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def find_close(self, x) -> int | None:
        """Index of a center within the distinctness threshold of x, if any."""
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(self.points - x[None, :], axis=1)
        k = int(np.argmin(d))
        return k if coincide(d[k], x) else None

    def with_point(self, x, value, gradient) -> "TrainingSet":
        """New training set extended by one point (rejects near-duplicates).

        Only the new point is checked: the existing ones are already
        pairwise distinct.
        """
        x = np.asarray(x, dtype=float)
        idx = self.find_close(x)
        if idx is not None:
            raise DuplicatePointsError(idx, self.n, float(np.linalg.norm(self.points[idx] - x)))
        return TrainingSet(
            np.vstack([self.points, x[None, :]]),
            np.append(self.values, float(value)),
            np.vstack([self.gradients, np.asarray(gradient, dtype=float)[None, :]]),
            distinct=True,
        )


def _require_distinct(pts):
    """Raise DuplicatePointsError if the closest pair is within the threshold."""
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d[np.diag_indices(len(pts))] = np.inf    # so a lone point's pair is no duplicate
    i, j = (int(k) for k in np.unravel_index(np.argmin(d), d.shape))
    if coincide(d[i, j], pts[i]):
        raise DuplicatePointsError(i, j, float(d[i, j]))


def _distances(diff):
    """Euclidean lengths of difference vectors stored by direction, shape (p, ...).

    The squares are summed left to right, whatever p.  Every distance
    behind a kernel value comes from here (every Gram entry, grown or
    not, and evaluation), so they agree to the bit at every dimension;
    np.linalg.norm sums pairwise from eight directions on.
    """
    sq = diff * diff
    r2 = sq[0]
    for s in sq[1:]:
        r2 = r2 + s
    return np.sqrt(r2)


def _derivative_blocks(diff, g1, g2):
    """Derivative Gram entries between the centers along diff's two leading axes.

    diff holds x_i - x_j (row center minus column center), shape (a, b, p),
    and g1, g2 the radial profiles at its distances, shape (a, b).
    Returns the derivative-by-value block (a*p, b), rows (i, l), and the
    derivative block (a*p, b*p).
    """
    a, b, p = diff.shape
    # d1_l k(x_i, x_j) = g1(r_ij) * (x_i - x_j)_l, row (i, l), column j
    dv = (g1[:, :, None] * diff).transpose(0, 2, 1).reshape(a * p, b)
    cross = -g1[:, :, None, None] * np.eye(p) - g2[:, :, None, None] * (
        diff[:, :, :, None] * diff[:, :, None, :]
    )
    return dv, cross.transpose(0, 2, 1, 3).reshape(a * p, b * p)


def assemble_gram(kernel: KernelSpec, points, base=None) -> np.ndarray:
    """Generalized Gram matrix coupling value and gradient functionals.

    Block structure (i, j running over centers, l, m over directions):
      [ k(x_i, x_j)          d2_m k(x_i, x_j)      ]
      [ d1_l k(x_i, x_j)     d1_l d2_m k(x_i, x_j) ]
    Symmetric, and positive definite for a TrainingSet's pairwise-distinct points.

    base, if given, is the Gram of the first k points (k = 0 without
    one): its blocks move to their places in the larger layout, and only
    the rows of centers k..n-1 and their columns against the first k are
    evaluated.  A d1_l entry takes x_i - x_j with x_i the derivative's
    center, a d1_l d2_m entry with x_i the row's center, as a full
    assembly does, so a grown Gram has its bits, signed zeros included.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, p = pts.shape
    k = 0 if base is None else len(base) // (1 + p)
    d = n + k * p                                     # first derivative row of center k

    diff = pts[k:, None, :] - pts[None, :, :]         # (n-k, n, p): rows of the new centers
    k_vals, g1, g2 = radial_profiles(kernel, _distances(np.moveaxis(diff, -1, 0)))
    dv, dd = _derivative_blocks(diff, g1, g2)

    m = n * (1 + p)
    M = np.empty((m, m))
    M[k:n, :n] = k_vals
    M[d:, :n] = dv
    M[:n, d:] = dv.T
    M[d:, n:] = dd
    if k:
        M[:k, :k] = base[:k, :k]
        M[:k, n:d] = base[:k, k:]
        M[n:d, :k] = base[k:, :k]
        M[n:d, n:d] = base[k:, k:]
        # the first k centers against the new ones: the values mirror, and
        # the derivative entries take x_i - x_new; (-t)**2 == t**2, so both
        # orientations share the profiles
        M[:k, k:n] = k_vals[:, :k].T
        c_dv, c_dd = _derivative_blocks(pts[:k, None, :] - pts[None, k:, :],
                                        g1[:, :k].T, g2[:, :k].T)
        M[n:d, k:n] = c_dv
        M[k:n, n:d] = c_dv.T
        M[n:d, d:] = c_dd
    return M


def _kernel_rows(dt, k_vals, g1, g2, order=None):
    """Generalized kernel rows of d1^a k(x, .) against all functionals.

    dt holds x - x_j by direction for a block of points, shape (c, p, n),
    or for one of its rows, shape (p, n), and k_vals, g1, g2 the radial
    profiles at the matching distances; the result has shape
    (c, n(1+p)) or (n(1+p),).  Both cases run the same elementwise
    arithmetic, so a block's row has the bits of the one-row result.
    """
    *lead, p, n = dt.shape
    b = np.empty((*lead, n * (1 + p)))
    # the derivative functionals, grouped by center, viewed by direction:
    # entry (m, j) is b's entry n + j*p + m
    deriv = b[..., n:].reshape(*lead, n, p).swapaxes(-1, -2)
    if order is None:
        b[..., :n] = k_vals
        np.multiply(-g1[..., None, :], dt, out=deriv)             # d2_m k(x, x_j)
    else:
        b[..., :n] = g1 * dt[..., order, :]                         # d1_l k(x, x_j)
        unit = np.zeros((p, 1))                                     # column l of I
        unit[order] = 1.0
        np.subtract(-g1[..., None, :] * unit,
                    g2[..., None, :] * dt[..., order : order + 1, :] * dt, out=deriv)
    return b


def _potrs(factor, b):
    """Solve against a lower Cholesky factor: cho_solve's LAPACK call without its wrapper."""
    x, info = dpotrs(factor, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


class PointBlock:
    """The surrogate at the rows of a (c, p) block; a point query is a one-row block.

    One distance-and-profile pass serves every row and every query, and
    each query works on its own row only, on first read: a value is its
    kernel row's dot product with the coefficients, a gradient or a
    derivative power builds its row's derivative vectors from the pass,
    and a power solves its own kernel row against the factor.  So a row's
    bits do not depend on the block around it, and a block of many
    trials costs a dot product only at the rows read.  Values and powers
    are kept per row; a row whose scaled kernel row is not finite raises
    ValueError when its power is asked for.
    """

    __slots__ = ("points", "dt", "k_vals", "g1", "g2", "rows", "_kernel", "_coeffs",
                 "_scale", "_factor", "_values", "_powers")

    def __init__(self, s: "Surrogate", points):
        # the block keeps what it reads of s, not s itself, so a block kept
        # past a refit keeps no Gram alive
        self._kernel, self._coeffs, self._scale, self._factor = (
            s.kernel, s._coeffs, s._scale, s._factor)
        self.points = np.asarray(points, dtype=float)
        self.dt, self.k_vals, self.g1, self.g2 = s._profiles(self.points)
        self.rows = _kernel_rows(self.dt, self.k_vals, self.g1, self.g2)
        self._values = {}     # row -> value
        self._powers = {}     # (row, order) -> power

    def _derivative_row(self, i, order):
        """Generalized kernel vector of d1_order k(x, .) at row i."""
        return _kernel_rows(self.dt[i], self.k_vals[i], self.g1[i], self.g2[i], order)

    def value(self, i) -> float:
        v = self._values.get(i)
        if v is None:
            v = self._values[i] = float(self.rows[i].dot(self._coeffs))
        return v

    def gradient(self, i) -> np.ndarray:
        return np.array([self._derivative_row(i, l) @ self._coeffs
                         for l in range(self.dt.shape[1])])

    def power(self, i, order=None) -> float:
        """Projection-residual norm at row i; see Surrogate.power.

        The quadratic form is clamped at zero before the square root since
        roundoff can push it slightly negative near centers; sqrt is
        correctly rounded, so math's gives numpy's bits.
        """
        p = self._powers.get((i, order))
        if p is None:
            if order is None:
                row, diag = self.rows[i], self._kernel.diag_value
            else:
                row, diag = self._derivative_row(i, order), self._kernel.cross_diag
            bs = row * self._scale
            # a sum with an inf or a NaN is not finite; a finite row whose
            # sum overflows passes on its entries
            if not math.isfinite(bs.sum()) and not np.isfinite(bs).all():
                raise ValueError(NOT_FINITE)
            x = _potrs(self._factor, bs)
            p = self._powers[i, order] = math.sqrt(max(diag - float(bs.dot(x)), 0.0))
        return p


@dataclass
class Surrogate:
    """Fitted interpolant plus the factorization backing the error bounds.

    norm_bound is the caller-supplied upper bound on the RKHS norm of the
    target function; value/gradient error bounds scale linearly with it.
    Immutable in practice: nothing mutates the arrays after fit.  gram is
    the unregularized Gram: rkhs_norm's quadratic form, and the base
    assemble_gram grows by one center when this surrogate is the previous
    one of a refit.

    Every query is a PointBlock's, and the surrogate keeps none: value,
    gradient and power at x each score a one-row block of their own, and
    block(points) scores many points in one pass.  A caller that reads
    several quantities at a point keeps its block.
    """

    kernel: KernelSpec
    training: TrainingSet
    norm_bound: float
    jitter_used: float
    gram: np.ndarray = field(repr=False)          # unregularized
    _factor: np.ndarray = field(repr=False)       # lower factor of scaled, jittered Gram
    _scale: np.ndarray = field(repr=False)        # Jacobi scaling D^{-1/2}
    _coeffs: np.ndarray = field(repr=False)       # [alpha; beta.ravel()]

    # -- evaluation ----------------------------------------------------

    @cached_property
    def _points_t(self) -> np.ndarray:
        """The centers as a contiguous (p, n) array, one row per direction."""
        return np.ascontiguousarray(self.training.points.T)

    def _profiles(self, points):
        """Distance pass at a PointBlock's (c, p) points: (x - x_j by direction, phi, g1, g2).

        A (p,) point gives the same arrays without the leading axis.
        """
        dt = points[..., :, None] - self._points_t       # (c, p, n)
        return (dt, *radial_profiles(self.kernel, _distances(dt.swapaxes(0, -2))))

    def block(self, points) -> PointBlock:
        """The surrogate at the rows of points, in one pass."""
        return PointBlock(self, points)

    def value(self, x) -> float:
        return self.block([x]).value(0)

    def gradient(self, x) -> np.ndarray:
        return self.block([x]).gradient(0)

    # -- error machinery -----------------------------------------------

    def power(self, x, order=None) -> float:
        """Projection-residual norm of d1^a k(x, .) onto the data subspace.

        order=None is the plain (value) case; an integer selects the unit
        derivative direction.
        """
        return self.block([x]).power(0, order)

    def error_bounds(self, x):
        """(value_bound, gradient_bound) at x, both scaled by norm_bound."""
        block = self.block([x])
        value_bound = self.norm_bound * block.power(0)
        grad_sq = sum(block.power(0, order=l) ** 2 for l in range(self.training.dim))
        return value_bound, self.norm_bound * float(np.sqrt(grad_sq))

    def rkhs_norm(self) -> float:
        """Native-space norm of the interpolant, from the unregularized Gram."""
        q = float(self._coeffs @ (self.gram @ self._coeffs))
        if q < -1e-10:
            raise NumericalError(f"negative RKHS norm quadratic form: {q:.3e}")
        return float(np.sqrt(max(q, 0.0)))


def fit(kernel: KernelSpec, training: TrainingSet, norm_bound: float,
        previous: Surrogate | None = None) -> Surrogate:
    """Solve the generalized Gram system for the interpolation coefficients.

    previous, if given, is a surrogate of the same kernel fitted to all
    of training's points but the last; assemble_gram then grows its Gram
    by that point's rows and columns, with the bits of a full assembly.
    The system is symmetrically Jacobi-scaled (value and derivative rows
    live on different scales), factorized with an escalating jitter
    ladder, and polished with two iterative-refinement sweeps.  A value,
    gradient or point that is not finite raises ValueError, as
    scipy.linalg.cho_factor and cho_solve do.
    """
    if not norm_bound > 0:
        raise ValueError(f"norm_bound must be positive, got {norm_bound}")
    if previous is not None and not (previous.kernel == kernel and np.array_equal(
            previous.training.points, training.points[:-1])):
        raise ValueError("previous must share the kernel and all points but the last")
    M = assemble_gram(kernel, training.points, None if previous is None else previous.gram)
    y = np.concatenate([training.values, training.gradients.ravel()])

    scale = 1.0 / np.sqrt(np.diag(M))
    # in place: numpy's check before reusing a large temporary costs more
    # than the product it would save
    Ms = M * scale[:, None]
    Ms *= scale[None, :]
    ys = y * scale

    def failed(jitter):
        # potrf does not check its input, and a NaN can pass it, so a
        # failed fit looks for a non-finite entry before blaming the jitter
        if not (np.isfinite(Ms).all() and np.isfinite(ys).all()):
            return ValueError(NOT_FINITE)
        return IllConditionedGramError(jitter=jitter, size=len(M))

    for jitter in JITTERS:
        # a fresh Fortran-ordered copy per attempt, which dpotrf factors in
        # place, jittered on its diagonal; adding 0.0 turns -0.0 entries
        # into +0.0, as adding jitter * identity did
        a = np.add(Ms, 0.0, order="F")
        a.flat[:: len(M) + 1] += jitter
        factor, info = dpotrf(a, lower=True, clean=False, overwrite_a=True)
        if info == 0:
            break
    else:
        raise failed(jitter)

    cs = _potrs(factor, ys)
    for _ in range(2):
        cs = cs + _potrs(factor, ys - Ms @ cs)
    coeffs = cs * scale
    if not np.all(np.isfinite(coeffs)):
        raise failed(jitter)

    return Surrogate(
        kernel=kernel,
        training=training,
        norm_bound=float(norm_bound),
        jitter_used=jitter,
        gram=M,
        _factor=factor,
        _scale=scale,
        _coeffs=coeffs,
    )


def estimate_norm(kernel: KernelSpec, problem, n_samples: int, sampler_seed: int,
                  safety: float, box) -> tuple[float, TrainingSet]:
    """Estimate the target's RKHS norm from a global interpolant.

    Fits one interpolant to n_samples seeded points in box, a finite
    (lower, upper) pair (see sampled_fit), and returns safety * its norm,
    with the samples it was fitted to, so callers can reuse the paid-for
    data.  The objective evaluations spent here are counted on the
    problem's counter; callers report them separately from optimization
    evaluations.  n_samples >= 1 and safety >= 1, as NormSource checks.
    """
    s = sampled_fit(kernel, problem, box, n_samples, sampler_seed)
    return float(safety) * s.rkhs_norm(), s.training


def sampled_fit(kernel: KernelSpec, problem, box, n_samples: int, seed: int) -> Surrogate:
    """Interpolant (norm_bound 1) of the objective at seeded uniform points in box.

    Every sample is a counted objective evaluation; the same seed gives
    the same points, and a larger n_samples extends a smaller one.
    """
    pts = uniform(seed, *box, n_samples)
    vals = np.empty(n_samples)
    grads = np.empty((n_samples, problem.dim))
    for i, x in enumerate(pts):
        vals[i], grads[i] = problem.eval(x)
    return fit(kernel, TrainingSet(pts, vals, grads), norm_bound=1.0)


def analytic_norm_1d_gaussian(eps: float) -> float:
    """Exact RKHS norm of the bundled 1D benchmark objective, Gaussian kernel.

    Derived by integrating |F(J)|^2 / F(phi) over frequency space for
    J(u) = -exp(-u^2) + 3 exp(-0.001 u^2); finite only for eps^2 > 1/2.
    """
    e2 = float(eps) ** 2
    if e2 <= 0.5:
        raise ValueError(
            f"RKHS norm divergent for this shape parameter (eps^2 = {e2:.4g} <= 1/2)"
        )
    norm_sq = e2 * (
        1.0 / np.sqrt(2.0 * e2 - 1.0)
        - 60.0 * np.sqrt(10.0) / np.sqrt(1001.0 * e2 - 1.0)
        + 9000.0 / np.sqrt(2000.0 * e2 - 1.0)
    )
    if norm_sq <= 0:
        raise NumericalError(f"nonpositive norm square {norm_sq:.3e}")
    return float(np.sqrt(norm_sq))
