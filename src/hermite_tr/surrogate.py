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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs

from .errors import (
    DuplicatePointsError,
    IllConditionedGramError,
    NumericalError,
)
from .kernels import KernelSpec, radial_profiles
from .problems import bounded_box

# Points closer than DISTINCT_TOL * (1 + ||x||) count as the same center.
DISTINCT_TOL = 1e-10
# Jitter ladder for the regularized factorization, scaled by mean(diag).
JITTERS = (0.0, 1e-14, 1e-12, 1e-10)


@dataclass(frozen=True)
class TrainingSet:
    """Pairwise-distinct points with objective values and gradients."""

    points: np.ndarray    # (n, p)
    values: np.ndarray    # (n,)
    gradients: np.ndarray  # (n, p)

    def __post_init__(self):
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
        if d[k] <= DISTINCT_TOL * (1.0 + np.linalg.norm(x)):
            return k
        return None

    def with_point(self, x, value, gradient) -> "TrainingSet":
        """New training set extended by one point (rejects near-duplicates)."""
        x = np.asarray(x, dtype=float)
        return TrainingSet(
            np.vstack([self.points, x[None, :]]),
            np.append(self.values, float(value)),
            np.vstack([self.gradients, np.asarray(gradient, dtype=float)[None, :]]),
        )


def _require_distinct(pts):
    """Raise DuplicatePointsError if the closest pair is within the threshold."""
    n = pts.shape[0]
    if n < 2:
        return
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d[np.diag_indices(n)] = np.inf
    i, j = (int(k) for k in np.unravel_index(np.argmin(d), d.shape))
    if d[i, j] <= DISTINCT_TOL * (1.0 + np.linalg.norm(pts[i])):
        raise DuplicatePointsError(i, j, float(d[i, j]))


def assemble_gram(kernel: KernelSpec, points) -> np.ndarray:
    """Generalized Gram matrix coupling value and gradient functionals.

    Block structure (i, j running over centers, l, m over directions):
      [ k(x_i, x_j)          d2_m k(x_i, x_j)      ]
      [ d1_l k(x_i, x_j)     d1_l d2_m k(x_i, x_j) ]
    Symmetric, and positive definite for a TrainingSet's pairwise-distinct points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, p = pts.shape

    diff = pts[:, None, :] - pts[None, :, :]          # (n, n, p)
    r = np.linalg.norm(diff, axis=2)
    k_vals, g1, g2 = radial_profiles(kernel, r)

    m = n * (1 + p)
    M = np.empty((m, m))
    M[:n, :n] = k_vals
    # d1_l k(x_i, x_j) = g1(r_ij) * (x_i - x_j)_l, row block (i, l), column j
    g1d = g1[:, :, None] * diff                        # (n, n, p)
    M[n:, :n] = g1d.transpose(0, 2, 1).reshape(n * p, n)
    M[:n, n:] = M[n:, :n].T
    cross = -g1[:, :, None, None] * np.eye(p) - g2[:, :, None, None] * (
        diff[:, :, :, None] * diff[:, :, None, :]
    )
    M[n:, n:] = cross.transpose(0, 2, 1, 3).reshape(n * p, n * p)
    return M


class _PointMemo:
    """Distance pass, kernel vectors and finished queries at one point."""

    __slots__ = ("key", "d", "k_vals", "g1", "g2", "vectors", "value", "gradient", "power")

    def __init__(self, key, d, k_vals, g1, g2):
        self.key, self.d, self.k_vals, self.g1, self.g2 = key, d, k_vals, g1, g2
        self.vectors = {}     # order -> generalized kernel vector
        self.value = None
        self.gradient = None
        self.power = {}       # order -> power function value


@dataclass
class Surrogate:
    """Fitted interpolant plus the factorization backing the error bounds.

    norm_bound is the caller-supplied upper bound on the RKHS norm of the
    target function; value/gradient error bounds scale linearly with it.
    Immutable in practice: nothing mutates the arrays after fit.

    value, gradient and power at the same x share one distance-and-profile
    pass: a memo of the most recently queried point keeps its distances,
    radial profiles, kernel vectors and finished results.  The memo is
    keyed by the exact float64 bytes of x (no tolerance), holds one point,
    stores nothing scaled by norm_bound, and is not an init field, so
    dataclasses.replace starts with an empty one.
    """

    kernel: KernelSpec
    training: TrainingSet
    norm_bound: float
    jitter_used: float
    gram: np.ndarray = field(repr=False)          # unregularized
    _cho: tuple = field(repr=False)               # factor of scaled, jittered Gram
    _scale: np.ndarray = field(repr=False)        # Jacobi scaling D^{-1/2}
    _coeffs: np.ndarray = field(repr=False)       # [alpha; beta.ravel()]
    _memo: _PointMemo | None = field(default=None, init=False, repr=False, compare=False)

    # -- evaluation ----------------------------------------------------

    def _memo_at(self, x) -> _PointMemo:
        """Memo of x, after one distance-and-profile pass if x is new."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        memo = self._memo
        if memo is None or memo.key != key:
            d = x[None, :] - self.training.points          # (n, p): x - x_j
            r = np.linalg.norm(d, axis=1)
            memo = self._memo = _PointMemo(key, d, *radial_profiles(self.kernel, r))
        return memo

    def _eval_vector(self, memo: _PointMemo, order=None):
        """Generalized kernel vector of d1^a k(x, .) against all functionals."""
        b = memo.vectors.get(order)
        if b is not None:
            return b
        n, p = memo.d.shape
        d, g1, g2 = memo.d, memo.g1, memo.g2
        b = np.empty(n * (1 + p))
        if order is None:
            b[:n] = memo.k_vals
            b[n:] = (-g1[:, None] * d).ravel()          # d2_m k(x, x_j)
        else:
            b[:n] = g1 * d[:, order]                    # d1_l k(x, x_j)
            row = -g1[:, None] * np.eye(p)[order] - g2[:, None] * d[:, order : order + 1] * d
            b[n:] = row.ravel()
        memo.vectors[order] = b
        return b

    def value(self, x) -> float:
        memo = self._memo_at(x)
        if memo.value is None:
            memo.value = float(self._eval_vector(memo) @ self._coeffs)
        return memo.value

    def gradient(self, x) -> np.ndarray:
        memo = self._memo_at(x)
        if memo.gradient is None:
            memo.gradient = np.array(
                [self._eval_vector(memo, order=l) @ self._coeffs
                 for l in range(self.training.dim)]
            )
        return memo.gradient.copy()

    # -- error machinery -----------------------------------------------

    def power(self, x, order=None) -> float:
        """Projection-residual norm of d1^a k(x, .) onto the data subspace.

        order=None is the plain (value) case; an integer selects the unit
        derivative direction.  The quadratic form is clamped at zero
        before the square root since roundoff can push it slightly
        negative near centers.
        """
        memo = self._memo_at(x)
        if order not in memo.power:
            b = self._eval_vector(memo, order=order)
            diag = self.kernel.diag_value if order is None else self.kernel.cross_diag
            bs = b * self._scale
            # cho_solve's LAPACK call without its wrapper's overhead
            if not np.all(np.isfinite(bs)):
                raise ValueError("array must not contain infs or NaNs")
            factor, lower = self._cho
            solved, info = dpotrs(factor, bs, lower=lower)
            if info != 0:
                raise ValueError(f"illegal value in {-info}th argument of internal potrs")
            q = diag - float(bs @ solved)
            memo.power[order] = float(np.sqrt(max(q, 0.0)))
        return memo.power[order]

    def error_bounds(self, x):
        """(value_bound, gradient_bound) at x, both scaled by norm_bound."""
        p = self.training.dim
        value_bound = self.norm_bound * self.power(x)
        grad_sq = sum(self.power(x, order=l) ** 2 for l in range(p))
        return value_bound, self.norm_bound * float(np.sqrt(grad_sq))

    def rkhs_norm(self) -> float:
        """Native-space norm of the interpolant, from the unregularized Gram."""
        q = float(self._coeffs @ (self.gram @ self._coeffs))
        if q < -1e-10:
            raise NumericalError(f"negative RKHS norm quadratic form: {q:.3e}")
        return float(np.sqrt(max(q, 0.0)))


def fit(kernel: KernelSpec, training: TrainingSet, norm_bound: float) -> Surrogate:
    """Solve the generalized Gram system for the interpolation coefficients.

    The system is symmetrically Jacobi-scaled (value and derivative rows
    live on different scales), factorized with an escalating jitter
    ladder, and polished with two iterative-refinement sweeps.
    """
    if not norm_bound > 0:
        raise ValueError(f"norm_bound must be positive, got {norm_bound}")
    M = assemble_gram(kernel, training.points)
    y = np.concatenate([training.values, training.gradients.ravel()])

    scale = 1.0 / np.sqrt(np.diag(M))
    Ms = M * scale[:, None] * scale[None, :]
    eye = np.eye(len(M))
    cho = None
    jitter_used = JITTERS[-1]
    for jitter in JITTERS:
        try:
            cho = cho_factor(Ms + jitter * eye, lower=True)
            jitter_used = jitter
            break
        except np.linalg.LinAlgError:
            continue
    if cho is None:
        raise IllConditionedGramError(jitter=JITTERS[-1], size=len(M))

    ys = y * scale
    cs = cho_solve(cho, ys)
    for _ in range(2):
        cs = cs + cho_solve(cho, ys - Ms @ cs)
    coeffs = cs * scale
    if not np.all(np.isfinite(coeffs)):
        raise IllConditionedGramError(jitter=jitter_used, size=len(M))

    return Surrogate(
        kernel=kernel,
        training=training,
        norm_bound=float(norm_bound),
        jitter_used=jitter_used,
        gram=M,
        _cho=cho,
        _scale=scale,
        _coeffs=coeffs,
    )


def estimate_norm(kernel: KernelSpec, problem, n_samples: int, sampler_seed: int,
                  safety: float, box) -> float:
    """Estimate the target's RKHS norm from a global interpolant.

    Fits one interpolant to n_samples seeded points in the problem box
    (see sampled_fit) and returns safety * its norm.  The objective
    evaluations spent here are counted on the problem's counter; callers
    report them separately from optimization evaluations.  A box other
    than None overrides the sampling region, e.g. for problems without
    bounds.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if safety < 1.0:
        raise ValueError("safety factor must be >= 1")
    s = sampled_fit(kernel, problem, bounded_box(problem, box), n_samples, sampler_seed)
    return float(safety) * s.rkhs_norm()


def sampled_fit(kernel: KernelSpec, problem, box, n_samples: int, seed: int) -> Surrogate:
    """Interpolant (norm_bound 1) of the objective at seeded uniform points in box.

    Every sample is a counted objective evaluation; the same seed gives
    the same points, and a larger n_samples extends a smaller one.
    """
    lower, upper = box
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lower, upper, size=(n_samples, problem.dim))
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
