"""Interpolation, power function, and error-bound machinery.

The error-bound tests build synthetic targets inside the kernel's native
space (finite kernel expansions) whose norms are exactly computable from
the plain Gram quadratic form, so bound containment is checked against an
exact oracle rather than another approximation.
"""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_solve

from hermite_tr import surrogate
from hermite_tr.errors import DuplicatePointsError
from hermite_tr.kernels import make_kernel
from hermite_tr.surrogate import TrainingSet, assemble_gram, estimate_norm, fit

from conftest import kernel_for
from oracles import grad1, value


def synthetic_member(kernel, centers, coeffs):
    """f = sum_j c_j k(z_j, .) with exactly known native-space norm."""
    centers = np.atleast_2d(centers)
    coeffs = np.asarray(coeffs, dtype=float)
    gram = np.array([[value(kernel, a, b) for b in centers] for a in centers])
    norm = float(np.sqrt(coeffs @ gram @ coeffs))

    def f(x):
        return float(sum(c * value(kernel, z, x) for c, z in zip(coeffs, centers)))

    def df(x):
        # grad in x of k(z, x) is the gradient in the second argument
        return sum(-c * grad1(kernel, z, x) for c, z in zip(coeffs, centers))

    return f, df, norm


class TestGram:
    def test_single_center_gaussian(self):
        k = make_kernel("gaussian", 1.0, 1)
        M = assemble_gram(k, np.array([[0.4]]))
        np.testing.assert_allclose(M, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_exact_transpose(self, family, rng):
        k = kernel_for(family, 2)
        pts = rng.uniform(-2, 2, (4, 2))
        M = assemble_gram(k, pts)
        assert np.array_equal(M, M.T)

    def test_positive_definite(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        pts = rng.uniform(-2, 2, (3, 2))
        M = assemble_gram(k, pts)
        assert np.linalg.eigvalsh(M).min() > 0

    def test_duplicate_points_named(self):
        pts = np.array([[0.0], [1.0], [0.0]])
        with pytest.raises(DuplicatePointsError) as err:
            TrainingSet(pts, np.zeros(3), np.zeros((3, 1)))
        assert set(err.value.indices) == {0, 2}


class TestTrainingSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((2, 1)), np.zeros(3), np.zeros((2, 1)))

    def test_duplicate_rejection(self):
        with pytest.raises(DuplicatePointsError):
            TrainingSet(np.array([[0.0], [1e-12]]), np.zeros(2), np.zeros((2, 1)))

    def test_find_close_and_extend(self):
        ts = TrainingSet(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]), np.zeros((2, 1)))
        assert ts.find_close(np.array([1.0 + 1e-12])) == 1
        assert ts.find_close(np.array([0.5])) is None
        ts2 = ts.with_point(np.array([0.5]), 3.0, np.array([0.1]))
        assert ts2.n == 3 and ts.n == 2


class TestFitAndEvaluate:
    def test_single_point_interpolation(self, family):
        k = kernel_for(family, 2)
        ts = TrainingSet(np.array([[0.2, -0.3]]), np.array([4.5]), np.zeros((1, 2)))
        s = fit(k, ts, norm_bound=1.0)
        val, grad = s.value(np.array([0.2, -0.3])), s.gradient(np.array([0.2, -0.3]))
        assert val == pytest.approx(4.5, abs=1e-10)
        np.testing.assert_allclose(grad, 0.0, atol=1e-8)

    def test_reproduces_native_space_element(self, rng):
        # training data from f = k(z, .) with z among the centers: the
        # minimal-norm interpolant is f itself
        k = make_kernel("gaussian", 1.0, 1)
        pts = np.array([[-1.0], [0.0], [1.5]])
        z = pts[1]
        vals = np.array([value(k, z, p) for p in pts])
        grads = np.array([-grad1(k, z, p) for p in pts])
        s = fit(k, TrainingSet(pts, vals, grads), norm_bound=1.0)
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            assert s.value(x) == pytest.approx(value(k, z, x), abs=1e-8)

    def test_sin_interpolation_exactness(self, rng):
        k = make_kernel("gaussian", 1.0, 1)
        pts = np.sort(rng.uniform(-2, 2, 5))[:, None]
        vals = np.sin(pts[:, 0])
        grads = np.cos(pts)
        s = fit(k, TrainingSet(pts, vals, grads), norm_bound=2.0)
        for p, v in zip(pts, vals):
            assert abs(s.value(p) - v) <= 1e-8 * (1.0 + abs(v))

    def test_exactness_invariant_randomized(self, family, rng):
        k = kernel_for(family, 2)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            pts = rng.uniform(-2, 2, (n, 2))
            vals = rng.normal(size=n)
            grads = rng.normal(size=(n, 2))
            try:
                ts = TrainingSet(pts, vals, grads)
            except DuplicatePointsError:
                continue
            s = fit(k, ts, norm_bound=1.0)
            for i in range(n):
                v, g = s.value(pts[i]), s.gradient(pts[i])
                assert abs(v - vals[i]) <= 1e-8 * (1.0 + abs(vals[i]))
                assert np.linalg.norm(g - grads[i]) <= 1e-6 * (1.0 + np.linalg.norm(grads[i]))

    def test_gradient_matches_finite_differences(self, rng):
        k = make_kernel("quad_matern", 0.8, 2)
        pts = rng.uniform(-2, 2, (5, 2))
        s = fit(k, TrainingSet(pts, rng.normal(size=5), rng.normal(size=(5, 2))), 1.0)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            g = s.gradient(x)
            g_fd = np.array([
                (s.value(x + np.array([h, 0])) - s.value(x - np.array([h, 0]))) / (2 * h),
                (s.value(x + np.array([0, h])) - s.value(x - np.array([0, h]))) / (2 * h),
            ])
            assert np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g)) <= 1e-5

    def test_zero_data_zero_surrogate(self, rng):
        k = make_kernel("wendland2", 0.7, 2)
        pts = rng.uniform(-1, 1, (4, 2))
        s = fit(k, TrainingSet(pts, np.zeros(4), np.zeros((4, 2))), norm_bound=1.0)
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            v, g = s.value(x), s.gradient(x)
            assert abs(v) < 1e-12 and np.linalg.norm(g) < 1e-12

    def test_factorization_failure_error_contract(self, monkeypatch, rng):
        import hermite_tr.surrogate as sur
        from hermite_tr.errors import IllConditionedGramError

        def always_fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(sur, "cho_factor", always_fail)
        k = make_kernel("gaussian", 1.0, 1)
        ts = TrainingSet(np.array([[0.0], [1.0]]), np.zeros(2), np.zeros((2, 1)))
        with pytest.raises(IllConditionedGramError) as err:
            fit(k, ts, norm_bound=1.0)
        assert err.value.jitter == 1e-10
        assert err.value.size == 4


class TestPowerFunction:
    def test_vanishes_at_centers(self, family, rng):
        k = kernel_for(family, 2)
        pts = rng.uniform(-2, 2, (5, 2))
        s = fit(k, TrainingSet(pts, rng.normal(size=5), rng.normal(size=(5, 2))), 1.0)
        for p in pts:
            assert s.power(p) <= 1e-6 * np.sqrt(k.diag_value)

    def test_bounded_by_diagonal(self, family, rng):
        k = kernel_for(family, 2)
        pts = rng.uniform(-2, 2, (4, 2))
        s = fit(k, TrainingSet(pts, rng.normal(size=4), rng.normal(size=(4, 2))), 1.0)
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            p = s.power(x)
            assert 0.0 <= p <= np.sqrt(k.diag_value) + 1e-12

    def test_projection_residual_oracle(self, rng):
        # power from the quadratic form vs the norm of k(x,.) - (its
        # interpolant), computed by explicitly fitting f = k(x,.) and
        # using ||f - Pi f||^2 = k(x,x) - ||Pi f||^2
        k = make_kernel("gaussian", 1.0, 2)
        pts = rng.uniform(-2, 2, (4, 2))
        s = fit(k, TrainingSet(pts, rng.normal(size=4), rng.normal(size=(4, 2))), 1.0)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            vals = np.array([value(k, x, p) for p in pts])
            grads = np.array([-grad1(k, x, p) for p in pts])
            proj = fit(k, TrainingSet(pts, vals, grads), norm_bound=1.0)
            residual_sq = value(k, x, x) - proj.rkhs_norm() ** 2
            oracle = np.sqrt(max(residual_sq, 0.0))
            assert s.power(x) == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_same_bits_as_cho_solve(self, monkeypatch, rng):
        # power calls LAPACK's potrs directly; cho_solve wraps the same call
        k = make_kernel("gaussian", 1.0, 2)
        queries = rng.uniform(-2.5, 2.5, (30, 2))
        for n in (2, 10, 60):                  # Gram sizes 6, 30 and 180
            pts = rng.uniform(-2, 2, (n, 2))
            s = fit(k, TrainingSet(pts, rng.normal(size=n), rng.normal(size=(n, 2))), 1.0)
            direct = [s.power(x, order=o) for x in queries for o in (None, 0, 1)]
            with monkeypatch.context() as m:
                # the call power made before: cho_solve on the stored factor
                m.setattr(surrogate, "dpotrs", lambda c, b, lower: (cho_solve(s._cho, b), 0))
                fresh = dataclasses.replace(s)      # starts with an empty memo
                wrapped = [fresh.power(x, order=o) for x in queries for o in (None, 0, 1)]
            assert np.array(direct).tobytes() == np.array(wrapped).tobytes()

    def test_non_finite_point_rejected(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        pts = rng.uniform(-2, 2, (3, 2))
        s = fit(k, TrainingSet(pts, rng.normal(size=3), rng.normal(size=(3, 2))), 1.0)
        for x in ([np.nan, 0.0], [np.inf, 0.0]):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
                s.power(np.array(x))

    def test_monotone_under_center_addition(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        pts = rng.uniform(-2, 2, (4, 2))
        vals = rng.normal(size=4)
        grads = rng.normal(size=(4, 2))
        s_small = fit(k, TrainingSet(pts[:3], vals[:3], grads[:3]), 1.0)
        s_big = fit(k, TrainingSet(pts, vals, grads), 1.0)
        probes = rng.uniform(-2.5, 2.5, (100, 2))
        for x in probes:
            assert s_big.power(x) <= s_small.power(x) + 1e-9


def _query(s, x, what):
    """One surrogate query as raw bytes: "value", "gradient" or a power order."""
    if what == "value":
        result = s.value(x)
    elif what == "gradient":
        result = s.gradient(x)
    else:
        result = s.power(x, order=what[1])
    return np.asarray(result).tobytes()


QUERIES = ("value", "gradient", ("power", None), ("power", 0), ("power", 1))


class TestPointMemo:
    """The per-point memo only ever returns what a fresh surrogate computes."""

    @staticmethod
    def _setup(family, rng):
        k = kernel_for(family, 2)
        pts = rng.uniform(-1.5, 1.5, (5, 2))
        ts = TrainingSet(pts, rng.normal(size=5), rng.normal(size=(5, 2)))
        return k, ts, rng.uniform(-2, 2, (3, 2))

    def test_interleaved_queries_match_fresh_twin(self, family, rng):
        k, ts, (x1, x2, x3) = self._setup(family, rng)
        s = fit(k, ts, norm_bound=3.0)
        sequence = (
            [(x1, q) for q in QUERIES]
            + [(x2, q) for q in reversed(QUERIES)]
            + [(x1, q) for q in reversed(QUERIES)]
            + [(x1.copy(), "value"), (list(x1), "gradient")]
            + [(np.nextafter(x1, np.inf), q) for q in QUERIES]
            + [(x3, ("power", None)), (x3, "value"), (x3, ("power", 1)), (x3, "gradient")]
            + [(x2, "value"), (x1, "value"), (x2, ("power", None))]
        )
        for x, what in sequence:
            twin = fit(k, ts, norm_bound=3.0)
            assert _query(s, x, what) == _query(twin, x, what), (x, what)

    def test_returned_gradient_is_a_copy(self, rng):
        k, ts, (x1, _, _) = self._setup("gaussian", rng)
        s = fit(k, ts, norm_bound=1.0)
        g = s.gradient(x1)
        g[:] = 0.0
        assert _query(s, x1, "gradient") == _query(fit(k, ts, 1.0), x1, "gradient")

    def test_refit_and_replace_never_share_cached_numbers(self, family, rng):
        k, ts, (x1, x2, _) = self._setup(family, rng)
        s = fit(k, ts, norm_bound=1.0)
        for what in QUERIES:
            _query(s, x1, what)

        # a refit on more data answers from its own fit
        bigger = ts.with_point(x2, 0.5, np.array([0.1, -0.2]))
        refit = fit(k, bigger, norm_bound=1.0)
        for what in QUERIES:
            assert _query(refit, x1, what) == _query(fit(k, bigger, 1.0), x1, what)

        # replace starts with an empty memo: negated coefficients negate
        # value and gradient exactly, the power is unchanged, and the new
        # norm_bound scales the error bound
        other = dataclasses.replace(s, norm_bound=7.0, _coeffs=-s._coeffs)
        assert other.value(x1) == -s.value(x1)
        assert np.array_equal(other.gradient(x1), -s.gradient(x1))
        for what in QUERIES[2:]:
            assert _query(other, x1, what) == _query(s, x1, what)
        assert other.error_bounds(x1)[0] == 7.0 * s.power(x1)


class TestErrorBounds:
    def test_bound_vanishes_at_centers(self, rng):
        k = make_kernel("quad_matern", 0.7, 2)
        pts = rng.uniform(-1, 1, (4, 2))
        s = fit(k, TrainingSet(pts, rng.normal(size=4), rng.normal(size=(4, 2))), 7.0)
        vb, _ = s.error_bounds(pts[2])
        assert vb <= 1e-6 * 7.0

    def test_containment_on_exact_norm_member(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        zs = rng.uniform(-1.5, 1.5, (5, 2))
        cs = rng.normal(size=5)
        f, df, norm = synthetic_member(k, zs, cs)
        train_pts = zs[:3]
        ts = TrainingSet(
            train_pts,
            np.array([f(p) for p in train_pts]),
            np.array([df(p) for p in train_pts]),
        )
        s = fit(k, ts, norm_bound=norm)
        for _ in range(200):
            x = rng.uniform(-2, 2, 2)
            value_bound, gradient_bound = s.error_bounds(x)
            assert abs(f(x) - s.value(x)) <= value_bound * (1.0 + 1e-9) + 1e-12
            assert np.linalg.norm(df(x) - s.gradient(x)) <= gradient_bound * (1.0 + 1e-9) + 1e-12


class TestRkhsNorm:
    def test_single_translate_unit_norm(self):
        k = make_kernel("gaussian", 1.0, 1)
        z = np.array([0.3])
        ts = TrainingSet(z[None, :], np.array([value(k, z, z)]), np.zeros((1, 1)))
        s = fit(k, ts, norm_bound=1.0)
        assert s.rkhs_norm() == pytest.approx(1.0, abs=1e-8)

    def test_zero_data(self):
        k = make_kernel("gaussian", 1.0, 1)
        ts = TrainingSet(np.array([[0.0]]), np.zeros(1), np.zeros((1, 1)))
        assert fit(k, ts, 1.0).rkhs_norm() == 0.0

    def test_nested_monotone(self, rng):
        k = make_kernel("gaussian", 1.0, 1)
        pts = np.linspace(-2, 2, 6)[:, None]
        vals = np.sin(pts[:, 0])
        grads = np.cos(pts)
        small = fit(k, TrainingSet(pts[:4], vals[:4], grads[:4]), 1.0)
        big = fit(k, TrainingSet(pts, vals, grads), 1.0)
        assert small.rkhs_norm() <= big.rkhs_norm() + 1e-10

    def test_translate_norm_consistency(self, family, rng):
        # interpolating data of a single kernel translate recovers norm
        # sqrt(k(z,z)) once the translate is in the fitted span
        k = kernel_for(family, 2)
        z = np.array([0.1, -0.4])
        ts = TrainingSet(
            z[None, :], np.array([value(k, z, z)]), np.array([grad1(k, z, z)])
        )
        s = fit(k, ts, 1.0)
        assert s.rkhs_norm() == pytest.approx(np.sqrt(k.diag_value), rel=1e-8)


class _CountingObjective:
    """What estimate_norm reads of a Problem: name, dim, box, counted eval.

    A kernel expansion can take values <= 0, which Problem rejects.
    """

    name = "expansion"

    def __init__(self, f, df, dim):
        self.f, self.df, self.dim = f, df, dim
        self.lower, self.upper = np.full(dim, -2.0), np.full(dim, 2.0)
        self.counter = 0

    def eval(self, x):
        self.counter += 1
        return self.f(x), self.df(x)


def _expansion_problem(kernel, zs, cs):
    f, df, norm = synthetic_member(kernel, zs, cs)
    return _CountingObjective(f, df, zs.shape[1]), norm


class TestEstimateNorm:
    def test_recovers_expansion_norm(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        zs = rng.uniform(-1.5, 1.5, (5, 2))
        cs = rng.normal(size=5)
        problem, exact = _expansion_problem(k, zs, cs)
        est = estimate_norm(k, problem, n_samples=40, sampler_seed=5, safety=1.0, box=None)
        assert est == pytest.approx(exact, rel=0.05)
        assert problem.counter == 40

    def test_nested_sample_monotonicity(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        zs = rng.uniform(-1, 1, (4, 2))
        problem, _ = _expansion_problem(k, zs, rng.normal(size=4))
        estimates = [
            estimate_norm(k, problem, n_samples=n, sampler_seed=17, safety=1.0, box=None)
            for n in (5, 10, 20, 40)
        ]
        for a, b in zip(estimates, estimates[1:]):
            assert a <= b + 1e-10

    def test_safety_scales_linearly(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        zs = rng.uniform(-1, 1, (3, 2))
        problem, _ = _expansion_problem(k, zs, rng.normal(size=3))
        base = estimate_norm(k, problem, n_samples=10, sampler_seed=3, safety=1.0, box=None)
        doubled = estimate_norm(k, problem, n_samples=10, sampler_seed=3, safety=2.0, box=None)
        assert doubled == 2.0 * base
