"""Interpolation, power function, and error-bound machinery.

The error-bound tests build synthetic targets inside the kernel's native
space (finite kernel expansions) whose norms are exactly computable from
the plain Gram quadratic form, so bound containment is checked against an
exact oracle rather than another approximation.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from hermite_tr import surrogate
from hermite_tr.errors import DuplicatePointsError
from hermite_tr.kernels import make_kernel
from hermite_tr.surrogate import TrainingSet, assemble_gram, coincide, estimate_norm, fit

from conftest import kernel_for
from oracles import cross_hessian, grad1, value


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


# np.linalg.norm sums the squares pairwise from eight directions on
DIMS = (1, 2, 3, 5, 7, 8, 9, 16)


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

    @pytest.mark.parametrize("dim", DIMS)
    def test_grown_equals_assembled(self, family, dim, rng, monkeypatch):
        # grown from the Gram of its first points, a Gram evaluates only
        # the other centers' rows and columns and has the full assembly's
        # bits at every split and dimension, signed zeros included:
        # rounding every other point makes many differences zero
        k = kernel_for(family, dim)
        evaluated, profiles = [], surrogate.radial_profiles
        monkeypatch.setattr(surrogate, "radial_profiles",
                            lambda kernel, r: evaluated.append(r.size) or profiles(kernel, r))
        for n in (1, 2, 7, 30):
            pts = rng.uniform(-1, 1, (n + 1, dim)) / np.sqrt(dim)
            pts[::2] = np.round(pts[::2] * 4) / 4
            full = assemble_gram(k, pts).tobytes()
            for split in range(1, n + 1):
                base = assemble_gram(k, pts[:split])
                evaluated.clear()
                assert assemble_gram(k, pts, base).tobytes() == full, split
                assert evaluated == [(n + 1 - split) * (n + 1)]

    @pytest.mark.parametrize("dim", (1, 2, 3, 8, 16))
    @pytest.mark.parametrize("split", [None, 3])
    def test_entries_match_the_pointwise_oracles(self, family, dim, split, rng):
        # each block against the one-pair oracles: k, d1 k in both
        # off-diagonal blocks (d2_m k(x_i, x_j) = d1_m k(x_j, x_i)) and the
        # cross Hessian, assembled at once or grown from the first 3 points
        k = kernel_for(family, dim)
        n = 5
        pts = rng.uniform(-1, 1, (n, dim)) / np.sqrt(dim)
        base = None if split is None else assemble_gram(k, pts[:split])
        M = assemble_gram(k, pts, base)
        oracle = np.empty_like(M)
        for i in range(n):
            di = slice(n + i * dim, n + (i + 1) * dim)
            for j in range(n):
                dj = slice(n + j * dim, n + (j + 1) * dim)
                oracle[i, j] = value(k, pts[i], pts[j])
                oracle[di, j] = grad1(k, pts[i], pts[j])
                oracle[i, dj] = grad1(k, pts[j], pts[i])
                oracle[di, dj] = cross_hessian(k, pts[i], pts[j])
        np.testing.assert_allclose(M, oracle, rtol=0, atol=1e-13 * np.abs(M).max())

    @pytest.mark.parametrize("dim", DIMS)
    def test_kernel_rows_at_centers_are_gram_rows(self, family, dim, rng):
        # evaluation and assembly share one distance routine, so the kernel
        # row the surrogate evaluates at a center is that center's Gram row
        # (a mirrored derivative entry may differ in the sign of a zero)
        k = kernel_for(family, dim)
        pts = rng.uniform(-1, 1, (6, dim)) / np.sqrt(dim)
        s = fit(k, TrainingSet(pts, rng.normal(size=6), rng.normal(size=(6, dim))), 1.0)
        assert np.array_equal(s.block(pts).rows, s.gram[:6])

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

    def test_coincide_is_the_one_distinctness_rule(self, monkeypatch):
        x = np.array([3.0, 4.0])                    # threshold 1e-10 * (1 + 5)
        assert coincide(5.9e-10, x) and not coincide(6.1e-10, x)
        # an infinite distance is no duplicate, however large x's threshold
        assert not coincide(np.inf, np.array([np.inf, 0.0]))
        # the pairwise check and find_close both ask it
        asked = []
        monkeypatch.setattr(surrogate, "coincide",
                            lambda dist, x: asked.append(float(dist)) or coincide(dist, x))
        ts = TrainingSet(np.array([[0.0], [1.0]]), np.zeros(2), np.zeros((2, 1)))
        assert ts.find_close(np.array([1.0])) == 1
        assert asked == [1.0, 0.0]

    def test_with_point_checks_only_the_new_point(self, monkeypatch):
        ts = TrainingSet(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]), np.zeros((2, 1)))
        with pytest.raises(DuplicatePointsError) as err:
            ts.with_point(np.array([1.0 + 1e-12]), 3.0, np.zeros(1))
        assert err.value.indices == (1, 2)
        pair_checks = []
        monkeypatch.setattr(surrogate, "_require_distinct",
                            lambda pts: pair_checks.append(len(pts)))
        ts3 = ts.with_point(np.array([0.5]), 3.0, np.array([0.1]))
        assert pair_checks == []
        np.testing.assert_array_equal(ts3.points[:, 0], [0.0, 1.0, 0.5])
        # a training set built directly still checks every pair
        TrainingSet(ts3.points, ts3.values, ts3.gradients)
        assert pair_checks == [3]


class TestFitAndEvaluate:
    @pytest.mark.parametrize("spacing", [0.5, 1e-2, 1e-3])
    def test_factor_has_the_bits_of_the_jittered_copy(self, spacing):
        # fit jitters the diagonal of one copy of the scaled Gram in place;
        # its factor equals that of the scaled Gram plus jitter * identity
        k = make_kernel("gaussian", 1.0, 1)
        pts = np.arange(8)[:, None] * spacing
        s = fit(k, TrainingSet(pts, np.sin(pts[:, 0]), np.cos(pts)), norm_bound=1.0)
        M = assemble_gram(k, pts)
        Ms = M * s._scale[:, None] * s._scale[None, :]
        factor, _ = cho_factor(Ms + s.jitter_used * np.eye(len(M)), lower=True)
        assert s._cho[0].tobytes() == factor.tobytes()
        if spacing < 0.1:
            assert s.jitter_used > 0

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

        def always_fail(a, **kwargs):
            return a, 1       # potrf: the first leading minor is not positive definite

        monkeypatch.setattr(sur, "dpotrf", always_fail)
        k = make_kernel("gaussian", 1.0, 1)
        ts = TrainingSet(np.array([[0.0], [1.0]]), np.zeros(2), np.zeros((2, 1)))
        with pytest.raises(IllConditionedGramError) as err:
            fit(k, ts, norm_bound=1.0)
        assert err.value.jitter == 1e-10
        assert err.value.size == 4


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["value", "gradient", "point"])
    def test_non_finite_data_error_contract(self, where, bad, rng):
        # a non-finite value, gradient or point raises the ValueError that
        # scipy's cho_factor and cho_solve raise for a non-finite input;
        # an infinite coordinate of the first of two points makes every
        # distance and the first point's threshold infinite: no duplicate
        k = make_kernel("gaussian", 1.0, 2)
        for n, row in ((4, -1), (2, 0)):
            data = {"point": rng.uniform(-2, 2, (n, 2)), "value": rng.normal(size=n),
                    "gradient": rng.normal(size=(n, 2))}
            data[where][(row,) + (-1,) * (data[where].ndim - 1)] = bad
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
                fit(k, TrainingSet(data["point"], data["value"], data["gradient"]), 1.0)


class TestGrowth:
    """A refit grown from the previous surrogate is the fresh fit, bit for bit."""

    @staticmethod
    def _grown(kernel, ts, start):
        """ts's fit, grown one point at a time from the fit of its first start points."""
        s = fit(kernel, TrainingSet(ts.points[:start], ts.values[:start],
                                    ts.gradients[:start]), 2.0)
        for i in range(start, ts.n):
            s = fit(kernel, s.training.with_point(ts.points[i], ts.values[i], ts.gradients[i]),
                    2.0, previous=s)
        return s

    @pytest.mark.parametrize("jittered", [False, True])
    def test_grown_fit_is_the_fresh_fit(self, family, jittered, rng):
        if jittered:
            # centers this close need jitter at every family
            k = kernel_for(family, 1, shape=1.0)
            pts = np.arange(8)[:, None] * 1e-4
        else:
            k = kernel_for(family, 2)
            pts = rng.uniform(-1.5, 1.5, (8, 2))
        ts = TrainingSet(pts, np.sin(pts.sum(axis=1)), np.cos(pts))
        grown, fresh = self._grown(k, ts, 3), fit(k, ts, 2.0)
        assert (fresh.jitter_used > 0) == jittered
        assert grown.jitter_used == fresh.jitter_used
        for name in ("gram", "_scale", "_coeffs"):
            assert getattr(grown, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert grown._cho[0].tobytes() == fresh._cho[0].tobytes()
        lo, hi = pts.min() - 0.5, pts.max() + 0.5
        queries = ["value", "gradient", *(("power", o) for o in (None, *range(ts.dim)))]
        for x in np.vstack([pts, rng.uniform(lo, hi, (10, ts.dim))]):
            for what in queries:
                assert _query(grown, x, what) == _query(fresh, x, what)

    def test_previous_must_hold_all_points_but_the_last(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        pts = rng.uniform(-1, 1, (4, 2))
        ts = TrainingSet(pts, rng.normal(size=4), rng.normal(size=(4, 2)))
        first3 = TrainingSet(pts[:3], ts.values[:3], ts.gradients[:3])
        last3 = TrainingSet(pts[1:], ts.values[1:], ts.gradients[1:])
        for previous in (fit(k, last3, 1.0), fit(k, ts, 1.0),
                         fit(make_kernel("gaussian", 0.5, 2), first3, 1.0)):
            with pytest.raises(ValueError, match="previous"):
                fit(k, ts, 1.0, previous=previous)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["value", "gradient", "point"])
    def test_non_finite_new_datum_error_contract(self, where, bad, rng):
        # the new datum joins as a whole set or as a refit adds it; an
        # infinite coordinate is infinitely far from every center, no
        # duplicate of one
        k = make_kernel("gaussian", 1.0, 2)
        data = {"point": rng.uniform(-2, 2, (4, 2)), "value": rng.normal(size=4),
                "gradient": rng.normal(size=(4, 2))}
        data[where][(-1,) * data[where].ndim] = bad
        with np.errstate(invalid="ignore"):
            ts = TrainingSet(data["point"], data["value"], data["gradient"])
            first3 = TrainingSet(ts.points[:3], ts.values[:3], ts.gradients[:3])
            previous = fit(k, first3, 1.0)
            assert first3.find_close(ts.points[3]) is None
            added = first3.with_point(ts.points[3], ts.values[3], ts.gradients[3])
            for grown in (ts, added):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    fit(k, grown, 1.0, previous=previous)


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


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestPointBlock:
    """A block of points scores with the bits of one-point queries on a fresh twin."""

    @staticmethod
    def _surrogate(family, dim, rng, n=7, shape=0.9):
        k = kernel_for(family, dim, shape)
        pts = rng.uniform(-1.5, 1.5, (n, dim))
        ts = TrainingSet(pts, rng.normal(size=n) + 4.0, rng.normal(size=(n, dim)))
        return fit(k, ts, norm_bound=2.0)

    @staticmethod
    def _awkward_points(s, rng, count=20):
        """Random points, the centers themselves, points on and beside the
        Wendland support edge and a repeated point."""
        pts, dim = s.training.points, s.training.dim
        edge = pts[0] + np.eye(dim)[0] / s.kernel.shape           # r = 1/shape
        return np.vstack([
            rng.uniform(-2.5, 2.5, (count, dim)),
            pts,
            edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
            pts[1], pts[1],
        ])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_values_and_powers_match_one_point_queries(self, family, dim, rng):
        s = self._surrogate(family, dim, rng)
        points = self._awkward_points(s, rng)
        block = s.block(points)
        assert len(block) == len(points)
        for i, x in enumerate(points):
            twin = dataclasses.replace(s)       # starts with an empty memo
            assert _bits(block.values[i]) == _bits(twin.value(x)), (i, x)
            assert _bits(block.power(i)) == _bits(twin.power(x)), (i, x)
        # on a center the quadratic form is zero up to rounding, of either
        # sign; both paths clamp the negative ones to a power of 0
        at_centers = [block.power(20 + i) for i in range(len(s.training.points))]
        assert 0.0 in at_centers and max(at_centers) < 1e-5

    @pytest.mark.parametrize("size", [1, 2, 8, 9, 300])
    def test_block_size_does_not_move_a_bit(self, family, size, rng):
        s = self._surrogate(family, 2, rng, n=30)
        points = rng.uniform(-2, 2, (size, 2))
        block = s.block(points)
        # powers asked for from the middle on, then the rows before
        order = list(range(size // 2, size)) + list(range(size // 2))
        for i in order:
            twin = dataclasses.replace(s)
            assert _bits(block.power(i)) == _bits(twin.power(points[i]))
            assert _bits(block.values[i]) == _bits(twin.value(points[i]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_remembered_row_serves_every_query(self, family, dim, rng, monkeypatch):
        s = self._surrogate(family, dim, rng)
        points = self._awkward_points(s, rng, count=5)
        block = s.block(points)
        for i, x in enumerate(points):
            block.power(i)
            s.remember(block, i)
            twin = dataclasses.replace(s)
            profiles, radial_profiles = [], surrogate.radial_profiles
            with monkeypatch.context() as m:
                m.setattr(surrogate, "radial_profiles",
                          lambda *a: profiles.append(1) or radial_profiles(*a))
                queries = [_query(s, x.copy(), what) for what in ("value", ("power", None))]
            assert profiles == []      # no second distance pass at x
            assert queries == [_query(twin, x, what) for what in ("value", ("power", None))]
            for what in ("gradient",) + tuple(("power", l) for l in range(dim)):
                assert _query(s, x, what) == _query(dataclasses.replace(s), x, what)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_point_queries_share_one_distance_pass(self, family, dim, rng, monkeypatch):
        # value, gradient and every power at a fresh point read one one-row
        # block: one distance pass between them, whichever query comes
        # first, and each has the bits of the same query on a fresh twin
        s = self._surrogate(family, dim, rng)
        queries = ["value", "gradient", *(("power", o) for o in (None, *range(dim)))]
        for i, x in enumerate(self._awkward_points(s, rng, count=5)):
            fresh = dataclasses.replace(s)
            order = queries[i % len(queries):] + queries[: i % len(queries)]
            profiles, radial_profiles = [], surrogate.radial_profiles
            with monkeypatch.context() as m:
                m.setattr(surrogate, "radial_profiles",
                          lambda *a: profiles.append(1) or radial_profiles(*a))
                got = [_query(fresh, x, what) for what in order]
            assert profiles == [1], (i, x)
            assert got == [_query(dataclasses.replace(s), x, what) for what in order], (i, x)

    @pytest.mark.parametrize("remembered", [False, True])
    def test_memo_frees_with_its_surrogate(self, remembered, rng):
        # a block holds no reference to its surrogate, so a surrogate whose
        # memo holds a block goes with its last reference, Gram and factor
        # included, without waiting for the cyclic collector
        s = self._surrogate("gaussian", 2, rng)
        s.gradient(np.zeros(2))                       # a point query's block
        if remembered:
            s.remember(s.block(rng.uniform(-1, 1, (3, 2))), 1)
        ref = weakref.ref(s)
        gc.disable()
        try:
            del s
            assert ref() is None
        finally:
            gc.enable()

    def test_kernel_rows_of_a_block_are_the_one_point_rows(self, family, rng):
        s = self._surrogate(family, 3, rng)
        points = self._awkward_points(s, rng, count=6)
        dt, k_vals, g1, g2 = s._profiles(points)
        for order in (None, 0, 1, 2):
            rows = surrogate._kernel_rows(dt, k_vals, g1, g2, order)
            for i, x in enumerate(points):
                one = surrogate._kernel_rows(*s._profiles(x), order)
                assert rows[i].tobytes() == one.tobytes(), (order, i)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
    def test_one_point_pass_keeps_the_plain_arithmetic(self, family, dim, rng):
        # distances as np.linalg.norm takes them, the value as one dot
        # product, the power's quadratic form as cho_solve's solve and one
        # dot product: the bits the surrogate had before blocks existed
        s = self._surrogate(family, dim, rng)
        for x in self._awkward_points(s, rng, count=5):
            r = np.linalg.norm(x - s.training.points, axis=1)
            twin = dataclasses.replace(s)
            value, power = twin.value(x), twin.power(x)
            _, block, i = twin._memo              # the point query's one-row block
            assert len(block) == 1
            b = block.rows[i]
            assert b[: s.training.n].tobytes() == surrogate.radial_profiles(s.kernel, r)[0].tobytes()
            bs = b * s._scale
            q = s.kernel.diag_value - float(bs @ cho_solve(s._cho, bs))
            assert _bits(value) == _bits(float(b @ s._coeffs))
            assert _bits(power) == _bits(float(np.sqrt(max(q, 0.0))))

    def test_non_finite_row_raises_power_error_only_when_asked(self, rng):
        # far enough out, the quadratic Matern profile is inf * 0 = nan
        s = self._surrogate("quad_matern", 2, rng)
        points = np.array([[0.3, -0.2], [1e200, 0.0], [-0.7, 1.1]])
        with np.errstate(over="ignore", invalid="ignore"):
            block = s.block(points)
            with pytest.raises(ValueError, match="infs or NaNs") as from_block:
                block.power(1)
            with pytest.raises(ValueError, match="infs or NaNs") as from_point:
                dataclasses.replace(s).power(points[1])
        assert str(from_block.value) == str(from_point.value)
        assert np.isnan(block.values[1])
        for i in (0, 2):
            assert _bits(block.power(i)) == _bits(dataclasses.replace(s).power(points[i]))
        s.remember(block, 1)                          # no power to carry over
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            s.power(points[1])


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
        est, samples = estimate_norm(k, problem, n_samples=40, sampler_seed=5, safety=1.0,
                                     box=None)
        assert est == pytest.approx(exact, rel=0.05)
        assert problem.counter == 40
        # the samples come back with their data, in draw order
        expected = np.random.default_rng(5).uniform(problem.lower, problem.upper, (40, 2))
        assert np.array_equal(samples.points, expected)
        assert np.array_equal(samples.values, [problem.f(x) for x in expected])

    def test_nested_sample_monotonicity(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        zs = rng.uniform(-1, 1, (4, 2))
        problem, _ = _expansion_problem(k, zs, rng.normal(size=4))
        estimates = [
            estimate_norm(k, problem, n_samples=n, sampler_seed=17, safety=1.0, box=None)[0]
            for n in (5, 10, 20, 40)
        ]
        for a, b in zip(estimates, estimates[1:]):
            assert a <= b + 1e-10

    def test_safety_scales_linearly(self, rng):
        k = make_kernel("gaussian", 1.0, 2)
        zs = rng.uniform(-1, 1, (3, 2))
        problem, _ = _expansion_problem(k, zs, rng.normal(size=3))
        base, _ = estimate_norm(k, problem, n_samples=10, sampler_seed=3, safety=1.0, box=None)
        doubled, _ = estimate_norm(k, problem, n_samples=10, sampler_seed=3, safety=2.0,
                                   box=None)
        assert doubled == 2.0 * base
