"""Benchmark objectives: values, gradients, and the elliptic solver."""

import numpy as np
import pytest

from hermite_tr.errors import AssumptionViolationError, ConfigError, NumericalError
from hermite_tr.pde2d import Pde2dDiscretization, pde2d_gradient, pde2d_solve, theta1, theta2
from hermite_tr.problems import (
    Problem,
    bounded_box,
    make_problem,
    problem_1d,
    problem_pde2d,
    problem_rosenbrock,
)

from oracles import peek, plain_pde2d


def fd_gradient(problem, x, h=1e-6):
    g = np.zeros(problem.dim)
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = h
        g[i] = (peek(problem, x + e)[0] - peek(problem, x - e)[0]) / (2 * h)
    return g


class TestOneD:
    def test_minimum_value(self):
        p = problem_1d()
        val, grad = p.eval(np.array([0.0]))
        assert val == 2.0
        assert grad[0] == 0.0

    def test_gradient_finite_difference(self, rng):
        p = problem_1d()
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            g = peek(p, x)[1]
            g_fd = fd_gradient(p, x, h=1e-7)
            assert abs(g[0] - g_fd[0]) <= 1e-8 * (1.0 + abs(g[0]))

    def test_counter_semantics(self):
        p = problem_1d()
        p.eval(np.array([0.5]))
        p.eval(np.array([0.7]))
        assert p.counter == 2

    def test_malformed_point_not_counted(self):
        p = problem_1d()
        with pytest.raises(ValueError):
            p.eval(np.zeros(2))
        assert p.counter == 0

    def test_positive_on_box(self, rng):
        p = problem_1d()
        for _ in range(100):
            assert peek(p, rng.uniform(-2, 2, 1))[0] > 0


class TestRosenbrock:
    def test_global_minimum(self):
        p = problem_rosenbrock()
        val, grad = p.eval(np.array([1.0, 1.0]))
        assert val == 1.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin_value(self):
        p = problem_rosenbrock()
        assert peek(p, np.array([0.0, 0.0]))[0] == 2.0

    def test_gradient_finite_difference(self, rng):
        p = problem_rosenbrock()
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            g = peek(p, x)[1]
            g_fd = fd_gradient(p, x, h=1e-7)
            assert np.max(np.abs(g - g_fd)) <= 1e-8 * (1.0 + np.max(np.abs(g)))

    def test_unbounded_box(self):
        with pytest.raises(ConfigError):
            bounded_box(problem_rosenbrock())


class TestPositivityGuard:
    def test_guard_raises(self):
        def fn(x):
            return -1.0, np.zeros(1)

        p = Problem(name="neg", lower=np.array([-1.0]), upper=np.array([1.0]), fn=fn)
        with pytest.raises(AssumptionViolationError):
            p.eval(np.array([0.0]))


class TestMemo:
    """Repeated points save work, never a count or a bit."""

    @staticmethod
    def counting(problem):
        """problem with its fn wrapped to count the objective calls it makes."""
        calls = []
        fn = problem.fn

        def counted(x):
            calls.append(x.tobytes())
            return fn(x)

        problem.fn = counted
        return problem, calls

    def test_hit_counts_and_returns_equal_bits_in_a_fresh_array(self):
        p, calls = self.counting(problem_pde2d(grid_n=24))
        x = np.array([1.3, 2.2])
        val, grad = p.eval(x)
        grad_copy = grad.copy()
        grad[:] = 0.0                       # the caller's array is its own
        val2, grad2 = p.eval(x.copy())
        assert p.counter == 2 and len(calls) == 1
        assert val2 == val
        assert grad2.tobytes() == grad_copy.tobytes()

    def test_failed_evaluation_not_memoized(self):
        calls = []

        def fn(x):
            calls.append(1)
            return -1.0, np.zeros(1)

        p = Problem(name="neg", lower=np.array([-1.0]), upper=np.array([1.0]), fn=fn)
        for _ in range(2):
            with pytest.raises(AssumptionViolationError):
                p.eval(np.array([0.0]))
        assert p.counter == 2 and len(calls) == 2


MANUFACTURED_J = 1.4 * (np.pi**2 / 2.0) / (1.1 + np.sin(1.0))


class TestPde2d:
    def test_theta_coefficients(self):
        mu = np.array([np.pi / 2.0, 1.0])
        assert theta1(mu) == pytest.approx(2.1)
        assert theta2(np.array([0.0, np.pi / 2.0])) == pytest.approx(2.1)

    def test_manufactured_solution(self):
        # at mu = (1,1) the diffusion field is constant, so the state is the
        # cosine product divided by it, and J has the closed form below
        disc = Pde2dDiscretization.build(96)
        _, val, _ = pde2d_solve(disc, np.array([1.0, 1.0]))
        assert val == pytest.approx(MANUFACTURED_J, rel=1e-3)

    def test_manufactured_improves_under_refinement(self):
        errs = []
        for n in (24, 48, 96):
            disc = Pde2dDiscretization.build(n)
            _, val, _ = pde2d_solve(disc, np.array([1.0, 1.0]))
            errs.append(abs(val - MANUFACTURED_J))
        assert errs[0] > errs[1] > errs[2]

    def test_self_convergence_with_jumps(self):
        # fixed mu with genuinely discontinuous diffusion: successive grid
        # halvings must shrink the change in J
        mu = np.array([2.0, 0.8])
        vals = []
        for n in (24, 48, 96, 192):
            disc = Pde2dDiscretization.build(n)
            vals.append(pde2d_solve(disc, mu)[1])
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_gradient_finite_difference(self, rng):
        disc = Pde2dDiscretization.build(48)
        worst = 0.0
        for _ in range(10):
            mu = rng.uniform([0.5, 0.5], [np.pi, np.pi])
            w, _, f = pde2d_solve(disc, mu)
            g = pde2d_gradient(disc, mu, w, f)
            h = 1e-5
            g_fd = np.zeros(2)
            for m in range(2):
                e = np.zeros(2)
                e[m] = h
                g_fd[m] = (pde2d_solve(disc, mu + e)[1] - pde2d_solve(disc, mu - e)[1]) / (2 * h)
            worst = max(worst, np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g_fd))))
        assert worst <= 1e-5

    def test_system_matrix_spd(self, rng):
        disc = Pde2dDiscretization.build(24)
        for _ in range(20):
            mu = rng.uniform([0.5, 0.5], [np.pi, np.pi])
            dense = disc.system_matrix(mu).toarray()
            np.testing.assert_allclose(dense, dense.T, atol=1e-14)
            np.linalg.cholesky(dense)  # raises if not positive definite

    def test_objective_positive(self, rng):
        p = problem_pde2d(grid_n=48)
        for _ in range(10):
            assert peek(p, rng.uniform(p.lower, p.upper))[0] > 0

    def test_descent_toward_upper_bound(self):
        # the second component of the gradient is negative here, consistent
        # with the optimizer sitting on the upper edge of the box
        disc = Pde2dDiscretization.build(96)
        mu = np.array([1.42, 3.0])
        w, _, f = pde2d_solve(disc, mu)
        g = pde2d_gradient(disc, mu, w, f)
        assert g[1] < 0

    # at grid 12 each inclusion is a 2 x 2 block of interface cells, so
    # no cell sees A2 alone
    @pytest.mark.parametrize("grid_n", [12, 24, 96, 100])
    def test_agrees_with_plain_splu(self, grid_n):
        # the condensed solve is exact up to rounding, not bit-identical to
        # a sparse LU of the whole grid: state on the interface, value and
        # gradient agree with a fresh splu and its sensitivity solves
        disc = Pde2dDiscretization.build(grid_n)
        problem = problem_pde2d(grid_n=grid_n)
        gamma = disc.interface.gamma
        rng = np.random.default_rng(grid_n)
        for _ in range(20):
            mu = rng.uniform([0.5, 0.5], [np.pi, np.pi])
            w, val, f = pde2d_solve(disc, mu)
            grad = pde2d_gradient(disc, mu, w, f)
            u0, val0, grad0 = plain_pde2d(disc, mu)
            assert np.max(np.abs(w - u0[gamma])) <= 1e-12 * np.max(np.abs(u0[gamma]))
            assert abs(val - val0) <= 1e-12 * abs(val0)
            assert np.max(np.abs(grad - grad0)) <= 1e-12 * np.max(np.abs(grad0))
            p_val, p_grad = problem.eval(mu)
            assert p_val == val and p_grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("grid_n", [12, 24, 96, 100])
    def test_interface_condensation_structure(self, grid_n):
        disc = Pde2dDiscretization.build(grid_n)
        face = disc.interface
        cells = np.concatenate([face.gamma, face.exterior, face.inclusions])
        assert np.array_equal(np.sort(cells), np.arange(grid_n**2))
        a = disc.system_matrix(np.array([1.3, 2.1])).tocsr()
        # the exterior and the inclusion interiors never couple, and each
        # sees one block only
        assert abs(a[face.exterior][:, face.inclusions]).sum() == 0.0
        assert abs(disc.a2.tocsr()[face.exterior]).sum() == 0.0
        assert abs(disc.a1.tocsr()[face.inclusions]).sum() == 0.0
        if grid_n == 96:
            # two 16 x 16 inclusions: a 60-cell inner and a 64-cell outer ring each
            assert face.gamma.size == 248
        if grid_n == 12:
            assert face.inclusions.size == 0
        for s in (face.s1, face.s2):
            assert s.shape == (face.gamma.size,) * 2
            assert np.array_equal(s, s.T)
        # the offline step runs once per discretization
        assert disc.interface is face

    def test_indefinite_operator_is_a_numerical_error(self):
        # outside the problem box theta1 can turn negative; the interface
        # Cholesky then fails, which must surface as a typed error
        disc = Pde2dDiscretization.build(24)
        mu = np.array([-np.pi / 2.0, 5.0])
        assert theta1(mu) < 0
        with pytest.raises(NumericalError, match="linear solve failed"):
            pde2d_solve(disc, mu)

    @pytest.mark.parametrize("mu", [[np.nan, 0.5], [0.5, np.inf]])
    def test_non_finite_parameter_is_a_numerical_error(self, mu):
        disc = Pde2dDiscretization.build(12)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            pde2d_solve(disc, np.array(mu))

    def test_grid_guard(self):
        with pytest.raises(ConfigError):
            Pde2dDiscretization.build(4)

    def test_make_problem_dispatch(self):
        assert make_problem("one_d", grid_n=24).name == "one_d"
        assert make_problem("pde2d", grid_n=24).dim == 2
        with pytest.raises(ValueError):
            make_problem("unknown", grid_n=24)
