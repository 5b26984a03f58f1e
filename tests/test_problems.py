"""Benchmark objectives: values, gradients, and the elliptic solver."""

import numpy as np
import pytest

from hermite_tr.errors import AssumptionViolationError
from hermite_tr.pde2d import Pde2dDiscretization, pde2d_gradient, pde2d_solve, theta1, theta2
from hermite_tr.problems import Problem, make_problem, problem_1d, problem_pde2d, problem_rosenbrock


def fd_gradient(problem, x, h=1e-6):
    g = np.zeros(problem.dim)
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = h
        g[i] = (problem.peek(x + e)[0] - problem.peek(x - e)[0]) / (2 * h)
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
            g = p.peek(x)[1]
            g_fd = fd_gradient(p, x, h=1e-7)
            assert abs(g[0] - g_fd[0]) <= 1e-8 * (1.0 + abs(g[0]))

    def test_counter_semantics(self):
        p = problem_1d()
        p.eval(np.array([0.5]))
        p.eval(np.array([0.7]))
        assert p.counter == 2
        p.peek(np.array([0.9]))
        assert p.counter == 2

    def test_positive_on_box(self, rng):
        p = problem_1d()
        for _ in range(100):
            assert p.peek(rng.uniform(-2, 2, 1))[0] > 0


class TestRosenbrock:
    def test_global_minimum(self):
        p = problem_rosenbrock()
        val, grad = p.eval(np.array([1.0, 1.0]))
        assert val == 1.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin_value(self):
        p = problem_rosenbrock()
        assert p.peek(np.array([0.0, 0.0]))[0] == 2.0

    def test_gradient_finite_difference(self, rng):
        p = problem_rosenbrock()
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            g = p.peek(x)[1]
            g_fd = fd_gradient(p, x, h=1e-7)
            assert np.max(np.abs(g - g_fd)) <= 1e-8 * (1.0 + np.max(np.abs(g)))

    def test_unbounded_box(self):
        p = problem_rosenbrock()
        assert not p.bounded


class TestPositivityGuard:
    def test_guard_raises(self):
        def fn(x):
            return -1.0, np.zeros(1)

        p = Problem(name="neg", dim=1, lower=np.array([-1.0]),
                    upper=np.array([1.0]), fn=fn)
        with pytest.raises(AssumptionViolationError):
            p.eval(np.array([0.0]))


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
            u, _, lu = pde2d_solve(disc, mu)
            g = pde2d_gradient(disc, mu, u, lu=lu)
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
            assert p.peek(rng.uniform(p.lower, p.upper))[0] > 0

    def test_descent_toward_upper_bound(self):
        # the second component of the gradient is negative here, consistent
        # with the optimizer sitting on the upper edge of the box
        disc = Pde2dDiscretization.build(96)
        mu = np.array([1.42, 3.0])
        u, _, lu = pde2d_solve(disc, mu)
        g = pde2d_gradient(disc, mu, u, lu=lu)
        assert g[1] < 0

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            Pde2dDiscretization.build(4)

    def test_make_problem_dispatch(self):
        assert make_problem("one_d").name == "one_d"
        assert make_problem("pde2d", grid_n=24).dim == 2
        with pytest.raises(ValueError):
            make_problem("unknown")
