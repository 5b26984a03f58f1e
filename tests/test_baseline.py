"""Direct projected BFGS reference optimizer."""

import numpy as np
import pytest

from hermite_tr import baseline
from hermite_tr.baseline import BaselineConfig, minimize, reference_solution
from hermite_tr.problems import Problem, problem_1d, problem_rosenbrock
from hermite_tr.subproblem import projected_gradient_norm

from oracles import peek


class TestOneD:
    def test_converges_from_random_starts(self, rng):
        for _ in range(5):
            p = problem_1d()
            report = minimize(p, rng.uniform(-2, 2, 1), BaselineConfig(tau_foc=1e-7, tau_j=1e-14))
            assert abs(report.final_iterate[0]) <= 1e-6
            assert abs(report.final_j - 2.0) <= 1e-12

    def test_accepted_values_monotone(self, rng):
        p = problem_1d()
        report = minimize(p, np.array([1.7]), BaselineConfig(tau_foc=1e-7))
        js = [r.j_value for r in report.log]
        for a, b in zip(js, js[1:]):
            assert b <= a

    def test_counts_every_call(self):
        p = problem_1d()
        report = minimize(p, np.array([1.0]), BaselineConfig())
        assert report.fom_evals == p.counter


class TestRosenbrock:
    def test_reaches_global_minimum(self):
        p = problem_rosenbrock()
        report = minimize(p, np.array([-1.2, 1.0]),
                          BaselineConfig(tau_foc=1e-7, tau_j=1e-16, i_max=500))
        assert report.final_j <= 1.0 + 1e-8

    def test_non_descent_direction_resets_to_steepest_descent(self, monkeypatch):
        # an update that returns -I turns every quasi-Newton direction
        # uphill; each line search must then run along the negative gradient
        monkeypatch.setattr(baseline, "bfgs_inverse_update",
                            lambda hinv, step, y: -np.eye(step.shape[0]))
        searches = []
        backtrack = baseline.armijo_backtrack

        def recording(fun, x, fx, rule, direction, *args, **kwargs):
            searches.append((x.copy(), direction.copy()))
            return backtrack(fun, x, fx, rule, direction, *args, **kwargs)

        monkeypatch.setattr(baseline, "armijo_backtrack", recording)
        p = problem_rosenbrock()
        minimize(p, np.array([-1.2, 1.0]), BaselineConfig(i_max=3))
        assert len(searches) == 3
        for x, direction in searches:
            np.testing.assert_array_equal(direction, -peek(p, x)[1])


class TestBoxConstrained:
    def make_bowl(self):
        center = np.array([3.0, 0.5])

        def fn(x):
            d = x - center
            return float(d @ d + 5.0), lambda: 2.0 * d

        return Problem(name="bowl",
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]), fn=fn)

    def test_stops_on_face_with_small_projected_gradient(self):
        # unconstrained minimizer (3, 0.5) is outside; the constrained
        # optimum (1, 0.5) follows in closed form
        p = self.make_bowl()
        report = minimize(p, np.array([-0.5, -0.5]), BaselineConfig(tau_foc=1e-8))
        np.testing.assert_allclose(report.final_iterate, [1.0, 0.5], atol=1e-6)
        assert report.final_foc <= 1e-8

    def test_iterates_stay_in_box(self):
        p = self.make_bowl()
        report = minimize(p, np.array([0.0, 0.0]), BaselineConfig(tau_foc=1e-8))
        for rec in report.log:
            assert np.all(np.abs(rec.candidate) <= 1.0 + 1e-15)

    def test_clamps_start(self):
        p = self.make_bowl()
        report = minimize(p, np.array([9.0, 9.0]), BaselineConfig(tau_foc=1e-8))
        assert report.final_foc <= 1e-8


class TestReference:
    def test_one_d_reference(self, rng):
        p = problem_1d()
        starts = rng.uniform(-2, 2, (3, 1))
        x_ref, j_ref = reference_solution(p, starts)
        assert abs(x_ref[0]) <= 1e-8
        assert j_ref == pytest.approx(2.0, abs=1e-14)

    def test_rosenbrock_reference(self):
        p = problem_rosenbrock()
        x_ref, j_ref = reference_solution(p, np.array([[-1.2, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(x_ref, [1.0, 1.0], atol=1e-5)
        assert j_ref == pytest.approx(1.0, abs=1e-10)

    def test_needs_at_least_one_start(self):
        with pytest.raises(ValueError):
            reference_solution(problem_1d(), np.empty((0, 1)))

    # Golden value for the diffusion benchmark on the 96-cell grid, frozen
    # from this very operation (tight-tolerance multistart); the optimizer
    # sits on the upper bound of the second component.
    GOLDEN_PDE96_J = 2.393640536161581
    GOLDEN_PDE96_X = (1.4246, np.pi)

    def test_pde_grid96_golden_reference(self):
        from hermite_tr.problems import problem_pde2d

        rng = np.random.default_rng(7)
        starts = rng.uniform([0.5, 0.5], [np.pi, np.pi], (3, 2))
        p = problem_pde2d(96)
        x_ref, j_ref = reference_solution(p, starts)
        assert j_ref == pytest.approx(self.GOLDEN_PDE96_J, rel=1e-9)
        assert x_ref[0] == pytest.approx(self.GOLDEN_PDE96_X[0], abs=1e-3)
        assert x_ref[1] == pytest.approx(self.GOLDEN_PDE96_X[1], abs=1e-8)
