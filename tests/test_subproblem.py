"""Inner solver: constraint, line search, and BFGS descent on the surrogate."""

import numpy as np
import pytest

from hermite_tr.errors import AssumptionViolationError
from hermite_tr.kernels import make_kernel
from hermite_tr.subproblem import (
    SubproblemConfig,
    Termination,
    angle_decrease_rule,
    armijo_backtrack,
    constraint_value,
    project_box,
    projected_gradient_norm,
    solve,
)
from hermite_tr.surrogate import TrainingSet, fit


def quadratic_surrogate(center=0.0, offset=2.0, half_width=2.0, n=21, eps=1.0):
    """Surrogate fitted densely to q(u) = (u - center)^2 + offset on 1D."""
    k = make_kernel("gaussian", eps, 1)
    pts = np.linspace(center - half_width, center + half_width, n)[:, None]
    vals = (pts[:, 0] - center) ** 2 + offset
    grads = 2.0 * (pts - center)
    return fit(k, TrainingSet(pts, vals, grads), norm_bound=5.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubproblemConfig(kappa_bt=1.5)
        with pytest.raises(ValueError):
            SubproblemConfig(kappa_arm=0.7)
        with pytest.raises(ValueError):
            SubproblemConfig(beta2=0.0)
        with pytest.raises(ValueError):
            SubproblemConfig(tau_sub=-1.0)


class TestProjection:
    def test_clamp_and_idempotence(self):
        box = (np.array([0.0, -1.0]), np.array([2.0, 1.0]))
        x = project_box(np.array([-3.0, 0.5]), box)
        np.testing.assert_array_equal(x, [0.0, 0.5])
        np.testing.assert_array_equal(project_box(x, box), x)

    def test_unbounded_identity(self):
        x = np.array([5.0, -7.0])
        np.testing.assert_array_equal(project_box(x, None), x)

    def test_projected_gradient_measure(self):
        box = (np.array([0.0]), np.array([1.0]))
        # at the upper bound with outward gradient the measure vanishes
        assert projected_gradient_norm(np.array([1.0]), np.array([-3.0]), box) == 0.0
        assert projected_gradient_norm(np.array([0.5]), np.array([0.2]), box) == pytest.approx(0.2)


class TestConstraint:
    def test_equals_delta_at_center(self):
        s = quadratic_surrogate()
        center = s.training.points[3]
        assert constraint_value(s, 0.5, center) == pytest.approx(0.5, abs=1e-6)

    def test_arithmetic(self):
        # pick norm_bound so the error/value ratio at a probe point is 0.2,
        # then the slack at delta = 0.5 is 0.3
        s = quadratic_surrogate()
        x = np.array([2.7])
        ratio_unit = s.power(x) / s.value(x)
        k = s.kernel
        scaled = fit(k, s.training, norm_bound=0.2 / ratio_unit)
        assert constraint_value(scaled, 0.5, x) == pytest.approx(0.3, rel=1e-12)

    def test_positivity_floor(self):
        k = make_kernel("gaussian", 1.0, 1)
        ts = TrainingSet(np.array([[0.0]]), np.array([-1.0]), np.zeros((1, 1)))
        s = fit(k, ts, norm_bound=1.0)
        with pytest.raises(AssumptionViolationError):
            constraint_value(s, 0.5, np.array([0.0]))


def surrogate_backtrack(s, x, direction, cfg, box=None):
    """armijo_backtrack on the surrogate with the angle rule solve uses."""
    grad = s.gradient(x)
    grad_norm = float(np.linalg.norm(grad))
    cos_phi = -float(grad @ direction) / (grad_norm * float(np.linalg.norm(direction)))
    point, _, j = armijo_backtrack(
        s.value, x, s.value(x), angle_decrease_rule(cfg.kappa_arm, grad_norm, cos_phi),
        direction, cfg, box=box,
    )
    return point, j


class TestArmijoSearch:
    def test_hand_worked_quadratic(self):
        # q(u) = u^2 (+2 to keep the ratio constraint well defined and
        # positive everywhere); from u=1 along direction -2 the full step
        # lands at -1 with zero decrease, the halved step lands at the
        # minimizer with decrease 1 >= 2e-4
        s = quadratic_surrogate(center=0.0, offset=2.0)
        cfg = SubproblemConfig(kappa_bt=0.5, kappa_arm=1e-4)
        point, j = surrogate_backtrack(s, np.array([1.0]), np.array([-2.0]), cfg)
        assert j == 1
        assert point[0] == pytest.approx(0.0, abs=1e-12)

    def test_projection_clamps_accepted_point(self):
        s = quadratic_surrogate()
        cfg = SubproblemConfig()
        box = (np.array([0.0]), np.array([2.0]))
        point, j = surrogate_backtrack(s, np.array([1.0]), np.array([-4.0]), cfg, box=box)
        assert j == 0
        assert point[0] == pytest.approx(0.0, abs=1e-12)


class TestSolve:
    def test_stationary_start(self):
        s = quadratic_surrogate()
        cfg = SubproblemConfig(tau_sub=1e-6)
        res = solve(s, np.array([0.0]), delta=1.0, cfg=cfg)
        assert res.termination is Termination.STATIONARY_INNER
        np.testing.assert_array_equal(res.candidate, [0.0])
        np.testing.assert_array_equal(res.agc, [0.0])
        assert res.iterates == []

    def test_converges_to_quadratic_minimizer(self):
        # closed-form oracle: the bowl's minimizer is its center
        s = quadratic_surrogate(center=0.4)
        cfg = SubproblemConfig(tau_sub=1e-7)
        res = solve(s, np.array([1.3]), delta=1e3, cfg=cfg)
        assert res.termination is Termination.STATIONARY_INNER
        assert abs(res.candidate[0] - 0.4) <= 1e-4
        g = s.gradient(res.candidate)
        assert np.max(np.abs(g)) <= 1e-7

    def test_near_boundary_window(self):
        # single-center model, the first-iteration situation of a real run:
        # every full step exits the trusted region, so the descent stops
        # inside the boundary window, checked by direct evaluation
        k = make_kernel("gaussian", 0.725, 1)
        mu = 1.5
        val = -np.exp(-mu**2) + 3 * np.exp(-0.001 * mu**2)
        slope = 2 * mu * np.exp(-mu**2) - 0.006 * mu * np.exp(-0.001 * mu**2)
        s = fit(k, TrainingSet(np.array([[mu]]), np.array([val]), np.array([[slope]])),
                norm_bound=12.0)
        cfg = SubproblemConfig(tau_sub=1e-8, beta2=0.95)
        delta = 0.5
        res = solve(s, np.array([mu]), delta=delta, cfg=cfg)
        assert res.termination is Termination.NEAR_BOUNDARY
        ratio = s.norm_bound * s.power(res.candidate) / s.value(res.candidate)
        assert cfg.beta2 * delta <= ratio <= delta

    def test_inner_values_strictly_decrease(self):
        s = quadratic_surrogate(center=-0.3)
        res = solve(s, np.array([1.7]), delta=10.0, cfg=SubproblemConfig(tau_sub=1e-7))
        values = [s.value(np.array([1.7]))] + [s.value(p) for p in res.iterates]
        for a, b in zip(values, values[1:]):
            assert b < a

    def test_agc_satisfies_first_step_decrease(self):
        # literal sufficient-decrease inequality at the first accepted step;
        # the first direction is steepest descent so the angle term is 1
        s = quadratic_surrogate(center=0.2)
        cfg = SubproblemConfig()
        x0 = np.array([1.4])
        res = solve(s, x0, delta=10.0, cfg=cfg)
        g0 = s.gradient(x0)
        lhs = s.value(x0) - s.value(res.agc)
        rhs = cfg.kappa_arm * np.linalg.norm(g0) * np.linalg.norm(x0 - res.agc)
        assert lhs >= rhs

    def test_feasibility_at_accepted_iterates(self):
        s = quadratic_surrogate()
        delta = 0.05
        res = solve(s, np.array([1.2]), delta=delta, cfg=SubproblemConfig(tau_sub=1e-9))
        for p in res.iterates:
            assert constraint_value(s, delta, p) >= -1e-12

    def test_box_feasibility_exact(self):
        s = quadratic_surrogate(center=-1.0)
        box = (np.array([-0.5]), np.array([2.0]))
        res = solve(s, np.array([1.5]), delta=1e3,
                    cfg=SubproblemConfig(tau_sub=1e-8), box=box)
        for p in res.iterates:
            assert -0.5 <= p[0] <= 2.0
            np.testing.assert_array_equal(project_box(p, box), p)
        # minimizer sits outside the box: projected stationarity at the face
        assert res.candidate[0] == pytest.approx(-0.5, abs=1e-8)

    def test_agc_is_first_iterate(self):
        s = quadratic_surrogate(center=0.6)
        res = solve(s, np.array([1.9]), delta=1e3, cfg=SubproblemConfig())
        assert res.iterates, "expected at least one accepted inner step"
        np.testing.assert_array_equal(res.agc, res.iterates[0])

    def test_infeasible_start_raises(self):
        s = quadratic_surrogate()
        # a huge norm bound makes the start violate the ratio constraint
        inflated = fit(s.kernel, s.training, norm_bound=1e12)
        with pytest.raises(AssumptionViolationError):
            solve(inflated, np.array([1.9]), delta=1e-8, cfg=SubproblemConfig())
