"""Inner solver: constraint, line search, and BFGS descent on the surrogate."""

import dataclasses

import numpy as np
import pytest

from hermite_tr import subproblem, surrogate
from hermite_tr.errors import AssumptionViolationError, ConfigError, LineSearchError
from hermite_tr.kernels import make_kernel
from hermite_tr.problems import problem_rosenbrock
from hermite_tr.subproblem import (
    CHUNK,
    POSITIVITY_FLOOR,
    SubproblemConfig,
    Termination,
    angle_decrease_rule,
    armijo_backtrack,
    backtracking_ladder,
    constraint_value,
    project_box,
    projected_decrease_rule,
    projected_gradient_norm,
    solve,
)
from hermite_tr.surrogate import TrainingSet, fit

from conftest import kernel_for
from oracles import peek, per_trial_backtrack, per_trial_solve


def unbounded(dim):
    """Box with infinite bounds, which project_box leaves every point in."""
    return (np.full(dim, -np.inf), np.full(dim, np.inf))


def quadratic_surrogate(center=0.0, offset=2.0, half_width=2.0, n=21, eps=1.0):
    """Surrogate fitted densely to q(u) = (u - center)^2 + offset on 1D."""
    k = make_kernel("gaussian", eps, 1)
    pts = np.linspace(center - half_width, center + half_width, n)[:, None]
    vals = (pts[:, 0] - center) ** 2 + offset
    grads = 2.0 * (pts - center)
    return fit(k, TrainingSet(pts, vals, grads), norm_bound=5.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SubproblemConfig(kappa_bt=1.5)
        with pytest.raises(ConfigError):
            SubproblemConfig(kappa_arm=0.7)
        with pytest.raises(ConfigError):
            SubproblemConfig(beta2=0.0)
        with pytest.raises(ConfigError):
            SubproblemConfig(tau_sub=-1.0)


class TestProjection:
    def test_clamp_and_idempotence(self):
        box = (np.array([0.0, -1.0]), np.array([2.0, 1.0]))
        x = project_box(np.array([-3.0, 0.5]), box)
        np.testing.assert_array_equal(x, [0.0, 0.5])
        np.testing.assert_array_equal(project_box(x, box), x)

    def test_unbounded_identity(self):
        x = np.array([5.0, -7.0])
        np.testing.assert_array_equal(project_box(x, unbounded(2)), x)

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


def surrogate_backtrack(s, x, direction, cfg, box):
    """armijo_backtrack on the surrogate with the angle rule solve uses."""
    grad = s.gradient(x)
    grad_norm = float(np.linalg.norm(grad))
    cos_phi = -float(grad @ direction) / (grad_norm * float(np.linalg.norm(direction)))
    ladder = backtracking_ladder(x, direction, cfg, box)
    point, _, j = armijo_backtrack(
        lambda j: s.value(ladder[j]), x, s.value(x),
        angle_decrease_rule(cfg.kappa_arm, grad_norm, cos_phi), ladder,
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
        point, j = surrogate_backtrack(s, np.array([1.0]), np.array([-2.0]), cfg,
                                       unbounded(1))
        assert j == 1
        assert point[0] == pytest.approx(0.0, abs=1e-12)

    def test_projection_clamps_accepted_point(self):
        s = quadratic_surrogate()
        cfg = SubproblemConfig()
        box = (np.array([0.0]), np.array([2.0]))
        point, j = surrogate_backtrack(s, np.array([1.0]), np.array([-4.0]), cfg, box)
        assert j == 0
        assert point[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("resolution,evaluated,message", [
        (2.0, [], "rounding level after 0 trials"),
        (1.0, [], "rounding level after 0 trials"),
        (0.3, [1.0, 0.5], "rounding level after 2 trials"),
        (0.125, [1.0, 0.5, 0.25], "rounding level after 3 trials"),
        (None, [0.5**j for j in range(31)], "within 30 backtracking steps"),
    ])
    def test_resolution_stops_before_evaluating(self, resolution, evaluated, message):
        # trial j sits at 0.5^j and requires a drop of 0.5^j (exact); fun
        # never drops, so only the resolution or j_max ends the search, and
        # no trial requiring at most the resolution is evaluated
        seen = []
        x = np.array([0.0])
        ladder = backtracking_ladder(x, np.array([1.0]), SubproblemConfig(kappa_bt=0.5, j_max=30),
                                     unbounded(1))

        def flat(j):
            seen.append(ladder[j][0])
            return 1.0

        with pytest.raises(LineSearchError, match=message):
            armijo_backtrack(flat, x, 1.0, lambda step: abs(step[0]), ladder,
                             resolution=resolution)
        assert seen == evaluated

    def test_resolution_below_every_requirement_changes_nothing(self):
        s = quadratic_surrogate(center=0.0, offset=2.0)
        cfg = SubproblemConfig(kappa_bt=0.5, kappa_arm=1e-4)
        x, direction = np.array([1.0]), np.array([-2.0])
        rule = angle_decrease_rule(cfg.kappa_arm, float(abs(s.gradient(x)[0])), 1.0)
        ladder = backtracking_ladder(x, direction, cfg, unbounded(1))

        def fun(j):
            return s.value(ladder[j])

        plain = armijo_backtrack(fun, x, s.value(x), rule, ladder)
        stopped = armijo_backtrack(fun, x, s.value(x), rule, ladder, resolution=1e-300)
        np.testing.assert_array_equal(stopped[0], plain[0])
        assert stopped[1:] == plain[1:]


class TestRowProtocol:
    """armijo_backtrack names each trial by its ladder row."""

    @staticmethod
    def clamped_ladder():
        # the first coordinate sits on its lower bound and the direction
        # pushes outward, the second clamps onto its upper bound for the
        # four longest steps (byte-equal rows) and stops moving from row
        # 55 on (4 * 0.5**55 is half an ulp of 1)
        box = (np.array([0.0, -1.0]), np.array([1.0, 1.5]))
        x = np.array([0.0, 1.0])
        ladder = backtracking_ladder(x, np.array([-1.0, 4.0]),
                                     SubproblemConfig(kappa_bt=0.5, j_max=60), box)
        assert len({row.tobytes() for row in ladder[:4]}) == 1
        assert not np.any(x - ladder[55:]) and np.all(np.any(x - ladder[:55], axis=1))
        return x, ladder

    def test_callbacks_get_each_moving_row_once_in_order(self):
        x, ladder = self.clamped_ladder()
        calls = []

        def fun(j):
            calls.append(("fun", j))
            return 0.0                       # every trial passes the Armijo test

        def feasible(j):
            calls.append(("feasible", j))
            return False                     # and fails this one

        with pytest.raises(LineSearchError, match="within 60 backtracking steps"):
            armijo_backtrack(fun, x, 1.0, lambda step: 0.5, ladder, feasible=feasible)
        assert calls == [(name, j) for j in range(55) for name in ("fun", "feasible")]

    def test_accepted_row_is_returned_with_its_index(self):
        x, ladder = self.clamped_ladder()
        point, value, j = armijo_backtrack(lambda j: 1.0 - j, x, 1.0, lambda step: 2.5, ladder,
                                           feasible=lambda j: j != 3)
        assert (value, j) == (-3.0, 4)
        assert point.tobytes() == ladder[4].tobytes()
        point[:] = 7.0                       # a copy, not a view of the ladder
        assert ladder[4, 0] == 0.0

    def test_scores_find_each_row_by_index(self, monkeypatch):
        # byte-equal rows each get their own row of a block, and blocks of
        # CHUNK rows start at the first row past the current one
        x, ladder = self.clamped_ladder()
        s = fit(make_kernel("gaussian", 1.0, 2),
                TrainingSet(np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([2.0, 3.0]),
                            np.array([[1.0, 0.0], [0.0, 1.0]])), norm_bound=1.0)
        scored = []
        block = s.block
        monkeypatch.setattr(s, "block", lambda points: scored.append(points) or block(points))
        scores = subproblem._LadderScores(s, 0.5, ladder)
        for j in range(55):
            got, i = scores.row(j)
            assert got.points[i].tobytes() == ladder[j].tobytes()
            assert got.values[i] == s.value(ladder[j])
            assert i == j % CHUNK
        assert len(scored) == -(-55 // CHUNK)


class TestSolve:
    def test_stationary_start(self):
        s = quadratic_surrogate()
        cfg = SubproblemConfig(tau_sub=1e-6)
        res = solve(s, np.array([0.0]), delta=1.0, cfg=cfg, box=unbounded(1))
        assert res.termination is Termination.STATIONARY_INNER
        np.testing.assert_array_equal(res.candidate, [0.0])
        np.testing.assert_array_equal(res.agc, [0.0])
        assert res.iterates == []

    def test_converges_to_quadratic_minimizer(self):
        # closed-form oracle: the bowl's minimizer is its center
        s = quadratic_surrogate(center=0.4)
        cfg = SubproblemConfig(tau_sub=1e-7)
        res = solve(s, np.array([1.3]), delta=1e3, cfg=cfg, box=unbounded(1))
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
        res = solve(s, np.array([mu]), delta=delta, cfg=cfg, box=unbounded(1))
        assert res.termination is Termination.NEAR_BOUNDARY
        ratio = s.norm_bound * s.power(res.candidate) / s.value(res.candidate)
        assert cfg.beta2 * delta <= ratio <= delta

    def test_inner_values_strictly_decrease(self):
        s = quadratic_surrogate(center=-0.3)
        res = solve(s, np.array([1.7]), delta=10.0, cfg=SubproblemConfig(tau_sub=1e-7),
                    box=unbounded(1))
        values = [s.value(np.array([1.7]))] + [s.value(p) for p in res.iterates]
        for a, b in zip(values, values[1:]):
            assert b < a

    def test_agc_satisfies_first_step_decrease(self):
        # literal sufficient-decrease inequality at the first accepted step;
        # the first direction is steepest descent so the angle term is 1
        s = quadratic_surrogate(center=0.2)
        cfg = SubproblemConfig()
        x0 = np.array([1.4])
        res = solve(s, x0, delta=10.0, cfg=cfg, box=unbounded(1))
        g0 = s.gradient(x0)
        lhs = s.value(x0) - s.value(res.agc)
        rhs = cfg.kappa_arm * np.linalg.norm(g0) * np.linalg.norm(x0 - res.agc)
        assert lhs >= rhs

    def test_feasibility_at_accepted_iterates(self):
        s = quadratic_surrogate()
        delta = 0.05
        res = solve(s, np.array([1.2]), delta=delta, cfg=SubproblemConfig(tau_sub=1e-9),
                    box=unbounded(1))
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
        res = solve(s, np.array([1.9]), delta=1e3, cfg=SubproblemConfig(), box=unbounded(1))
        assert res.iterates, "expected at least one accepted inner step"
        np.testing.assert_array_equal(res.agc, res.iterates[0])

    def test_infeasible_start_raises(self):
        s = quadratic_surrogate()
        # a huge norm bound makes the start violate the ratio constraint
        inflated = fit(s.kernel, s.training, norm_bound=1e12)
        with pytest.raises(AssumptionViolationError):
            solve(inflated, np.array([1.9]), delta=1e-8, cfg=SubproblemConfig(),
                  box=unbounded(1))

    def test_trial_below_positivity_floor_is_infeasible(self, monkeypatch):
        # a steep line through the data: the full steepest-descent step
        # lands where the surrogate is negative, so backtracking has to
        # reject trials below the floor and shorten the step
        k = make_kernel("gaussian", 1.0, 1)
        pts = np.linspace(-2.0, 2.0, 21)[:, None]
        s = fit(k, TrainingSet(pts, 3.0 * pts[:, 0] + 1.0, np.full((21, 1), 3.0)),
                norm_bound=1.0)
        trials = []
        backtrack = subproblem.armijo_backtrack

        def recording(fun, x, fx, rule, ladder, **kwargs):
            def recorded(j):
                trials.append(ladder[j].copy())
                return fun(j)
            return backtrack(recorded, x, fx, rule, ladder, **kwargs)

        monkeypatch.setattr(subproblem, "armijo_backtrack", recording)
        delta = 0.5
        res = solve(s, np.array([0.0]), delta=delta, cfg=SubproblemConfig(l_max=1),
                    box=unbounded(1))
        assert s.value(trials[0]) <= POSITIVITY_FLOOR
        np.testing.assert_array_equal(res.agc, trials[-1])
        assert len(trials) > 1
        assert s.value(res.agc) > POSITIVITY_FLOOR
        assert constraint_value(s, delta, res.agc) >= 0.0

    def test_non_descent_direction_resets_to_steepest_descent(self, monkeypatch):
        # an update that returns -I turns every BFGS direction uphill; each
        # line search must then run along the negative gradient
        monkeypatch.setattr(subproblem, "bfgs_inverse_update",
                            lambda hinv, step, y: -np.eye(step.shape[0]))
        searches = []
        ladder = subproblem.backtracking_ladder

        def recording(x, direction, *args):
            searches.append((x.copy(), direction.copy()))
            return ladder(x, direction, *args)

        monkeypatch.setattr(subproblem, "backtracking_ladder", recording)
        s = quadratic_surrogate(center=0.4)
        solve(s, np.array([1.3]), delta=1e3,
              cfg=SubproblemConfig(kappa_bt=0.3, tau_sub=1e-12, l_max=3), box=unbounded(1))
        assert len(searches) == 3
        for x, direction in searches:
            np.testing.assert_array_equal(direction, -s.gradient(x))

    def test_candidate_never_above_agc(self, family):
        """The candidate's surrogate value never exceeds the one at the AGC point.

        Every inner step after the AGC point is an Armijo descent step, and
        a failed line search returns the last accepted iterate.  The outer
        loop has no bound-certified rejection because of this: that branch
        would need s(candidate) - eta > s(agc).  If this test fails, the
        inner solver is no longer monotone and a certified rejection is
        reachable again.
        """
        problem = problem_rosenbrock()
        kernel = make_kernel(family, 1.0, 2)
        terminations = set()
        for seed in range(3):
            pts = np.random.default_rng(seed).uniform(-1.5, 1.5, (6, 2))
            vals, grads = map(np.array, zip(*(peek(problem, x) for x in pts)))
            s = fit(kernel, TrainingSet(pts, vals, grads), norm_bound=float(vals.max()))
            # the outer loop starts each inner solve at a center; short
            # backtracking budgets make the line search fail after the AGC
            for x0 in pts:
                for delta in (1e-3, 0.1, 2.0):
                    for j_max in (12, 18, 24):
                        try:
                            res = solve(s, x0, delta, SubproblemConfig(j_max=j_max),
                                        unbounded(2))
                        except (LineSearchError, AssumptionViolationError):
                            continue
                        terminations.add(res.termination)
                        assert s.value(res.candidate) <= s.value(res.agc)
        assert Termination.LINE_SEARCH_FAILED in terminations
        assert Termination.NEAR_BOUNDARY in terminations


def outcome(run, *args):
    """A solve's result as bytes, or its error's type and message."""
    try:
        res = run(*args)
    except (LineSearchError, AssumptionViolationError) as exc:
        return type(exc).__name__, str(exc)
    return (res.candidate.tobytes(), res.agc.tobytes(),
            [p.tobytes() for p in res.iterates], res.termination)


class TestChunkedSearch:
    """The ladder scored a chunk at a time decides as the per-trial loop does, bit for bit."""

    def test_ladder_rows_are_the_per_trial_points(self, rng):
        for dim in (1, 2, 3):
            for box in (unbounded(dim), (np.full(dim, -1.0), np.full(dim, 0.5))):
                x = project_box(rng.uniform(-1.5, 1.5, dim), box)
                direction = rng.normal(size=dim) * 10.0 ** rng.integers(-12, 3)
                direction[0] = 0.0 if dim > 1 else direction[0]
                cfg = SubproblemConfig(kappa_bt=float(rng.uniform(0.1, 0.9)), j_max=60)
                ladder = backtracking_ladder(x, direction, cfg, box)
                assert ladder.shape == (cfg.j_max + 1, dim)
                for j, row in enumerate(ladder):
                    trial = project_box(x + cfg.kappa_bt**j * direction, box)
                    assert row.tobytes() == trial.tobytes(), (dim, j)

    @pytest.mark.parametrize("resolution", [None, 1e-9])
    def test_backtrack_matches_per_trial_loop(self, resolution, rng):
        # the direct baseline's use: no feasibility test, a rounding stop
        box = (np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        for _ in range(60):
            # some starts on a bound, some directions short enough that the
            # ladder ends in steps that round to zero
            x = project_box(rng.uniform(-1.3, 1.3, 2), box)
            grad = rng.normal(size=2)
            direction = -grad * 10.0 ** rng.integers(-12, 3)
            offset = rng.uniform(-1, 1, 2)

            def fun(point):
                return float((point - offset) @ (point - offset)) + 1.0

            rule = projected_decrease_rule(1e-4, grad)
            cfg = SubproblemConfig(j_max=int(rng.integers(3, 60)))
            ladder = backtracking_ladder(x, direction, cfg, box)
            results = []
            for search, args in (
                (armijo_backtrack, (lambda j: fun(ladder[j]), x, fun(x), rule, ladder)),
                (per_trial_backtrack, (fun, x, fun(x), rule, direction, cfg, box)),
            ):
                try:
                    point, value, j = search(*args, resolution=resolution)
                    results.append((point.tobytes(), value, j))
                except LineSearchError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_matches_per_trial_oracle(self, family, dim, rng):
        kernel = kernel_for(family, dim, 0.8)
        box = (np.full(dim, -1.0), np.full(dim, 1.2))
        seen = set()
        for _ in range(2):
            pts = rng.uniform(-1.5, 1.5, (6, dim))
            vals = (pts**2).sum(axis=1) + 1.0 + 0.3 * pts[:, 0]
            grads = 2.0 * pts + 0.3 * np.eye(dim)[0]
            s = fit(kernel, TrainingSet(pts, vals, grads), norm_bound=float(vals.max()))
            starts = [*pts[:3], project_box(pts[3], box), rng.uniform(-1.0, 1.2, dim)]
            for x0 in starts:
                for delta in (1e-3, 0.1, 2.0):
                    for sub_box in (unbounded(dim), box):
                        for cfg in (SubproblemConfig(), SubproblemConfig(j_max=5, l_max=4)):
                            args = (x0, delta, cfg, sub_box)
                            got = outcome(solve, s, *args)
                            assert got == outcome(per_trial_solve, dataclasses.replace(s), *args)
                            seen.add(got[-1] if len(got) == 4 else got[0])
        # the runs reach more than one way of stopping and of failing
        assert len(seen) >= 3

    def test_trials_below_positivity_floor_match_oracle(self):
        # the steep line of test_trial_below_positivity_floor_is_infeasible
        k = make_kernel("gaussian", 1.0, 1)
        pts = np.linspace(-2.0, 2.0, 21)[:, None]
        s = fit(k, TrainingSet(pts, 3.0 * pts[:, 0] + 1.0, np.full((21, 1), 3.0)),
                norm_bound=1.0)
        for l_max in (1, 3, 50):
            args = (np.array([0.0]), 0.5, SubproblemConfig(l_max=l_max), unbounded(1))
            got = outcome(solve, s, *args)
            assert got == outcome(per_trial_solve, dataclasses.replace(s), *args)

    def test_clamped_onto_a_center_matches_oracle(self):
        # the bowl's minimizer lies left of the box, whose lower bound is
        # a center: long trials clamp onto it, where the power is ~0
        s = quadratic_surrogate(center=-3.0, half_width=5.0, n=51)
        assert -2.0 in s.training.points[:, 0]
        box = (np.array([-2.0]), np.array([2.0]))
        for x0 in (-1.5, 0.3, 1.9):
            for delta in (1e-4, 0.05, 1.0):
                args = (np.array([x0]), delta, SubproblemConfig(), box)
                got = outcome(solve, s, *args)
                assert got == outcome(per_trial_solve, dataclasses.replace(s), *args)

    def test_deep_search_matches_oracle(self, family):
        # from a center with a radius below any power away from it, every
        # trial is infeasible until the power rounds to zero: the search
        # runs through several chunks, or fails after a short j_max
        kernel = kernel_for(family, 2, 0.8)
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2))
        s = fit(kernel, TrainingSet(pts, (pts**2).sum(axis=1) + 1.0, 2.0 * pts), norm_bound=3.0)
        outcomes = set()
        for j_max in (5, 2 * CHUNK + 3, 80):
            for delta in (1e-300, 1e-9):
                args = (pts[0], delta, SubproblemConfig(j_max=j_max, l_max=2), unbounded(2))
                got = outcome(solve, s, *args)
                assert got == outcome(per_trial_solve, dataclasses.replace(s), *args)
                outcomes.add(got[0] if len(got) == 2 else "solved")
        assert outcomes == {"LineSearchError", "solved"}

    @pytest.mark.parametrize("scale", [1e-3, 1.0])
    def test_scored_search_through_zero_steps_matches_per_trial_loop(self, family, scale):
        # the search as solve runs it, by hand: uphill, every trial fails
        # the Armijo test, down to the steps that round to zero and are
        # skipped; downhill, it accepts or meets the trust region
        kernel = kernel_for(family, 2, 0.8)
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 2))
        s = fit(kernel, TrainingSet(pts, (pts**2).sum(axis=1) + 1.0, 2.0 * pts), norm_bound=3.0)
        cfg = SubproblemConfig(j_max=70)
        x = pts[1]
        grad = s.gradient(x)
        for direction, delta in ((grad * scale, 1.0), (-grad * scale, 1e-3), (-grad, 1e-9)):
            rule = angle_decrease_rule(cfg.kappa_arm, float(np.linalg.norm(grad)), 1.0)
            ladder = backtracking_ladder(x, direction, cfg, unbounded(2))
            assert not np.any(x - ladder[-1])           # the ladder ends in zero steps
            results = []
            value, feasible = self._scored(s, delta, ladder)
            oracle_value, oracle_feasible = self._per_point(dataclasses.replace(s), delta)
            asked = [[], []]

            def scored(j):
                asked[0].append(ladder[j].tobytes())
                return value(j)

            def per_point(point):
                asked[1].append(point.tobytes())
                return oracle_value(point)

            for search, args in (
                (armijo_backtrack, (scored, x, s.value(x), rule, ladder, feasible)),
                (per_trial_backtrack, (per_point, x, s.value(x), rule, direction, cfg,
                                       unbounded(2), oracle_feasible)),
            ):
                try:
                    point, value_at, j = search(*args)
                    results.append((point.tobytes(), value_at, j))
                except LineSearchError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            assert asked[0] == asked[1]

    def test_accepted_trials_need_no_second_distance_pass(self, family, monkeypatch):
        # the memo takes each accepted trial from its block, so the
        # gradient and trust-region reads there pass over no distances:
        # the only one-row block a point query builds is the start's
        kernel = kernel_for(family, 2, 0.8)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 2))
        s = fit(kernel, TrainingSet(pts, (pts**2).sum(axis=1) + 1.0, 2.0 * pts), norm_bound=3.0)
        built = []              # (points, whether s.block built the block)
        in_block = []
        block = s.block

        class Recorded(surrogate.PointBlock):
            __slots__ = ()

            def __init__(self, owner, points):
                built.append((np.array(points), bool(in_block)))
                super().__init__(owner, points)

        def recorded_block(points):
            in_block.append(points)
            try:
                return block(points)
            finally:
                in_block.pop()

        monkeypatch.setattr(surrogate, "PointBlock", Recorded)
        monkeypatch.setattr(s, "block", recorded_block)
        res = solve(s, pts[0], 0.5, SubproblemConfig(), unbounded(2))
        assert len(res.iterates) >= 2
        queried = [points for points, by_block in built if not by_block]
        assert [q.tobytes() for q in queried] == [pts[0][None, :].tobytes()]
        assert len(built) > 1                          # the ladder's blocks

    @staticmethod
    def _scored(s, delta, ladder):
        scores = subproblem._LadderScores(s, delta, ladder)
        return scores.value, scores.feasible

    @staticmethod
    def _per_point(s, delta):
        def feasible(trial):
            val = s.value(trial)
            return val > POSITIVITY_FLOOR and delta - s.norm_bound * s.power(trial) / val >= 0.0
        return s.value, feasible
