"""Direct projected BFGS reference optimizer."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hermite_tr import baseline
from hermite_tr.baseline import BaselineConfig, minimize, reference_solution
from hermite_tr.errors import HermiteTrError
from hermite_tr.harness import load_config, sample_starts
from hermite_tr.problems import Problem, make_problem, problem_1d, problem_rosenbrock
from hermite_tr.subproblem import SubproblemConfig, projected_gradient_norm

from oracles import peek

# the backtracking the harness hands the baseline: the inner solver's
LS = SubproblemConfig()

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


class TestOneD:
    def test_converges_from_random_starts(self, rng):
        for _ in range(5):
            p = problem_1d()
            report = minimize(p, rng.uniform(-2, 2, 1),
                              BaselineConfig(tau_foc=1e-7, tau_j=1e-14), LS)
            assert abs(report.final_iterate[0]) <= 1e-6
            assert abs(report.final_j - 2.0) <= 1e-12

    def test_accepted_values_monotone(self, rng):
        p = problem_1d()
        report = minimize(p, np.array([1.7]), BaselineConfig(tau_foc=1e-7), LS)
        js = [r.j_value for r in report.log]
        for a, b in zip(js, js[1:]):
            assert b <= a

    def test_counts_every_call(self):
        p = problem_1d()
        report = minimize(p, np.array([1.0]), BaselineConfig(), LS)
        assert report.fom_evals == p.counter


class TestRosenbrock:
    def test_reaches_global_minimum(self):
        p = problem_rosenbrock()
        report = minimize(p, np.array([-1.2, 1.0]),
                          BaselineConfig(tau_foc=1e-7, tau_j=1e-16, i_max=500), LS)
        assert report.final_j <= 1.0 + 1e-8

    def test_non_descent_direction_resets_to_steepest_descent(self, monkeypatch):
        # an update that returns -I turns every quasi-Newton direction
        # uphill; each line search must then run along the negative gradient
        monkeypatch.setattr(baseline, "bfgs_inverse_update",
                            lambda hinv, step, y: -np.eye(step.shape[0]))
        searches = []
        ladder = baseline.backtracking_ladder

        def recording(x, direction, *args):
            searches.append((x.copy(), direction.copy()))
            return ladder(x, direction, *args)

        monkeypatch.setattr(baseline, "backtracking_ladder", recording)
        p = problem_rosenbrock()
        minimize(p, np.array([-1.2, 1.0]), BaselineConfig(i_max=3), LS)
        assert len(searches) == 3
        for x, direction in searches:
            np.testing.assert_array_equal(direction, -peek(p, x)[1])


class TestAcceptedGradient:
    @pytest.mark.parametrize("make,x0,box", [
        (problem_rosenbrock, [-1.2, 1.0], None),
        (problem_rosenbrock, [-1.2, 1.0], ([-1.5, 0.2], [0.8, 0.6])),
        (problem_1d, [1.9], None),
    ])
    def test_gradient_after_each_step_is_the_accepted_trials(self, make, x0, box,
                                                             monkeypatch):
        # each iteration's stationarity test, and the report's, reads the
        # gradient the accepted trial's own evaluation returned: the bits
        # of the problem's function there
        problem = make()
        if box is not None:
            problem.lower, problem.upper = map(np.array, box)
        seen = []
        measure = baseline.projected_gradient_norm

        def recording(x, grad, box):
            seen.append((x.copy(), grad.copy()))
            return measure(x, grad, box)

        monkeypatch.setattr(baseline, "projected_gradient_norm", recording)
        report = minimize(problem, np.array(x0), BaselineConfig(i_max=25), LS)
        # the start, then each accepted trial (the last may be read twice)
        steps = len(report.log)
        assert steps >= 5
        assert [x.tolist() for x, _ in seen[1:steps + 1]] == [r.candidate for r in report.log]
        for x, grad in seen:
            assert grad.tobytes() == peek(problem, x)[1].tobytes()


class TestBoxConstrained:
    def make_bowl(self):
        center = np.array([3.0, 0.5])

        def fn(x):
            d = x - center
            return float(d @ d + 5.0), 2.0 * d

        return Problem(name="bowl",
                       lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]), fn=fn)

    def test_stops_on_face_with_small_projected_gradient(self):
        # unconstrained minimizer (3, 0.5) is outside; the constrained
        # optimum (1, 0.5) follows in closed form
        p = self.make_bowl()
        report = minimize(p, np.array([-0.5, -0.5]), BaselineConfig(tau_foc=1e-8), LS)
        np.testing.assert_allclose(report.final_iterate, [1.0, 0.5], atol=1e-6)
        assert report.final_foc <= 1e-8

    def test_iterates_stay_in_box(self):
        p = self.make_bowl()
        report = minimize(p, np.array([0.0, 0.0]), BaselineConfig(tau_foc=1e-8), LS)
        for rec in report.log:
            assert np.all(np.abs(rec.candidate) <= 1.0 + 1e-15)

    def test_clamps_start(self):
        p = self.make_bowl()
        report = minimize(p, np.array([9.0, 9.0]), BaselineConfig(tau_foc=1e-8), LS)
        assert report.final_foc <= 1e-8


class TestReference:
    def test_one_d_reference(self, rng):
        p = problem_1d()
        starts = rng.uniform(-2, 2, (3, 1))
        x_ref, j_ref, _ = reference_solution(p, starts, LS)
        assert abs(x_ref[0]) <= 1e-8
        assert j_ref == pytest.approx(2.0, abs=1e-14)

    def test_rosenbrock_reference(self):
        p = problem_rosenbrock()
        x_ref, j_ref, _ = reference_solution(p, np.array([[-1.2, 1.0], [0.0, 0.0]]), LS)
        np.testing.assert_allclose(x_ref, [1.0, 1.0], atol=1e-5)
        assert j_ref == pytest.approx(1.0, abs=1e-10)

    def test_needs_at_least_one_start(self):
        with pytest.raises(ValueError):
            reference_solution(problem_1d(), np.empty((0, 1)), LS)

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
        x_ref, j_ref, _ = reference_solution(p, starts, LS)
        assert j_ref == pytest.approx(self.GOLDEN_PDE96_J, rel=1e-9)
        assert x_ref[0] == pytest.approx(self.GOLDEN_PDE96_X[0], abs=1e-3)
        assert x_ref[1] == pytest.approx(self.GOLDEN_PDE96_X[1], abs=1e-8)


def noisy_bowl():
    """2D quadratic bowl, minimum 2 at (0.3, -0.2), with a 1e-13 relative value noise.

    The noise is a deterministic function of the point's bytes, like the
    rounding of an expensive solver; the gradient is exact.
    """
    center = np.array([0.3, -0.2])
    hessian = np.array([[3.0, 1.0], [1.0, 2.0]])
    seen = []

    def exact(x):
        d = x - center
        return 2.0 + 0.5 * float(d @ hessian @ d)

    def fn(x):
        seen.append(exact(x))
        noise = np.random.default_rng(np.frombuffer(x.tobytes(), dtype=np.uint32)).uniform(-1, 1)
        return exact(x) * (1.0 + 1e-13 * noise), hessian @ (x - center)

    problem = Problem(name="noisy_bowl", lower=np.full(2, -2.0), upper=np.full(2, 2.0), fn=fn)
    return problem, seen


def without_rounding_stop(monkeypatch):
    """Run minimize's line searches as if it passed no resolution."""
    backtrack = baseline.armijo_backtrack

    def unguarded(*args, resolution=None, **kwargs):
        return backtrack(*args, **kwargs)

    monkeypatch.setattr(baseline, "armijo_backtrack", unguarded)


class TestRoundingStop:
    def test_resolution_is_one_rounding_unit_of_fx(self, monkeypatch):
        calls = []
        backtrack = baseline.armijo_backtrack

        def recording(fun, x, fx, *args, **kwargs):
            calls.append((fx, kwargs["resolution"]))
            return backtrack(fun, x, fx, *args, **kwargs)

        monkeypatch.setattr(baseline, "armijo_backtrack", recording)
        minimize(problem_rosenbrock(), np.array([-1.2, 1.0]), BaselineConfig(i_max=20), LS)
        assert len(calls) >= 20
        for fx, resolution in calls:
            assert resolution == LS.kappa_arm * np.finfo(float).eps * abs(fx)

    def test_noisy_objective_stops_near_the_noise_floor(self):
        # once the exact gap to the minimum is below the noise, every Armijo
        # test is a coin flip; the reference may take a few such steps, but
        # its failed searches stop at the rounding level, not after j_max
        # trials.  Evaluations past the floor average 5.85 a start here, and
        # 55.55 (up to 144) without the stop.
        rng = np.random.default_rng(5)
        past_floor = []
        for x0 in rng.uniform(-2.0, 2.0, (20, 2)):
            problem, seen = noisy_bowl()
            _, j_ref, runs = reference_solution(problem, x0[None, :], LS)
            gaps = np.array(seen) - 2.0
            assert np.any(gaps <= 2e-13)
            past_floor.append(len(seen) - 1 - int(np.argmax(gaps <= 2e-13)))
            assert abs(j_ref - 2.0) <= 1e-12 * 2.0
            assert [(r["start"], r["fom_evals"]) for r in runs] == [(0, problem.counter)]
        assert np.mean(past_floor) <= 10

    @pytest.mark.parametrize("name,seeds", [("one_d", range(30)), ("rosenbrock", range(15))])
    def test_seed_scan_baseline_unchanged_reference_cheaper(self, name, seeds, monkeypatch):
        # over these seeds of the bundled config, the stop changes no
        # baseline run and no reference J; it only saves reference evaluations
        def scan():
            out = []
            for seed in seeds:
                cfg = replace(load_config(CONFIG_DIR / f"{name}.yaml"), seed=seed)
                problem = make_problem(cfg.problem, grid_n=cfg.grid_n)
                starts = sample_starts(cfg, problem)
                _, j_ref, runs = reference_solution(problem, starts, cfg.tr.sub)
                reports = []
                for x0 in starts:
                    try:
                        reports.append(minimize(problem, x0, cfg.baseline, cfg.tr.sub).to_dict())
                    except HermiteTrError as exc:
                        reports.append(f"{type(exc).__name__}: {exc}")
                out.append((j_ref, sum(r["fom_evals"] for r in runs), reports))
            return out

        guarded = scan()
        with monkeypatch.context() as m:
            without_rounding_stop(m)
            unguarded = scan()
        for (j, evals, reports), (j_old, evals_old, reports_old) in zip(guarded, unguarded):
            assert j == j_old
            assert reports == reports_old
            assert evals <= evals_old
        assert sum(g[1] for g in guarded) < sum(u[1] for u in unguarded)
