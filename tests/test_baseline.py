"""Direct projected BFGS reference optimizer."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from hermite_tr import baseline
from hermite_tr.baseline import (
    REFERENCE,
    BaselineConfig,
    minimize,
    minimize_each,
    reference_solution,
)
from hermite_tr.errors import ConfigError, HermiteTrError, NumericalError, failure_text
from hermite_tr.harness import config_from_dict, load_config, run_experiment, sample_starts
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

    def test_the_last_step_ends_stagnation_when_it_stagnates(self):
        # the stagnation test of a step comes before the iteration budget
        report = minimize(problem_1d(), np.array([1.7]), BaselineConfig(tau_j=1.0, i_max=1), LS)
        assert (report.outer_iters, report.termination) == (1, "stagnation")


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

    def test_an_empty_start_list_is_no_start(self):
        with pytest.raises(ValueError, match="need at least one start"):
            reference_solution(problem_1d(), [], LS)

    @pytest.mark.parametrize("solver", ["minimize", "reference_solution"])
    def test_start_of_the_wrong_dimension_refused_before_any_evaluation(self, solver):
        p = problem_1d()
        with pytest.raises(ConfigError, match=r"x0 must have shape \(1,\), got \(2,\)"):
            if solver == "minimize":
                minimize(p, np.array([0.5, 1.0]), BaselineConfig(), LS)
            else:
                reference_solution(p, [[0.5, 1.0], [1.5, -1.0]], LS)
        assert p.counter == 0

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


class TestRetracesReference:
    """From a shared start the baseline walks the reference's path and stops on it.

    Both backtrack with the one line search and differ only in when they
    stop, so the baseline's accepted iterates are the first of the
    reference's, bit for bit, and cost no more evaluations.
    """

    @staticmethod
    def report(cfg, x0, baseline_cfg):
        """minimize's report from x0 on a fresh problem, the partial one if the run stalls."""
        problem = make_problem(cfg.problem, grid_n=cfg.grid_n)
        try:
            return minimize(problem, x0, baseline_cfg, cfg.tr.sub)
        except NumericalError as exc:
            return exc.report

    @pytest.mark.parametrize("name,grid_n", [("one_d", None), ("rosenbrock", None),
                                             ("pde2d", 24)])
    def test_baseline_log_is_a_prefix_of_the_reference_log(self, name, grid_n):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        if grid_n is not None:
            cfg = replace(cfg, grid_n=grid_n)
        for x0 in sample_starts(cfg, make_problem(cfg.problem, grid_n=cfg.grid_n)):
            base, ref = (self.report(cfg, x0, c) for c in (cfg.baseline, REFERENCE))
            assert 0 < len(base.log) <= len(ref.log)
            for b, r in zip(base.log, ref.log):
                assert np.array(b.candidate).tobytes() == np.array(r.candidate).tobytes()
            assert base.fom_evals <= ref.fom_evals


def standalone(cfg, x0, rule):
    """(evaluations, termination, report JSON or failure text) of minimize by rule
    from x0 on a fresh problem of cfg's."""
    problem = make_problem(cfg.problem, grid_n=cfg.grid_n)
    try:
        report = minimize(problem, x0, rule, cfg.tr.sub)
    except NumericalError as exc:
        termination = "failed" if exc.report is None else exc.report.termination
        return problem.counter, termination, failure_text(exc)
    return report.fom_evals, report.termination, json.dumps(report.to_dict())


def bundled(name, **over):
    """A bundled config's mapping with the sections in over merged into it."""
    data = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    for key, value in over.items():
        data[key] = {**data.get(key, {}), **value} if isinstance(value, dict) else value
    return data


# one_d's baseline with tau_foc below REFERENCE's: at start 0 the reference
# ends foc and the run then stalls before the baseline's rule fires
TIGHT_ONE_D = {"trust_region": {"tau_foc": 1.0e-12}}


class TestSharedRun:
    """One run per start gives the baseline and the reference what their own runs give."""

    @pytest.mark.parametrize("rules", [
        (BaselineConfig(i_max=5), BaselineConfig(i_max=12)),
        (BaselineConfig(i_max=12), BaselineConfig(i_max=5)),
        (REFERENCE, BaselineConfig(tau_foc=1e-5, tau_j=1e-15)),
    ])
    def test_each_rule_reports_as_its_standalone_run(self, rules):
        cfg = config_from_dict(bundled("rosenbrock"))
        x0 = np.array([-1.2, 1.0])
        problem = problem_rosenbrock()
        try:
            outcomes = [(r.fom_evals, r.termination, json.dumps(r.to_dict()))
                        for r in minimize_each(problem, x0, rules, cfg.tr.sub)]
        except NumericalError as exc:
            outcomes = [(r.fom_evals, r.termination, json.dumps(r.to_dict())) if r is not None else
                        (problem.counter, exc.report.termination, failure_text(exc))
                        for r in exc.fired]
        alone = [standalone(cfg, x0, rule) for rule in rules]
        assert outcomes == alone
        assert problem.counter == max(evals for evals, _, _ in alone)

    @pytest.mark.parametrize("name,over", [
        ("one_d", {}),
        ("rosenbrock", {}),
        ("pde2d", {"grid_n": 24}),
        ("one_d", TIGHT_ONE_D),
        ("rosenbrock", {"baseline": {"i_max": 600}}),
    ], ids=["one_d", "rosenbrock", "pde2d-24", "one_d-tau_foc-1e-12", "rosenbrock-i_max-600"])
    def test_experiment_reports_and_charges_as_standalone_runs(self, name, over):
        # the baseline's records are its standalone runs', bytes for bytes;
        # each start's run lasts until both rules fired, and the reference
        # is charged what the baseline's reports leave of it
        cfg = config_from_dict(bundled(name, **over))
        _, reports, meta = run_experiment(cfg)
        charged = 0
        for (k, item), x0, run in zip(reports["baseline"], meta["starts"], meta["reference_runs"]):
            base_evals, _, base = standalone(cfg, np.array(x0), cfg.baseline)
            ref_evals, ref_termination, _ = standalone(cfg, np.array(x0), REFERENCE)
            assert (item if isinstance(item, str) else json.dumps(item.to_dict())) == base
            assert run == {"start": k, "fom_evals": max(base_evals, ref_evals),
                           "termination": ref_termination}
            charged += run["fom_evals"] - (0 if isinstance(item, str) else item.fom_evals)
        assert meta["reference_fom_evals"] == charged

    def test_a_run_that_stalls_before_the_baseline_fires_fails_the_baseline(self):
        cfg = config_from_dict(bundled("one_d", **TIGHT_ONE_D))
        x0 = sample_starts(cfg, problem_1d())[0]
        problem = problem_1d()
        _, _, runs, [(k, failure)] = reference_solution(problem, x0[None, :], cfg.tr.sub,
                                                       cfg.baseline)
        assert k == 0 and runs[0]["termination"] == "foc"
        assert failure == standalone(cfg, x0, cfg.baseline)[2] \
            == "StalledError: line search failed along steepest descent"


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
