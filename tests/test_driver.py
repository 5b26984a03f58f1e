"""Outer loop: ratio, radius law, acceptance branches, full runs."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_tr import driver, surrogate
from hermite_tr.baseline import BaselineConfig
from hermite_tr.driver import (
    Branch,
    NormSource,
    RunReport,
    TRConfig,
    TRState,
    acceptance_step,
    model_decrease_degenerate,
    resolve_norm_bound,
    rho,
    run,
    stop_reason,
    update_radius,
)
from hermite_tr.errors import (
    AssumptionViolationError,
    ConfigError,
    IllConditionedGramError,
    LineSearchError,
    StalledError,
)
from hermite_tr.harness import load_config, run_experiment
from hermite_tr.kernels import make_kernel
from hermite_tr.problems import Problem, analytic_norm_1d_gaussian, problem_1d
from hermite_tr.subproblem import (
    SubproblemConfig,
    Termination,
    projected_gradient_norm,
    relative_decrease,
    solve,
)
from hermite_tr.surrogate import TrainingSet, fit

from oracles import peek, scored_result

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def cfg_1d(**overrides):
    defaults = dict(
        delta0=0.5, tau_foc=1e-6, tau_j=1e-14, i_max=60,
        sub=SubproblemConfig(tau_sub=1e-7),
    )
    defaults.update(overrides)
    return TRConfig(**defaults)


def run_1d(problem, shape, x0, cfg=None, norm_bound=None):
    """driver.run with a 1D Gaussian kernel and, by default, its exact norm bound."""
    if norm_bound is None:
        norm_bound = analytic_norm_1d_gaussian(shape)
    return run(problem, make_kernel("gaussian", shape, 1), x0, cfg or cfg_1d(), norm_bound)


class TestRatio:
    def test_equal_decreases(self):
        assert rho(3.0, 2.0, 3.0, 2.0) == 1.0

    def test_half(self):
        assert rho(1.0, 0.0, 2.0, 0.0) == 0.5

    def test_negative_actual(self):
        assert rho(1.0, 1.1, 2.0, 1.0) == pytest.approx(-0.1)

    def test_degenerate_detection(self):
        assert model_decrease_degenerate(2.0, 2.0)
        assert model_decrease_degenerate(2.0, 2.0 + 1e-15)
        assert not model_decrease_degenerate(2.0, 1.9)


class TestRadiusLaw:
    def test_very_successful_expands(self):
        cfg = TRConfig()
        assert update_radius(0.95, 1.0, cfg) == pytest.approx(2.0)

    def test_successful_keeps(self):
        assert update_radius(0.5, 1.0, TRConfig()) == 1.0

    def test_unsuccessful_shrinks(self):
        assert update_radius(0.05, 1.0, TRConfig()) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(-5, 5), d=st.floats(1e-8, 1e4))
    def test_law_cases(self, r, d):
        cfg = TRConfig()
        out = update_radius(r, d, cfg)
        if r >= cfg.xi2:
            assert out == d / cfg.beta_radius
        elif r >= cfg.xi1:
            assert out == d
        else:
            assert out == cfg.beta_radius * d


def _two_point_state(problem, kernel, mus, delta=0.5, norm_bound=None):
    """State fitted on the given abscissae, current iterate = first of them."""
    pts = np.array([[m] for m in mus])
    vals, grads = [], []
    for p in pts:
        v, g = problem.eval(p)
        vals.append(v)
        grads.append(g)
    if norm_bound is None:
        norm_bound = analytic_norm_1d_gaussian(kernel.shape)
    s = fit(kernel, TrainingSet(pts, np.array(vals), np.array(grads)), norm_bound=norm_bound)
    return TRState(iterate=pts[0].copy(), current_j=vals[0], delta=delta, surrogate=s)


class TestAcceptanceBranches:
    def setup_method(self):
        self.problem = problem_1d()
        self.kernel = make_kernel("gaussian", 0.725, 1)
        self.cfg = cfg_1d()

    def test_sufficient_branch_at_known_center(self):
        # candidate at an existing center: error bound vanishes, and its
        # surrogate value undercuts the one at the (farther) inner point
        state = _two_point_state(self.problem, self.kernel, [1.5, 0.2])
        result = scored_result(state.surrogate, state.iterate, np.array([0.2]),
                               [np.array([1.0]), np.array([0.2])], Termination.STATIONARY_INNER)
        evals_before = self.problem.counter
        record = acceptance_step(state, result, self.problem, self.cfg)
        assert record.branch is Branch.ACCEPTED_BY_SUFFICIENT
        assert record.sufficient_check_ok is True
        assert self.problem.counter == evals_before  # datum reused, no new call
        np.testing.assert_array_equal(state.iterate, [0.2])

    def test_degenerate_model_decrease_accepts_without_a_ratio(self):
        # the candidate is the iterate itself, a known center, and the
        # inner point lies uphill of it: the step is certified, but the
        # model decrease is zero, so no ratio is formed and the radius
        # shrinks by beta_radius
        cfg = cfg_1d(beta_radius=0.25)
        state = _two_point_state(self.problem, self.kernel, [0.2, 1.5])
        result = scored_result(state.surrogate, state.iterate, np.array([0.2]),
                               [np.array([1.0])], Termination.LINE_SEARCH_FAILED)
        delta_before = state.delta
        evals_before = self.problem.counter
        record = acceptance_step(state, result, self.problem, cfg)
        assert record.branch is Branch.ACCEPTED_BY_SUFFICIENT
        assert record.sufficient_check_ok is True
        assert record.note == "degenerate model decrease" and record.rho is None
        assert state.delta == record.delta_after == cfg.beta_radius * delta_before
        assert state.outer_iter == 1 and self.problem.counter == evals_before
        np.testing.assert_array_equal(state.iterate, [0.2])

    def test_direct_rejection_shrinks(self):
        # candidate at a known center with a HIGHER value than the inner
        # point: the bound vanishes there, so the stored datum decides
        state = _two_point_state(self.problem, self.kernel, [0.2, 1.5])
        result = scored_result(state.surrogate, state.iterate, np.array([1.5]),
                               [np.array([0.2])], Termination.STATIONARY_INNER)
        delta_before = state.delta
        evals_before = self.problem.counter
        record = acceptance_step(state, result, self.problem, self.cfg)
        assert record.branch is Branch.REJECTED_BY_DIRECT
        assert self.problem.counter == evals_before  # datum reused, no new call
        assert record.j_value == state.surrogate.training.values[1]
        assert state.delta == self.cfg.beta1_shrink * delta_before
        np.testing.assert_array_equal(state.iterate, [0.2])

    def test_direct_branch_matches_oracle(self):
        # candidate where the bounds are inconclusive (found by scanning a
        # seeded grid): the decision must equal the direct comparison with
        # the true objective
        state = _two_point_state(self.problem, self.kernel, [1.5, 0.9], delta=0.5)
        s = state.surrogate
        agc = np.array([1.2])
        jhat_agc = s.value(agc)
        cand = None
        for probe in np.linspace(-1.9, 1.9, 229):
            x = np.array([probe])
            if state.surrogate.training.find_close(x) is not None:
                continue
            jhat_c = s.value(x)
            eta = s.norm_bound * s.power(x)
            if jhat_c + eta > jhat_agc and jhat_c - eta <= jhat_agc:
                cand = x
                break
        assert cand is not None, "no inconclusive candidate on the probe grid"
        result = scored_result(s, state.iterate, cand, [agc, cand], Termination.NEAR_BOUNDARY)
        j_true = peek(self.problem, cand)[0]
        record = acceptance_step(state, result, self.problem, self.cfg)
        expected = (Branch.ACCEPTED_BY_DIRECT if j_true <= jhat_agc
                    else Branch.REJECTED_BY_DIRECT)
        assert record.branch is expected
        # the evaluated point joins the model either way
        assert state.surrogate.training.find_close(cand) is not None

    def test_refuted_certificate_rejects(self):
        # a fixed norm bound far below the objective's certifies candidates
        # whose evaluated J exceeds the value at the inner point (found by
        # scanning a grid with the uncounted oracle): the audit fails and
        # the step is rejected, not accepted
        state = _two_point_state(self.problem, self.kernel, [0.95, 1.5], norm_bound=1e-2)
        s = state.surrogate
        agc = np.array([0.7])
        jhat_agc = s.value(agc)
        cand = next(
            x for x in (np.array([c]) for c in np.linspace(-1.9, 1.9, 229))
            if s.value(x) + s.norm_bound * s.power(x) <= jhat_agc
            and peek(self.problem, x)[0] > jhat_agc + 1e-8 * (1.0 + abs(jhat_agc))
        )
        result = scored_result(s, state.iterate, cand, [agc, cand], Termination.NEAR_BOUNDARY)
        delta_before = state.delta
        record = acceptance_step(state, result, self.problem, self.cfg)
        assert record.branch is Branch.REJECTED_BY_DIRECT
        assert record.sufficient_check_ok is False
        assert record.j_value == peek(self.problem, cand)[0]
        assert state.delta == self.cfg.beta1_shrink * delta_before
        np.testing.assert_array_equal(state.iterate, [0.95])
        assert state.surrogate.training.find_close(cand) is not None

    def test_acceptance_makes_no_surrogate_query(self, monkeypatch):
        # after a real inner solve, every score the decision reads comes
        # with the result: the step builds no PointBlock, and its only
        # distance pass is the refit growing the Gram by the candidate.
        # The decrease ratio has the bits of point queries.
        state = _two_point_state(self.problem, self.kernel, [1.5, 0.9])
        s = state.surrogate
        result = solve(s, state.iterate, state.delta, self.cfg.sub,
                       (self.problem.lower, self.problem.upper))
        fresh = dataclasses.replace(s)
        expected_rho = rho(state.current_j, peek(self.problem, result.candidate)[0],
                           fresh.value(state.iterate), fresh.value(result.candidate))
        passes = []
        profiles = surrogate.radial_profiles

        def no_block(*args, **kwargs):
            raise AssertionError("acceptance_step built a PointBlock")

        monkeypatch.setattr(surrogate, "PointBlock", no_block)
        monkeypatch.setattr(surrogate, "radial_profiles",
                            lambda *args: passes.append(args) or profiles(*args))
        record = acceptance_step(state, result, self.problem, self.cfg)
        assert record.branch is Branch.ACCEPTED_BY_DIRECT
        assert state.surrogate.training.n == 3
        assert len(passes) == 1
        assert record.rho == expected_rho

    @pytest.mark.parametrize("x0", [-1.9, -0.95, 0.475, 1.425])
    def test_too_small_norm_bound_accepts_no_refuted_step(self, x0):
        problem = problem_1d()
        report = run_1d(problem, 0.725, [x0], norm_bound=1e-2)
        refuted = [r for r in report.log if r.sufficient_check_ok is False]
        assert refuted and report.audit_failures == len(refuted)
        assert all(r.branch is Branch.REJECTED_BY_DIRECT for r in refuted)
        # every accepted step decreased J, and the run still converges
        accepted = [r.j_value for r in report.log if r.branch in
                    (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT)]
        assert accepted == sorted(accepted, reverse=True)
        assert abs(report.final_j - 2.0) <= 1e-10


class TestWarmStart:
    """A run's first model holds the norm-estimate samples next to the start."""

    def samples(self, problem, n=12, seed=4):
        kernel = make_kernel("gaussian", 0.725, 1)
        source = NormSource(kind="estimated", n_samples=n, seed=seed)
        evals_before = problem.counter
        norm_bound, samples = resolve_norm_bound(source, kernel, problem,
                                                 (problem.lower, problem.upper))
        assert problem.counter - evals_before == n and samples.n == n
        return kernel, norm_bound, samples

    @staticmethod
    def first_fit(monkeypatch, problem):
        """Record (training set, problem counter) at every fit driver makes."""
        fits = []
        original = driver.fit

        def recording(kernel, training, norm_bound, previous=None):
            fits.append((training, problem.counter))
            return original(kernel, training, norm_bound, previous=previous)

        monkeypatch.setattr(driver, "fit", recording)
        return fits

    def test_first_fit_holds_start_then_samples(self, monkeypatch):
        problem = problem_1d()
        kernel, norm_bound, samples = self.samples(problem)
        fits = self.first_fit(monkeypatch, problem)
        x0 = np.array([1.3])
        before = problem.counter
        report = run(problem, kernel, x0, cfg_1d(), norm_bound, samples)
        first, counter = fits[0]
        assert counter == before + 1      # the start's own evaluation
        assert first.n == samples.n + 1
        np.testing.assert_array_equal(first.points[0], x0)
        assert first.values[0] == peek(problem, x0)[0]
        np.testing.assert_array_equal(first.points[1:], samples.points)
        np.testing.assert_array_equal(first.values[1:], samples.values)
        np.testing.assert_array_equal(first.gradients[1:], samples.gradients)
        # the samples are not charged to the run
        assert report.fom_evals == problem.counter - before
        assert abs(report.final_j - 2.0) <= 1e-10

    def test_start_at_a_sample_costs_no_evaluation(self, monkeypatch):
        problem = problem_1d()
        kernel, norm_bound, samples = self.samples(problem)
        fits = self.first_fit(monkeypatch, problem)
        k = 5
        before = problem.counter
        run(problem, kernel, samples.points[k], cfg_1d(), norm_bound, samples)
        first, counter = fits[0]
        assert counter == before
        assert first.n == samples.n
        rest = [i for i in range(samples.n) if i != k]
        np.testing.assert_array_equal(first.points, samples.points[[k] + rest])
        np.testing.assert_array_equal(first.values, samples.values[[k] + rest])
        np.testing.assert_array_equal(first.gradients, samples.gradients[[k] + rest])

    @pytest.mark.parametrize("trust_region", [
        {"norm_source": "analytic"},
        {"norm_source": "fixed", "norm_value": 3.0},
        {"norm_source": "estimated", "norm_samples": 12, "norm_seed": 4},
    ])
    def test_experiment_runs_start_from_the_norm_samples(self, monkeypatch, trust_region):
        from hermite_tr import harness

        cfg = harness.config_from_dict({
            "problem": "one_d", "n_starts": 3,
            "kernel": {"family": "gaussian", "shape": 0.725},
            "trust_region": trust_region,
        })
        resolved, given, first_sizes = [], [], []
        resolve, solve_run, fit_ = harness.resolve_norm_bound, harness.run, driver.fit

        def recording_resolve(*args, **kwargs):
            resolved.append(resolve(*args, **kwargs))
            return resolved[-1]

        def recording_run(problem, kernel, x0, tr, norm_bound, samples):
            given.append(samples)
            first_sizes.append(None)
            return solve_run(problem, kernel, x0, tr, norm_bound, samples)

        def recording_fit(kernel, training, norm_bound, previous=None):
            if first_sizes[-1] is None:
                first_sizes[-1] = training.n
            return fit_(kernel, training, norm_bound, previous=previous)

        monkeypatch.setattr(harness, "resolve_norm_bound", recording_resolve)
        monkeypatch.setattr(harness, "run", recording_run)
        monkeypatch.setattr(driver, "fit", recording_fit)
        harness.run_experiment(cfg)
        [(_, samples)] = resolved
        assert len(given) == 3 and all(s is samples for s in given)
        if trust_region["norm_source"] == "estimated":
            assert first_sizes == [13, 13, 13]
        else:
            assert samples is None and first_sizes == [1, 1, 1]


class TestRun:
    def test_stationary_start_terminates_immediately(self):
        problem = problem_1d()
        report = run_1d(problem, 0.725, [0.0])
        assert report.termination == "foc"
        assert report.outer_iters == 0
        assert report.fom_evals == 1

    def test_repeated_rejected_candidate_is_a_fixed_point(self, monkeypatch):
        # every inner solve returns the same known center, uphill of the
        # start: the first is rejected with the stored datum, and the
        # second, with no new data, ends the run as stagnation at the start
        problem = problem_1d()
        x0, center = np.array([0.2]), np.array([1.5])
        val, grad = peek(problem, center)
        samples = TrainingSet(center[None, :], np.array([val]), grad[None, :])
        solves = []

        def fixed_solve(s, x, delta, cfg, box):
            solves.append(delta)
            return scored_result(s, x, center.copy(), [], Termination.LINE_SEARCH_FAILED)

        monkeypatch.setattr(driver, "solve", fixed_solve)
        cfg = cfg_1d()
        report = run(problem, make_kernel("gaussian", 0.725, 1), x0, cfg,
                     analytic_norm_1d_gaussian(0.725), samples)
        assert report.termination == "stagnation"
        assert report.fom_evals == 1 and report.outer_iters == 0
        np.testing.assert_array_equal(report.final_iterate, x0)
        assert [r.branch for r in report.log] == [Branch.REJECTED_BY_DIRECT] * 2
        assert [r.note for r in report.log] == ["", "fixed-point candidate"]
        assert solves == [cfg.delta0, cfg.beta1_shrink * cfg.delta0]

    @pytest.mark.parametrize("x0", [-1.9, -0.7, 1.3, 1.8])
    def test_stops_on_the_objective_gradient_at_the_iterate(self, x0, monkeypatch):
        # the iterate is a center, so stationarity reads the objective's
        # gradient stored there: each accepted step's foc_measure and the
        # final foc are J's projected gradient at the iterate, and the run
        # makes no point query of the surrogate
        def point_query(*args, **kwargs):
            raise AssertionError("the run made a point query")

        for name in ("value", "gradient", "power"):
            monkeypatch.setattr(surrogate.Surrogate, name, point_query)
        problem = problem_1d()
        box = (problem.lower, problem.upper)
        cfg = cfg_1d()
        report = run_1d(problem, 0.725, [x0], cfg)
        accepted = [r for r in report.log
                    if r.branch in (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT)]
        assert accepted
        for r in accepted:
            x = np.array(r.candidate)
            assert r.foc_measure == projected_gradient_norm(x, peek(problem, x)[1], box)
        assert report.final_foc == accepted[-1].foc_measure
        assert report.termination == "foc" and report.final_foc <= cfg.tau_foc

    def test_stationarity_once_per_iterate(self, monkeypatch):
        # the bundled one_d runs: the start and each accepted step's iterate
        # get one stationarity measure, which the loop's test, the record
        # and the report share
        calls, stationarity = [], driver._stationarity
        monkeypatch.setattr(driver, "_stationarity",
                            lambda *a: calls.append(1) or stationarity(*a))
        _, reports, _ = run_experiment(load_config(CONFIG_DIR / "one_d.yaml"))
        runs = [r for group in reports.values() for _, r in group
                if isinstance(r, RunReport) and r.method == "kernel_tr"]
        assert len(runs) == 5 and all(r.outer_iters > 0 for r in runs)
        assert len(calls) == sum(1 + r.outer_iters for r in runs)

    def test_seeded_multistart_accuracy(self):
        # five uniform starts; evaluation counts and accuracy at the level
        # reported for this problem family
        rng = np.random.default_rng(0)
        evals, errors, focs = [], [], []
        for _ in range(5):
            problem = problem_1d()
            report = run_1d(problem, 0.725, rng.uniform(-2, 2, 1))
            evals.append(report.fom_evals)
            errors.append(abs(report.final_j - 2.0) / 2.0)
            focs.append(report.final_foc)
        assert np.mean(evals) <= 8.0
        assert np.mean(errors) <= 1e-10
        assert np.mean(focs) <= 1e-6

    def test_accepted_values_nonincreasing(self):
        problem = problem_1d()
        report = run_1d(problem, 1.0, [1.8])
        accepted = [r.j_value for r in report.log
                    if r.branch in (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT)]
        for a, b in zip(accepted, accepted[1:]):
            assert b <= a + 1e-12
        assert report.final_j <= accepted[0] + 1e-12

    def test_radius_transitions_follow_law(self):
        problem = problem_1d()
        cfg = cfg_1d()
        report = run_1d(problem, 2.0, [1.7], cfg)
        for rec in report.log:
            if rec.branch in (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT):
                if rec.rho is None:
                    assert rec.delta_after == pytest.approx(cfg.beta_radius * rec.delta_before)
                else:
                    assert rec.delta_after == pytest.approx(
                        update_radius(rec.rho, rec.delta_before, cfg))
            else:
                assert rec.delta_after == pytest.approx(cfg.beta1_shrink * rec.delta_before)

    def test_sufficient_branch_audit_clean(self):
        for seed in range(3):
            problem = problem_1d()
            rng = np.random.default_rng(seed)
            report = run_1d(problem, 0.725, rng.uniform(-2, 2, 1))
            assert report.audit_failures == 0

    def test_surrogate_true_value_consistency(self):
        problem = problem_1d()
        report = run_1d(problem, 0.725, [1.3])
        true_j = peek(problem, report.final_iterate)[0]
        assert abs(report.final_j - true_j) <= 1e-8 * (1.0 + abs(true_j))

    def test_box_feasibility_of_logged_candidates(self):
        problem = problem_1d()
        report = run_1d(problem, 1.0, [1.9])
        for rec in report.log:
            if rec.candidate is not None:
                assert -2.0 <= rec.candidate[0] <= 2.0

    def test_start_outside_box_is_clamped(self):
        problem = problem_1d()
        report = run_1d(problem, 0.725, [5.0])
        assert report.termination in ("foc", "stagnation")
        assert abs(report.final_iterate[0]) <= 2.0

    def test_stall_raises_with_partial_report(self):
        # gradients with flipped sign make the model propose uphill steps;
        # the first direct rejection exhausts a budget of one
        def fn(x):
            return float(x[0] ** 2 + 1.0), np.array([-2.0 * x[0]])

        problem = Problem(name="adversarial",
                          lower=np.array([-2.0]), upper=np.array([2.0]), fn=fn)
        cfg = cfg_1d(max_rejects=1, tau_foc=1e-9, sub=SubproblemConfig(tau_sub=1e-10))
        with pytest.raises(StalledError) as err:
            run_1d(problem, 1.0, [1.0], cfg, norm_bound=5.0)
        assert err.value.report is not None
        assert err.value.report.fom_evals >= 1
        assert err.value.report.log[-1].branch is Branch.REJECTED_BY_DIRECT

        # a failed inner solve draws on the same budget
        with pytest.raises(StalledError) as err:
            run_1d(problem_1d(), 0.725, [1.5], cfg_1d(max_rejects=1), norm_bound=1e8)
        assert isinstance(err.value.__cause__, (LineSearchError, AssumptionViolationError))
        assert err.value.report.log[-1].branch is Branch.SUBPROBLEM_FAILED

    def test_numerical_error_in_acceptance_carries_partial_report(self, monkeypatch):
        # the refit after the first candidate's evaluation fails: the error
        # leaves run with a report that counts the start and the candidate
        calls = []
        real_fit = driver.fit

        def failing_second_fit(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise IllConditionedGramError(jitter=1e-10, size=4)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(driver, "fit", failing_second_fit)
        problem = problem_1d()
        with pytest.raises(IllConditionedGramError) as err:
            run_1d(problem, 0.725, [1.5])
        report = err.value.report
        assert report.termination == "stalled"
        assert report.fom_evals == problem.counter == 2
        np.testing.assert_array_equal(report.final_iterate, [1.5])

    def test_small_relative_decrease_exits_as_stagnation(self):
        # from 1.5 no step can lower J by half of its value (the minimum is
        # 2), so with tau_j = 0.5 the first accepted step ends the run
        problem = problem_1d()
        report = run_1d(problem, 0.725, [1.5], cfg_1d(tau_j=0.5))
        assert report.termination == "stagnation"
        assert report.outer_iters == 1
        assert report.log[-1].branch in (Branch.ACCEPTED_BY_SUFFICIENT,
                                         Branch.ACCEPTED_BY_DIRECT)
        assert report.final_j < peek(problem, np.array([1.5]))[0]

    def test_conclusive_repeat_failure_exits_as_stagnation(self):
        # an absurd norm bound blocks the very first inner line search; the
        # repeat at a smaller radius is conclusive and must not burn the
        # whole rejection budget
        problem = problem_1d()
        cfg = cfg_1d(max_rejects=15)
        report = run_1d(problem, 0.725, [1.5], cfg, norm_bound=1e8)
        assert report.termination == "stagnation"
        assert report.fom_evals <= 3
        failed = [r for r in report.log if r.branch is Branch.SUBPROBLEM_FAILED]
        assert len(failed) == 2
        assert "repeat" in report.log[-1].note

    def test_fom_accounting_excludes_norm_estimation(self, monkeypatch):
        # one problem serves the whole experiment: its counter splits
        # exactly into the reference, the norm estimates (one per shape),
        # the method runs and the baseline runs
        from hermite_tr import harness

        cfg = harness.config_from_dict({
            "problem": "one_d", "n_starts": 2,
            "kernel": {"family": "gaussian", "shape": [0.725, 1.0]},
            "trust_region": {"norm_source": "estimated", "norm_samples": 12, "norm_seed": 4},
        })
        made = []
        make_problem = harness.make_problem

        def capture(*args, **kwargs):
            made.append(make_problem(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(harness, "make_problem", capture)
        _, reports, meta = harness.run_experiment(cfg)
        (problem,) = made
        norm_evals = [v["norm_evals"] for v in meta["norm_estimation"].values()]
        assert norm_evals == [12, 12]
        runs = [r for group in reports.values() for _, r in group]
        assert len(runs) == 6 and all(isinstance(r, RunReport) for r in runs)
        assert problem.counter == (meta["reference_fom_evals"] + sum(norm_evals)
                                   + sum(r.fom_evals for r in runs))

    def test_fixed_and_analytic_bounds_spend_no_evaluations(self):
        # neither a closed form nor a fixed bound spends evaluations,
        # whatever the kernel and problem; an analytic source that does not
        # apply is refused when the config loads
        from hermite_tr.problems import problem_rosenbrock

        one_d, rosenbrock = problem_1d(), problem_rosenbrock()
        assert resolve_norm_bound(NormSource(kind="analytic"), make_kernel("gaussian", 1.0, 1),
                                  one_d, (one_d.lower, one_d.upper)) \
            == (analytic_norm_1d_gaussian(1.0), None)
        assert resolve_norm_bound(NormSource(kind="fixed", value=3.0),
                                  make_kernel("gaussian", 1.0, 2), rosenbrock,
                                  (rosenbrock.lower, rosenbrock.upper)) == (3.0, None)
        assert one_d.counter == rosenbrock.counter == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TRConfig(xi1=0.9, xi2=0.1)
        with pytest.raises(ConfigError):
            TRConfig(delta0=-1.0)
        with pytest.raises(ConfigError):
            NormSource(kind="bogus")
        with pytest.raises(ConfigError):
            NormSource(kind="fixed", value=0.0)


class TestStopReason:
    """The one stopping rule of the method and its baseline."""

    # i_max = 3, tau_foc = 1e-6, tau_j = 1e-14; each bound is inclusive
    @pytest.mark.parametrize("iters,foc,j_diff,expected", [
        (0, 1.0, math.inf, None),
        (0, 1e-6, math.inf, "foc"),             # a stationary start
        (1, 1.0, 1e-3, None),
        (1, 1e-7, 1e-3, "foc"),
        (1, 1.0, 1e-14, "stagnation"),
        (1, 1e-7, 1e-15, "stagnation"),         # stagnation before foc
        (2, 1e-7, 1e-13, "foc"),
        (3, 1.0, 1e-3, "max_iters"),
        (3, 1e-7, 1e-3, "max_iters"),           # the i_max-th step also reaches tau_foc
        (3, 1.0, 1e-15, "stagnation"),          # stagnation before max_iters
        (3, 1e-7, 1e-15, "stagnation"),
    ])
    @pytest.mark.parametrize("make_rule", [TRConfig, BaselineConfig],
                             ids=["method", "baseline"])
    def test_order(self, make_rule, iters, foc, j_diff, expected):
        rule = make_rule(i_max=3, tau_foc=1e-6, tau_j=1e-14)
        assert stop_reason(rule, iters, foc, j_diff) == expected

    def test_run_stops_by_the_rule_it_looks_up(self, monkeypatch):
        # driver.run asks stop_reason at every iterate, the start's with an
        # infinite decrease, and stops with whatever label it gives
        asked = []

        def after_one_step(rule, iters, foc, j_diff):
            asked.append((iters, foc, j_diff))
            return "sentinel" if iters == 1 else None

        monkeypatch.setattr(driver, "stop_reason", after_one_step)
        problem = problem_1d()
        j0 = peek(problem, np.array([1.5]))[0]
        report = run_1d(problem, 0.725, [1.5])
        assert (report.termination, report.outer_iters) == ("sentinel", 1)
        assert asked[0][0] == 0 and asked[0][2] == math.inf
        assert asked[-1] == (1, report.final_foc, relative_decrease(j0, report.final_j))


class TestAuditCount:
    def test_audit_failures_counts_the_refuted_certificates_of_the_log(self):
        # None is no audit (a direct branch), True a certificate that held
        log = [driver.IterationRecord(outer_iter=k, branch=Branch.ACCEPTED_BY_SUFFICIENT,
                                      sufficient_check_ok=ok)
               for k, ok in enumerate([None, False, True, False])]
        report = RunReport(final_iterate=np.zeros(1), final_j=1.0, final_foc=0.0,
                           fom_evals=4, outer_iters=2, termination="foc",
                           norm_bound=1.0, log=log)
        assert report.audit_failures == 2
        assert report.to_dict()["audit_failures"] == 2
        assert RunReport(final_iterate=np.zeros(1), final_j=1.0, final_foc=0.0, fom_evals=1,
                         outer_iters=0, termination="foc", norm_bound=1.0).audit_failures == 0
