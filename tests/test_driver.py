"""Outer loop: ratio, radius law, acceptance branches, full runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_tr.driver import (
    Branch,
    NormSource,
    TRConfig,
    TRState,
    acceptance_step,
    model_decrease_degenerate,
    rho,
    run,
    update_radius,
)
from hermite_tr.errors import ConfigError, StalledError
from hermite_tr.kernels import make_kernel
from hermite_tr.problems import problem_1d
from hermite_tr.subproblem import SubproblemConfig, SubproblemResult, Termination
from hermite_tr.surrogate import TrainingSet, analytic_norm_1d_gaussian, fit


def cfg_1d(**overrides):
    defaults = dict(
        delta0=0.5, tau_foc=1e-6, tau_j=1e-14, i_max=60,
        norm_source=NormSource(kind="analytic1d"),
        sub=SubproblemConfig(tau_sub=1e-7),
    )
    defaults.update(overrides)
    return TRConfig(**defaults)


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


def _two_point_state(problem, kernel, mus, delta=0.5):
    """State fitted on the given abscissae, current iterate = first of them."""
    pts = np.array([[m] for m in mus])
    vals, grads = [], []
    for p in pts:
        v, g = problem.eval(p)
        vals.append(v)
        grads.append(g)
    history = TrainingSet(pts, np.array(vals), np.array(grads))
    s = fit(kernel, history, norm_bound=analytic_norm_1d_gaussian(kernel.shape))
    return TRState(iterate=pts[0].copy(), current_j=vals[0], delta=delta,
                   surrogate=s, history=history)


class TestAcceptanceBranches:
    def setup_method(self):
        self.problem = problem_1d()
        self.kernel = make_kernel("gaussian", 0.725, 1)
        self.cfg = cfg_1d()

    def test_sufficient_branch_at_known_center(self):
        # candidate at an existing center: error bound vanishes, and its
        # surrogate value undercuts the one at the (farther) inner point
        state = _two_point_state(self.problem, self.kernel, [1.5, 0.2])
        result = SubproblemResult(
            candidate=np.array([0.2]), agc=np.array([1.0]),
            iterates=[np.array([1.0]), np.array([0.2])],
            termination=Termination.STATIONARY_INNER,
        )
        evals_before = self.problem.counter
        record = acceptance_step(state, result, self.problem, self.cfg)
        assert record.branch is Branch.ACCEPTED_BY_SUFFICIENT
        assert record.sufficient_check_ok is True
        assert self.problem.counter == evals_before  # datum reused, no new call
        np.testing.assert_array_equal(state.iterate, [0.2])

    def test_necessary_rejection_shrinks(self):
        # candidate at a known center with a HIGHER value than the inner point
        state = _two_point_state(self.problem, self.kernel, [0.2, 1.5])
        result = SubproblemResult(
            candidate=np.array([1.5]), agc=np.array([0.2]),
            iterates=[np.array([0.2])],
            termination=Termination.STATIONARY_INNER,
        )
        delta_before = state.delta
        record = acceptance_step(state, result, self.problem, self.cfg)
        assert record.branch is Branch.REJECTED_BY_NECESSARY
        assert state.delta == pytest.approx(self.cfg.beta1_shrink * delta_before)
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
            if state.history.find_close(x) is not None:
                continue
            jhat_c = s.value(x)
            eta = s.norm_bound * s.power(x)
            if jhat_c + eta > jhat_agc and jhat_c - eta <= jhat_agc:
                cand = x
                break
        assert cand is not None, "no inconclusive candidate on the probe grid"
        result = SubproblemResult(candidate=cand, agc=agc, iterates=[agc, cand],
                                  termination=Termination.NEAR_BOUNDARY)
        j_true = self.problem.peek(cand)[0]
        record = acceptance_step(state, result, self.problem, self.cfg)
        expected = (Branch.ACCEPTED_BY_DIRECT if j_true <= jhat_agc
                    else Branch.REJECTED_BY_DIRECT)
        assert record.branch is expected
        # the evaluated point joins the model either way
        assert state.history.find_close(cand) is not None


class TestRun:
    def test_stationary_start_terminates_immediately(self):
        problem = problem_1d()
        report = run(problem, make_kernel("gaussian", 0.725, 1),
                     np.array([0.0]), cfg_1d())
        assert report.termination == "foc"
        assert report.outer_iters == 0
        assert report.fom_evals == 1

    def test_seeded_multistart_accuracy(self):
        # five uniform starts; evaluation counts and accuracy at the level
        # reported for this problem family
        rng = np.random.default_rng(0)
        kernel = make_kernel("gaussian", 0.725, 1)
        evals, errors, focs = [], [], []
        for _ in range(5):
            problem = problem_1d()
            report = run(problem, kernel, rng.uniform(-2, 2, 1), cfg_1d())
            evals.append(report.fom_evals)
            errors.append(abs(report.final_j - 2.0) / 2.0)
            focs.append(report.final_foc)
        assert np.mean(evals) <= 8.0
        assert np.mean(errors) <= 1e-10
        assert np.mean(focs) <= 1e-6

    def test_accepted_values_nonincreasing(self):
        problem = problem_1d()
        report = run(problem, make_kernel("gaussian", 1.0, 1),
                     np.array([1.8]), cfg_1d())
        accepted = [r.j_value for r in report.log
                    if r.branch in (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT)]
        for a, b in zip(accepted, accepted[1:]):
            assert b <= a + 1e-12
        assert report.final_j <= accepted[0] + 1e-12

    def test_radius_transitions_follow_law(self):
        problem = problem_1d()
        cfg = cfg_1d()
        report = run(problem, make_kernel("gaussian", 2.0, 1), np.array([1.7]), cfg)
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
            report = run(problem, make_kernel("gaussian", 0.725, 1),
                         rng.uniform(-2, 2, 1), cfg_1d())
            assert report.audit_failures == 0

    def test_surrogate_true_value_consistency(self):
        problem = problem_1d()
        report = run(problem, make_kernel("gaussian", 0.725, 1),
                     np.array([1.3]), cfg_1d())
        true_j = problem.peek(report.final_iterate)[0]
        assert abs(report.final_j - true_j) <= 1e-8 * (1.0 + abs(true_j))

    def test_box_feasibility_of_logged_candidates(self):
        problem = problem_1d()
        report = run(problem, make_kernel("gaussian", 1.0, 1),
                     np.array([1.9]), cfg_1d())
        for rec in report.log:
            if rec.candidate is not None:
                assert -2.0 <= rec.candidate[0] <= 2.0

    def test_start_outside_box_is_clamped(self):
        problem = problem_1d()
        report = run(problem, make_kernel("gaussian", 0.725, 1),
                     np.array([5.0]), cfg_1d())
        assert report.termination in ("foc", "stagnation")
        assert abs(report.final_iterate[0]) <= 2.0

    def test_stall_raises_with_partial_report(self):
        # gradients with flipped sign make the model propose uphill steps;
        # the first direct rejection exhausts a budget of one
        from hermite_tr.problems import Problem

        def fn(x):
            return float(x[0] ** 2 + 1.0), np.array([-2.0 * x[0]])

        problem = Problem(name="adversarial", dim=1,
                          lower=np.array([-2.0]), upper=np.array([2.0]), fn=fn)
        cfg = cfg_1d(norm_source=NormSource(kind="fixed", value=5.0), max_rejects=1,
                     tau_foc=1e-9, sub=SubproblemConfig(tau_sub=1e-10))
        with pytest.raises(StalledError) as err:
            run(problem, make_kernel("gaussian", 1.0, 1), np.array([1.0]), cfg)
        assert err.value.report is not None
        assert err.value.report.fom_evals >= 1

    def test_conclusive_repeat_failure_exits_as_stagnation(self):
        # an absurd norm bound blocks the very first inner line search; the
        # repeat at a smaller radius is conclusive and must not burn the
        # whole rejection budget
        problem = problem_1d()
        cfg = cfg_1d(norm_source=NormSource(kind="fixed", value=1e8), max_rejects=15)
        report = run(problem, make_kernel("gaussian", 0.725, 1), np.array([1.5]), cfg)
        assert report.termination == "stagnation"
        assert report.fom_evals <= 3
        failed = [r for r in report.log if r.branch is Branch.SUBPROBLEM_FAILED]
        assert len(failed) == 2
        assert "repeat" in report.log[-1].note

    def test_fom_accounting_excludes_norm_estimation(self):
        problem = problem_1d()
        cfg = cfg_1d(norm_source=NormSource(kind="estimated", n_samples=12, seed=4))
        report = run(problem, make_kernel("gaussian", 0.725, 1), np.array([1.2]), cfg)
        assert report.norm_evals == 12
        assert report.fom_evals + report.norm_evals == problem.counter
        # history holds exactly the optimization evaluations
        assert report.fom_evals >= 1

    def test_analytic_norm_requires_1d_gaussian(self):
        from hermite_tr.problems import problem_rosenbrock

        problem = problem_rosenbrock()
        with pytest.raises(ConfigError):
            run(problem, make_kernel("gaussian", 1.0, 2), np.array([0.0, 0.0]),
                cfg_1d())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TRConfig(xi1=0.9, xi2=0.1)
        with pytest.raises(ConfigError):
            TRConfig(delta0=-1.0)
        with pytest.raises(ConfigError):
            NormSource(kind="bogus")
        with pytest.raises(ConfigError):
            NormSource(kind="fixed", value=0.0)
