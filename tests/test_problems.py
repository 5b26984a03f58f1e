"""Benchmark objectives: values, gradients, and the elliptic solver."""

import numpy as np
import pytest
from scipy.sparse.linalg._dsolve import _superlu

from hermite_tr import pde2d
from hermite_tr.baseline import REFERENCE, BaselineConfig, minimize, reference_solution
from hermite_tr.driver import TRConfig, run
from hermite_tr.errors import (
    AssumptionViolationError,
    ConfigError,
    NonFiniteError,
    NumericalError,
    StalledError,
)
from hermite_tr.kernels import make_kernel
from hermite_tr.pde2d import Pde2dDiscretization, pde2d_gradient, pde2d_solve, theta1, theta2
from hermite_tr.problems import (
    Problem,
    make_problem,
    problem_1d,
    problem_pde2d,
    problem_rosenbrock,
)
from hermite_tr.subproblem import SubproblemConfig
from hermite_tr.surrogate import analytic_norm_1d_gaussian

from oracles import (
    cholesky_pde2d,
    interface_eigenbasis,
    peek,
    plain_pde2d,
    sparse_blocks,
    sparse_interface,
)


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


class TestPositivityGuard:
    def test_guard_raises(self):
        def fn(x):
            return -1.0, np.zeros(1)

        p = Problem(name="neg", lower=np.array([-1.0]), upper=np.array([1.0]), fn=fn)
        with pytest.raises(AssumptionViolationError):
            p.eval(np.array([0.0]))


# (J, grad J) -> a non-finite result
NON_FINITE = {
    "inf J": lambda val, grad: (np.inf, grad),
    "NaN J": lambda val, grad: (np.nan, grad),
    "NaN grad J": lambda val, grad: (val, np.full_like(grad, np.nan)),
}
# (J, grad J) -> a result Problem.eval refuses
FAILING = {**NON_FINITE, "J = -1": lambda val, grad: (-1.0, grad)}


def refused(case):
    """pytest.raises for the error Problem.eval raises on FAILING[case]."""
    if case in NON_FINITE:
        return pytest.raises(NonFiniteError, match="non-finite objective")
    return pytest.raises(AssumptionViolationError, match="not strictly positive")


def counting(problem):
    """problem with its fn wrapped to record the points it is called at."""
    calls = []
    fn = problem.fn

    def counted(x):
        calls.append(x.tobytes())
        return fn(x)

    problem.fn = counted
    return problem, calls


def non_finite_1d(case, bad=lambda call: call > 1):
    """problem_1d whose objective fails, as FAILING[case], at the calls
    (counted from 1) where bad holds; by default after its first call."""
    problem, calls = problem_1d(), []
    fn = problem.fn

    def corrupted(x):
        calls.append(1)
        val, grad = fn(x)
        return FAILING[case](val, grad) if bad(len(calls)) else (val, grad)

    problem.fn = corrupted
    return problem


@pytest.mark.parametrize("case", sorted(FAILING))
class TestNonFinite:
    """A non-finite or non-positive objective is a typed NumericalError,
    counted like any evaluation; the baseline rejects it at a line-search
    trial, and the error carries a report once the run has an iterate."""

    def test_eval(self, case):
        p, calls = counting(non_finite_1d(case))
        p.eval(np.array([1.5]))
        for attempt in (2, 3):
            with refused(case):
                p.eval(np.array([1.0]))
            assert p.counter == len(calls) == attempt

    def test_run_attaches_a_partial_report(self, case):
        # the start is the first evaluation, the first candidate the second
        p = non_finite_1d(case)
        with refused(case) as exc:
            run(p, make_kernel("gaussian", 0.725, 1), np.array([1.5]),
                TRConfig(sub=SubproblemConfig(tau_sub=1e-7)), analytic_norm_1d_gaussian(0.725))
        report = exc.value.report
        assert report.termination == "stalled" and report.fom_evals == p.counter == 2
        assert report.final_iterate.tolist() == [1.5]

    @pytest.mark.parametrize("solver", ["run", "minimize"])
    def test_failed_start_has_no_report(self, case, solver):
        p = non_finite_1d(case, bad=lambda call: call == 1)
        with refused(case) as exc:
            if solver == "run":
                run(p, make_kernel("gaussian", 0.725, 1), np.array([1.5]), TRConfig(),
                    analytic_norm_1d_gaussian(0.725))
            else:
                minimize(p, np.array([1.5]), (BaselineConfig(),), SubproblemConfig())
        assert exc.value.report is None and p.counter == 1

    def test_minimize_rejects_a_non_finite_trial(self, case):
        # the second evaluation is the first trial of the first line search
        clean, = minimize(problem_1d(), np.array([1.5]), (BaselineConfig(),), SubproblemConfig())
        p = non_finite_1d(case, bad=lambda call: call == 2)
        report, = minimize(p, np.array([1.5]), (BaselineConfig(),), SubproblemConfig())
        assert report.fom_evals == p.counter
        assert report.termination == clean.termination
        assert report.final_j == pytest.approx(clean.final_j, abs=1e-10)

    def test_minimize_stalls_when_every_trial_is_non_finite(self, case):
        p = non_finite_1d(case)
        with pytest.raises(StalledError, match="line search") as exc:
            minimize(p, np.array([1.5]), (BaselineConfig(),), SubproblemConfig())
        report = exc.value.report
        assert report.final_iterate.tolist() == [1.5] and report.fom_evals == p.counter > 2

    def test_reference_skips_a_non_finite_start(self, case):
        p = non_finite_1d(case, bad=lambda call: call == 1)
        x, j, runs, _ = reference_solution(p, np.array([[1.5], [-1.0]]), SubproblemConfig(),
                                           REFERENCE)
        assert runs[0] == {"start": 0, "fom_evals": 1, "termination": "failed"}
        assert runs[1]["termination"] != "failed"
        assert runs[1]["fom_evals"] == p.counter - 1 and np.isfinite(j)


class TestRepeatedPoint:
    """A repeated point is one more objective call and one more count, with the same bits."""

    def test_repeat_calls_again_and_returns_equal_bits_in_a_fresh_array(self):
        p, calls = counting(problem_pde2d(grid_n=24))
        x = np.array([1.3, 2.2])
        val, grad = p.eval(x)
        grad_copy = grad.copy()
        grad[:] = 0.0                       # the caller's array is its own
        val2, grad2 = p.eval(x.copy())
        assert p.counter == 2 and calls == [x.tobytes()] * 2
        assert val2 == val
        assert grad2.tobytes() == grad_copy.tobytes()

    def test_failed_evaluation_calls_again(self):
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
        face = sparse_interface(disc)
        _, modes = interface_eigenbasis(face)
        rng = np.random.default_rng(grid_n)
        for _ in range(20):
            mu = rng.uniform([0.5, 0.5], [np.pi, np.pi])
            r, val, f = pde2d_solve(disc, mu)
            grad = pde2d_gradient(disc, mu, r, f)
            u0, val0, grad0 = plain_pde2d(disc, mu)
            w, u_gamma = modes @ r, u0[face.gamma]
            assert np.max(np.abs(w - u_gamma)) <= 1e-12 * np.max(np.abs(u_gamma))
            assert abs(val - val0) <= 1e-12 * abs(val0)
            assert np.max(np.abs(grad - grad0)) <= 1e-12 * np.max(np.abs(grad0))
            p_val, p_grad = problem.eval(mu)
            assert p_val == val and p_grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("grid_n", [12, 24, 96, 100])
    def test_interface_condensation_structure(self, grid_n):
        # the package's partition and S1, S2 are the oracle's, bit for bit
        # (test_condensation_keeps_scipy_sparse_bits)
        disc = Pde2dDiscretization.build(grid_n)
        face = sparse_interface(disc)
        cells = np.concatenate([face.gamma, face.exterior, face.inclusions])
        assert np.array_equal(np.sort(cells), np.arange(grid_n**2))
        a = disc.system_matrix(np.array([1.3, 2.1])).tocsr()
        # the exterior and the inclusion interiors never couple, and each
        # sees one block only
        assert abs(a[face.exterior][:, face.inclusions]).sum() == 0.0
        a1, a2 = sparse_blocks(grid_n)
        assert abs(a2.tocsr()[face.exterior]).sum() == 0.0
        assert abs(a1.tocsr()[face.inclusions]).sum() == 0.0
        if grid_n == 96:
            # two 16 x 16 inclusions: a 60-cell inner and a 64-cell outer ring each
            assert face.gamma.size == 248
        if grid_n == 12:
            assert face.inclusions.size == 0
        for s in (face.s1, face.s2):
            assert s.shape == (face.gamma.size,) * 2
            assert np.array_equal(s, s.T)
        # the offline step runs once per discretization
        interface = disc.interface
        assert disc.interface is interface

    def test_indefinite_operator_is_a_numerical_error(self):
        # outside the problem box theta1 can turn negative; S(mu) is then
        # not positive definite, which must surface as a typed error
        disc = Pde2dDiscretization.build(24)
        mu = np.array([-np.pi / 2.0, 5.0])
        assert theta1(mu) < 0
        with pytest.raises(NumericalError, match="linear solve failed"):
            pde2d_solve(disc, mu)

    @pytest.mark.parametrize("grid_n", [12, 24, 96, 100])
    def test_agrees_with_cholesky(self, grid_n):
        # the eigenbasis solve is the dense Cholesky of S(mu) it replaced,
        # up to rounding: value, gradient and interface state
        disc = Pde2dDiscretization.build(grid_n)
        oracle = sparse_interface(disc)
        _, modes = interface_eigenbasis(oracle)
        rng = np.random.default_rng(grid_n + 1)
        for _ in range(20):
            mu = rng.uniform([0.5, 0.5], [np.pi, np.pi])
            r, val, f = pde2d_solve(disc, mu)
            grad = pde2d_gradient(disc, mu, r, f)
            w0, val0, grad0 = cholesky_pde2d(oracle, mu)
            assert np.max(np.abs(modes @ r - w0)) <= 1e-12 * np.max(np.abs(w0))
            assert abs(val - val0) <= 1e-12 * abs(val0)
            assert np.max(np.abs(grad - grad0)) <= 1e-12 * np.max(np.abs(grad0))

    @pytest.mark.parametrize("grid_n", [12, 24, 96, 100])
    def test_modes_diagonalize_the_pencil(self, grid_n):
        # V^T S1 V = I and V^T S2 V = diag(lambda); S2 is only semidefinite,
        # so lambda may dip below 0 by rounding, no further.  The package
        # keeps lambda and h = V^T g, read-only, and drops V, which has the
        # oracle's bits (test_condensation_keeps_scipy_sparse_bits)
        disc = Pde2dDiscretization.build(grid_n)
        face, oracle = disc.interface, sparse_interface(disc)
        _, v = interface_eigenbasis(oracle)
        lam = face.eigenvalues
        n = oracle.gamma.size
        assert v.shape == (n, n) and lam.shape == face.modal_load.shape == (n,)
        assert np.all(np.diff(lam) >= 0)
        for s, diagonal in ((oracle.s1, np.ones(n)), (oracle.s2, lam)):
            residual = v.T @ s @ v - np.diag(diagonal)
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(diagonal)
        assert lam.min() >= -1e-12 * lam.max()
        for array in (lam, face.modal_load):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("mu", [[-np.pi / 2.0, 5.0], [-1.0, 3.0], [4.0, 2.0]])
    def test_off_the_box_where_cholesky_fails(self, mu):
        # theta1 < 0: the oracle's dpotrf refuses S(mu), and so does the
        # eigenbasis solve
        disc = Pde2dDiscretization.build(24)
        mu = np.array(mu)
        assert theta1(mu) < 0
        with pytest.raises(NumericalError, match="linear solve failed"):
            cholesky_pde2d(sparse_interface(disc), mu)
        with pytest.raises(NumericalError, match="linear solve failed"):
            pde2d_solve(disc, mu)

    @pytest.mark.parametrize("mu", [[np.nan, 0.5], [0.5, np.inf]])
    def test_non_finite_parameter_is_a_numerical_error(self, mu):
        disc = Pde2dDiscretization.build(12)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            pde2d_solve(disc, np.array(mu))

    @pytest.mark.parametrize("grid_n", [4, 96.7, True])
    def test_grid_guard(self, grid_n):
        # a non-integral size is refused, not truncated to the grid below it
        with pytest.raises(ConfigError, match="grid_n"):
            Pde2dDiscretization.build(grid_n)

    def test_integral_float_grid(self):
        disc = Pde2dDiscretization.build(24.0)
        assert disc.grid_n == 24 and disc.load.size == 24**2

    @pytest.mark.parametrize("grid_n", [6, 12, 24, 48, 96, 100])
    def test_condensation_keeps_scipy_sparse_bits(self, grid_n, monkeypatch):
        # the stencil condensation has the bits of the scipy.sparse one in
        # oracles, field by field, and hands gstrf what splu hands it for
        # the oracle's a[cells][:, cells].tocsc().  The fields the interface
        # drops are pinned as _eliminate takes and returns them, g as
        # condense combines them; lambda and h = V^T g have the bits of the
        # oracle's eigenbasis
        calls = {"package": [], "splu": []}
        eliminated, pde2d_eliminate = [], pde2d._eliminate

        def eliminate(stencil, offsets, cells, gamma, load):
            eliminated.append((cells, gamma,
                               pde2d_eliminate(stencil, offsets, cells, gamma, load)))
            return eliminated[-1][2]

        def recorder(gstrf, seen):
            def record(*args, csc_construct_func, **kwargs):
                seen.append((args, kwargs))
                return gstrf(*args, csc_construct_func=csc_construct_func, **kwargs)
            return record

        monkeypatch.setattr(pde2d, "gstrf", recorder(pde2d.gstrf, calls["package"]))
        monkeypatch.setattr(_superlu, "gstrf", recorder(_superlu.gstrf, calls["splu"]))
        monkeypatch.setattr(pde2d, "_eliminate", eliminate)
        disc = Pde2dDiscretization.build(grid_n)
        face, oracle = disc.interface, sparse_interface(disc)
        (exterior, gamma, (s1, g1, _)), (inclusions, gamma2, (s2, g2, _)) = eliminated
        assert gamma2 is gamma
        fields = dict(vars(face), gamma=gamma, exterior=exterior, inclusions=inclusions,
                      s1=s1, s2=s2, load=disc.load[gamma] - g1 - g2)
        for name in ("gamma", "exterior", "inclusions", "s1", "s2", "load", "c1", "c2"):
            ours, theirs = np.asarray(fields[name]), np.asarray(getattr(oracle, name))
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
        eigenvalues, modes = interface_eigenbasis(oracle)
        assert face.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert face.modal_load.tobytes() == (modes.T @ oracle.load).tobytes()
        a1, a2 = sparse_blocks(grid_n)
        assert len(calls["package"]) == len(calls["splu"]) == 2
        for (ours, kwargs), (theirs, splu_kwargs), a, cells in zip(
                calls["package"], calls["splu"], (a1, a2), (exterior, inclusions)):
            block = a[cells][:, cells].tocsc()
            assert ours[:2] == theirs[:2] == (cells.size, block.nnz)
            for mine, scipys, oracles in zip(ours[2:], theirs[2:],
                                            (block.data, block.indices, block.indptr)):
                assert mine.dtype == scipys.dtype and mine.tobytes() == scipys.tobytes()
                assert np.array_equal(mine, oracles)
            assert ours[3].dtype == ours[4].dtype == np.intc
            assert kwargs == splu_kwargs == {
                "ilu": False,
                "options": dict.fromkeys(["DiagPivotThresh", "ColPerm", "PanelSize", "Relax"]),
            }

    def test_make_problem_dispatch(self):
        assert make_problem("one_d", grid_n=24).name == "one_d"
        assert make_problem("pde2d", grid_n=24).dim == 2
        with pytest.raises(ValueError):
            make_problem("unknown", grid_n=24)


class TestSharedDiscretization:
    """Problems on one grid share a discretization, and with it the offline step."""

    MU = np.array([1.3, 2.2])

    def test_problems_share_the_disc_but_not_counts(self, monkeypatch):
        seen = []
        solve = pde2d.pde2d_solve

        def recording(disc, mu):
            seen.append(disc)
            return solve(disc, mu)

        monkeypatch.setattr(pde2d, "pde2d_solve", recording)
        first, second = (make_problem("pde2d", grid_n=24) for _ in range(2))
        val, grad = first.eval(self.MU)
        assert (first.counter, second.counter) == (1, 0)
        val2, grad2 = second.eval(self.MU)
        assert (first.counter, second.counter) == (1, 1)
        assert val2 == val and grad2.tobytes() == grad.tobytes()
        a, b = seen
        assert a is b is pde2d.discretization(24)
        assert a.interface is b.interface

    def test_integral_float_grid_keeps_the_bits(self):
        val, grad = make_problem("pde2d", grid_n=24).eval(self.MU)
        val2, grad2 = make_problem("pde2d", grid_n=24.0).eval(self.MU)
        assert val2 == val and grad2.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("grid_n", [4, 96.7, True, "x"])
    def test_refused_grid_caches_nothing(self, grid_n):
        before = pde2d.discretization.cache_info()
        with pytest.raises(ConfigError, match="grid_n"):
            make_problem("pde2d", grid_n=grid_n)
        after = pde2d.discretization.cache_info()
        assert (after.currsize, after.hits) == (before.currsize, before.hits)

    def test_shared_arrays_are_read_only_and_keep_the_bits(self):
        disc = pde2d.discretization(24)
        face = disc.interface
        for array in (disc.stencils, disc.load, face.eigenvalues, face.modal_load):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # solves on the shared, read-only arrays, after any number of
        # earlier ones, have the bits of solves on a fresh discretization
        fresh = Pde2dDiscretization.build(24)
        for mu in (self.MU, np.array([0.7, 3.1]), self.MU):
            w, val, f = pde2d_solve(disc, mu)
            w0, val0, f0 = pde2d_solve(fresh, mu)
            assert w.tobytes() == w0.tobytes() and (val, f) == (val0, f0)
            grad = pde2d_gradient(disc, mu, w, f)
            assert grad.tobytes() == pde2d_gradient(fresh, mu, w0, f0).tobytes()
