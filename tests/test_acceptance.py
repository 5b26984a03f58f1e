"""Acceptance gate: headline behaviors at their stated tolerances.

Each criterion prints one [PASS]/[FAIL] line (undiverted from capture) and
asserts.  Expected values come from independent oracles computed in place:
quadrature for the closed-form norm, the manufactured diffusion solution,
exact-norm synthetic targets for the bound checks, and the in-repo
tight-tolerance reference for the PDE benchmark.
"""

import time

import numpy as np
import pytest

from hermite_tr.driver import Branch, update_radius
from hermite_tr.errors import DuplicatePointsError
from hermite_tr.harness import config_from_dict, run_experiment
from hermite_tr.kernels import make_kernel, radial_profiles
from hermite_tr.problems import analytic_norm_1d_gaussian
from hermite_tr.surrogate import TrainingSet, assemble_gram, fit

from oracles import grad1, peek, value
from test_norms import norm_squared_by_quadrature
from test_surrogate import synthetic_member


def _gate(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def one_d_config(shapes, tmp_path, tau_foc=1.0e-6):
    return config_from_dict({
        "problem": "one_d",
        "kernel": {"family": "gaussian", "shape": shapes},
        "n_starts": 5,
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "trust_region": {
            "delta0": 0.5, "tau_foc": tau_foc, "tau_j": 1.0e-14,
            "i_max": 80, "norm_source": "analytic",
        },
    })


def test_criterion_1_one_d_benchmark(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = one_d_config(0.725, tmp_path)
    rows, reports, meta = run_experiment(cfg)
    runs = [r for _, r in reports["eps=0.725"]]
    ok_runs = [r for r in runs if not isinstance(r, str)]
    elapsed = time.monotonic() - t0

    mean_evals = np.mean([r.fom_evals for r in ok_runs]) if ok_runs else np.inf
    mean_err = np.mean([abs(r.final_j - 2.0) / 2.0 for r in ok_runs]) if ok_runs else np.inf
    mean_foc = np.mean([r.final_foc for r in ok_runs]) if ok_runs else np.inf
    ok = (
        len(ok_runs) == 5
        and mean_evals <= 8.0
        and mean_err <= 1e-10
        and mean_foc <= 1e-6
        and elapsed < 5.0
    )
    _gate(capsys, "criterion 1 (1D benchmark)",
          ok,
          f"mean evals {mean_evals:.1f} (<=8), mean rel err {mean_err:.2e} (<=1e-10), "
          f"mean foc {mean_foc:.2e} (<=1e-6), {elapsed:.1f}s (<5s)")


def test_criterion_2_shape_sweep_ordering(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = one_d_config([0.725, 1.0, 2.0, 10.0], tmp_path)
    rows, reports, meta = run_experiment(cfg)
    means = {}
    failures = 0
    for label in ("eps=0.725", "eps=1", "eps=2", "eps=10"):
        runs = [r for _, r in reports[label]]
        failures += sum(isinstance(r, str) for r in runs)
        means[label] = np.mean([r.fom_evals for r in runs if not isinstance(r, str)])
    elapsed = time.monotonic() - t0
    seq = [float(means[k]) for k in ("eps=0.725", "eps=1", "eps=2", "eps=10")]
    ok = failures == 0 and all(a < b for a, b in zip(seq, seq[1:])) and elapsed < 30.0
    _gate(capsys, "criterion 2 (shape sweep ordering)",
          ok,
          f"mean evals {[round(s, 1) for s in seq]} strictly increasing, "
          f"{failures} failures, {elapsed:.1f}s (<30s)")


def test_criterion_3_closed_form_norm(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for eps in (0.75, 1.0, 2.0):
        oracle = np.sqrt(norm_squared_by_quadrature(eps))
        got = analytic_norm_1d_gaussian(eps)
        worst = max(worst, abs(got - oracle) / oracle)
    domain_ok = False
    try:
        analytic_norm_1d_gaussian(0.7)
    except ValueError:
        domain_ok = True
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and domain_ok and elapsed < 1.0
    _gate(capsys, "criterion 3 (closed-form norm)",
          ok,
          f"max rel err vs quadrature {worst:.2e} (<=1e-6), "
          f"domain error at 0.7: {domain_ok}, {elapsed:.2f}s (<1s)")


def test_criterion_4_pde_benchmark(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = config_from_dict({
        "problem": "pde2d",
        "grid_n": 96,
        "kernel": {"family": "quad_matern", "shape": 0.4},
        "n_starts": 5,
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "trust_region": {
            "delta0": 0.5, "tau_foc": 1.0e-4, "tau_j": 1.0e-12,
            "norm_source": "estimated", "norm_samples": 50, "norm_seed": 1234,
        },
    })
    rows, reports, meta = run_experiment(cfg)
    tr_row = next(r for r in rows if r.label == "eps=0.4")
    base_row = next(r for r in rows if r.label == "baseline")
    elapsed = time.monotonic() - t0
    ok = (
        tr_row.n_failures == 0
        and tr_row.avg_fom_evals <= 12.0
        and tr_row.avg_rel_err_j <= 1e-6
        and tr_row.avg_fom_evals <= base_row.avg_fom_evals + 2.0
        and elapsed < 600.0
    )
    _gate(capsys, "criterion 4 (2D diffusion benchmark)",
          ok,
          f"mean evals {tr_row.avg_fom_evals:.1f} (<=12), rel err "
          f"{tr_row.avg_rel_err_j:.2e} (<=1e-6), baseline {base_row.avg_fom_evals:.1f} "
          f"(gap <= +2), {elapsed:.0f}s (<600s)")


def test_criterion_5_manufactured_solution(capsys):
    from hermite_tr.pde2d import Pde2dDiscretization, pde2d_solve

    t0 = time.monotonic()
    exact = 1.4 * (np.pi**2 / 2.0) / (1.1 + np.sin(1.0))
    errs = []
    for n in (24, 48, 96):
        disc = Pde2dDiscretization.build(n)
        _, val, _ = pde2d_solve(disc, np.array([1.0, 1.0]))
        errs.append(abs(val - exact) / exact)
    elapsed = time.monotonic() - t0
    ok = errs[-1] <= 1e-3 and errs[0] > errs[1] > errs[2] and elapsed < 30.0
    _gate(capsys, "criterion 5 (manufactured diffusion solution)",
          ok,
          f"rel err at n=96 {errs[-1]:.2e} (<=1e-3), refinement errors "
          f"{[f'{e:.1e}' for e in errs]} decreasing, {elapsed:.1f}s (<30s)")


def _smooth_source(rng, dim):
    """Random smooth target; its values/gradients make consistent data.

    Arbitrary inconsistent (value, gradient) pairs on nearly-coincident
    points force unbounded coefficients, where no floating-point solve can
    reach the exactness tolerance; the fitted data in this package always
    comes from a differentiable objective, which is what is generated here.
    """
    a = rng.normal(size=dim)
    b = rng.normal(size=dim)
    c = rng.normal(size=3)

    def f(x):
        return float(c[0] * np.sin(a @ x) + c[1] * np.exp(-0.3 * (b @ x) ** 2)
                     + 0.1 * c[2] * (x @ x))

    def df(x):
        return (c[0] * np.cos(a @ x) * a
                + c[1] * np.exp(-0.3 * (b @ x) ** 2) * (-0.6 * (b @ x)) * b
                + 0.2 * c[2] * x)

    return f, df


def test_criterion_6a_exactness_and_spd(capsys, rng):
    t0 = time.monotonic()
    families = ("gaussian", "quad_matern", "wendland2")
    violations = 0
    for i in range(200):
        fam = families[i % 3]
        dim = int(rng.integers(1, 4))
        k = make_kernel(fam, float(rng.uniform(0.3, 2.0)), dim)
        n = int(rng.integers(1, 7))
        pts = rng.uniform(-2, 2, (n, dim))
        f, df = _smooth_source(rng, dim)
        vals = np.array([f(p) for p in pts])
        grads = np.array([df(p) for p in pts])
        try:
            ts = TrainingSet(pts, vals, grads)
        except DuplicatePointsError:
            continue
        gram = assemble_gram(k, pts)
        if not np.array_equal(gram, gram.T):
            violations += 1
        if np.linalg.eigvalsh(gram).min() <= -1e-12:
            violations += 1
        s = fit(k, ts, norm_bound=1.0)
        for j in range(n):
            v, g = s.value(pts[j]), s.gradient(pts[j])
            if abs(v - vals[j]) > 1e-8 * (1.0 + abs(vals[j])):
                violations += 1
            if np.linalg.norm(g - grads[j]) > 1e-6 * (1.0 + np.linalg.norm(grads[j])):
                violations += 1
    elapsed = time.monotonic() - t0
    _gate(capsys, "criterion 6a (exactness + SPD, 200 instances)",
          violations == 0, f"{violations} violations, {elapsed:.1f}s")


def test_criterion_6b_error_bound_containment(capsys, rng):
    t0 = time.monotonic()
    k = make_kernel("gaussian", 1.0, 2)
    violations = 0
    for _ in range(200):
        zs = rng.uniform(-1.5, 1.5, (5, 2))
        cs = rng.normal(size=5)
        try:
            f, df, norm = synthetic_member(k, zs, cs)
            m = int(rng.integers(2, 5))
            ts = TrainingSet(zs[:m], np.array([f(p) for p in zs[:m]]),
                             np.array([df(p) for p in zs[:m]]))
        except DuplicatePointsError:
            continue
        s = fit(k, ts, norm_bound=norm)
        xs = rng.uniform(-2, 2, (200, 2))
        for x in xs:
            vb, gb = s.error_bounds(x)
            if abs(f(x) - s.value(x)) > vb * (1 + 1e-9) + 1e-12:
                violations += 1
            if np.linalg.norm(df(x) - s.gradient(x)) > gb * (1 + 1e-9) + 1e-12:
                violations += 1
    elapsed = time.monotonic() - t0
    _gate(capsys, "criterion 6b (error-bound containment, 200x200)",
          violations == 0, f"{violations} violations, {elapsed:.1f}s")


def test_criterion_6c_power_properties(capsys, rng):
    t0 = time.monotonic()
    k = make_kernel("gaussian", 1.0, 2)
    c_k = np.sqrt(2.0) * 1.0 * np.exp(-0.5)
    violations = 0

    pts = rng.uniform(-2, 2, (5, 2))
    vals = rng.normal(size=5)
    grads = rng.normal(size=(5, 2))
    s_small = fit(k, TrainingSet(pts[:4], vals[:4], grads[:4]), 1.0)
    s_full = fit(k, TrainingSet(pts, vals, grads), 1.0)

    for p in pts:
        if s_full.power(p) > 1e-6 * np.sqrt(k.diag_value):
            violations += 1
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, 2)
        pw = s_full.power(x)
        if not (0.0 <= pw <= np.sqrt(value(k, x, x)) + 1e-12):
            violations += 1
        if s_full.power(x) > s_small.power(x) + 1e-9:
            violations += 1
    for _ in range(1000):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        if abs(s_full.power(x) - s_full.power(y)) > \
                4.0 * np.sqrt(c_k) * np.sqrt(np.linalg.norm(x - y)) + 1e-12:
            violations += 1
    elapsed = time.monotonic() - t0
    _gate(capsys, "criterion 6c (power-function properties)",
          violations == 0, f"{violations} violations, {elapsed:.1f}s")


def test_criterion_6d_gradient_lipschitz(capsys, rng):
    t0 = time.monotonic()
    k = make_kernel("gaussian", 1.0, 2)
    # dense-sampling oracle for the Lipschitz constant of the mixed
    # second derivative profiles d1_l d2_l k as functions of x - y
    d = rng.uniform(-4, 4, (60000, 2))
    step = rng.normal(size=(60000, 2))
    step *= 1e-4 / np.linalg.norm(step, axis=1)[:, None]
    c_est = 0.0
    for l in range(2):
        def profile(dd):
            r = np.linalg.norm(dd, axis=1)
            _, g1, g2 = radial_profiles(k, r)
            return -g1 - g2 * dd[:, l] ** 2

        slopes = np.abs(profile(d + step) - profile(d)) / np.linalg.norm(step, axis=1)
        c_est = max(c_est, float(slopes.max()))

    zs = rng.uniform(-1.5, 1.5, (5, 2))
    cs = rng.normal(size=5)
    f, df, norm = synthetic_member(k, zs, cs)
    ts = TrainingSet(zs[:3], np.array([f(p) for p in zs[:3]]),
                     np.array([df(p) for p in zs[:3]]))
    s = fit(k, ts, norm_bound=norm)
    bound = 2.0 * c_est * np.sqrt(2.0) * norm
    violations = 0
    for _ in range(1000):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        dist = np.linalg.norm(x - y)
        if dist < 1e-12:
            continue
        ratio = np.linalg.norm(s.gradient(x) - s.gradient(y)) / dist
        if ratio > bound:
            violations += 1
    elapsed = time.monotonic() - t0
    _gate(capsys, "criterion 6d (surrogate-gradient Lipschitz, 1000 pairs)",
          violations == 0,
          f"{violations} violations against bound {bound:.3g} "
          f"(sampled constant {c_est:.3g}), {elapsed:.1f}s")


def _audit_report(report, cfg):
    """Branch-1 soundness, monotone accepted values, and the radius law."""
    violations = 0
    accepted = []
    for rec in report.log:
        if rec.branch in (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT):
            accepted.append(rec.j_value)
            if rec.branch is Branch.ACCEPTED_BY_SUFFICIENT and rec.sufficient_check_ok is False:
                violations += 1
            if rec.rho is None:
                expect = cfg.tr.beta_radius * rec.delta_before
            else:
                expect = update_radius(rec.rho, rec.delta_before, cfg.tr)
            if abs(rec.delta_after - expect) > 1e-12 * max(1.0, expect):
                violations += 1
        else:
            expect = cfg.tr.beta1_shrink * rec.delta_before
            if abs(rec.delta_after - expect) > 1e-12 * max(1.0, expect):
                violations += 1
    for a, b in zip(accepted, accepted[1:]):
        if b > a + 1e-12:
            violations += 1
    return violations


def test_criterion_6e_driver_audit(tmp_path, capsys):
    t0 = time.monotonic()
    violations = 0
    cfg1 = one_d_config([0.725, 2.0], tmp_path)
    rows, reports, _ = run_experiment(cfg1)
    for label in ("eps=0.725", "eps=2"):
        for _, rep in reports[label]:
            if not isinstance(rep, str):
                violations += _audit_report(rep, cfg1)

    cfg2 = config_from_dict({
        "problem": "pde2d",
        "grid_n": 48,
        "kernel": {"family": "quad_matern", "shape": 0.4},
        "n_starts": 2,
        "seed": 7,
        "output_dir": str(tmp_path / "out2"),
        "trust_region": {
            "delta0": 0.5, "tau_foc": 1.0e-4, "tau_j": 1.0e-12,
            "norm_source": "estimated", "norm_samples": 30, "norm_seed": 1234,
        },
    })
    rows2, reports2, _ = run_experiment(cfg2)
    for _, rep in reports2["eps=0.4"]:
        if not isinstance(rep, str):
            violations += _audit_report(rep, cfg2)
    elapsed = time.monotonic() - t0
    _gate(capsys, "criterion 6e (driver audit on 1D and 2D runs)",
          violations == 0, f"{violations} violations, {elapsed:.1f}s")


def test_criterion_6f_finite_difference_oracles(capsys, rng):
    t0 = time.monotonic()
    from hermite_tr.problems import problem_1d, problem_rosenbrock
    from hermite_tr.pde2d import Pde2dDiscretization, pde2d_gradient, pde2d_solve

    worst = {}
    # kernel first derivatives (all families) against central differences
    for fam in ("gaussian", "quad_matern", "wendland2"):
        k = make_kernel(fam, 0.9, 2)
        w = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 2)
            y = rng.uniform(-1.5, 1.5, 2)
            h = 1e-6
            g = grad1(k, x, y)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (value(k, x + e, y) - value(k, x - e, y)) / (2 * h)
                w = max(w, abs(g[i] - fd) / (1.0 + abs(g[i])))
        worst[f"kernel:{fam}"] = (w, 1e-6)

    # surrogate gradient against differences of its value
    k = make_kernel("gaussian", 1.0, 2)
    pts = rng.uniform(-2, 2, (5, 2))
    s = fit(k, TrainingSet(pts, rng.normal(size=5), rng.normal(size=(5, 2))), 1.0)
    w = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        g = s.gradient(x)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (s.value(x + e) - s.value(x - e)) / (2 * h)
            w = max(w, abs(g[i] - fd) / (1.0 + abs(g[i])))
    worst["surrogate"] = (w, 1e-5)

    for problem, tol in ((problem_1d(), 1e-8), (problem_rosenbrock(), 1e-8)):
        w = 0.0
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5, problem.dim)
            _, g = peek(problem, x)
            h = 1e-7
            for i in range(problem.dim):
                e = np.zeros(problem.dim)
                e[i] = h
                fd = (peek(problem, x + e)[0] - peek(problem, x - e)[0]) / (2 * h)
                w = max(w, abs(g[i] - fd) / (1.0 + abs(g[i])))
        worst[problem.name] = (w, tol)

    disc = Pde2dDiscretization.build(48)
    w = 0.0
    for _ in range(10):
        mu = rng.uniform([0.5, 0.5], [np.pi, np.pi])
        w_gamma, _, f = pde2d_solve(disc, mu)
        g = pde2d_gradient(disc, mu, w_gamma, f)
        h = 1e-5
        for m in range(2):
            e = np.zeros(2)
            e[m] = h
            fd = (pde2d_solve(disc, mu + e)[1] - pde2d_solve(disc, mu - e)[1]) / (2 * h)
            w = max(w, abs(g[m] - fd) / (1.0 + abs(fd)))
    worst["pde2d"] = (w, 1e-5)

    elapsed = time.monotonic() - t0
    bad = {name: v for name, (v, tol) in worst.items() if v > tol}
    detail = ", ".join(f"{name} {v:.1e}<={tol:.0e}" for name, (v, tol) in worst.items())
    _gate(capsys, "criterion 6f (finite-difference oracles)",
          not bad, f"{detail}, {elapsed:.1f}s")
