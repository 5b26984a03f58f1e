"""Seed scans: three bundled configs over fixed seed ranges, in aggregate.

A five-start bundled count moves with the last bits of a change (a
perturbation of 1e-14 has moved one by 30%), so counts are judged over
seeds: each range runs its config once per seed, with the norm samples'
seed following the start seed.  Each range runs in a fresh process with
one BLAS thread, as the golden outputs do.  A change that moves an
aggregate updates it here and lists old -> new in CHANGES.md.
"""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hermite_tr.driver import Branch
from hermite_tr.harness import load_config, run_experiment
from hermite_tr.problems import make_problem
from hermite_tr.subproblem import project_box

from oracles import peek
from test_harness import CONFIG_DIR, TESTS, one_blas_thread_env

ACCEPTED = (Branch.ACCEPTED_BY_SUFFICIENT, Branch.ACCEPTED_BY_DIRECT)

# config -> (seeds, aggregates).  Means are evaluations per solve; charged
# adds each run's share of the norm samples, norm_evals / n_starts.
SCANS = {
    "one_d": (range(30), {
        "method": 5.680, "baseline": 7.220, "charged": 5.680, "failed": 0,
        "caught_audits": 2, "rel_err_above_1e-6": 0, "stagnation_above_tau_foc": 15,
        "uphill_acceptances": 0, "foc_ends_above_tau_foc": 0}),
    "rosenbrock": (range(15), {
        "method": 21.600, "baseline": 49.778, "charged": 41.600, "failed": 0,
        "caught_audits": 10, "rel_err_above_1e-6": 0, "stagnation_above_tau_foc": 32,
        "uphill_acceptances": 7, "foc_ends_above_tau_foc": 0}),
    "pde2d": (range(8), {
        "method": 4.625, "baseline": 7.550, "charged": 14.625, "failed": 0,
        "caught_audits": 0, "rel_err_above_1e-6": 1, "stagnation_above_tau_foc": 1,
        "uphill_acceptances": 0, "foc_ends_above_tau_foc": 0}),
}


def _uphill(log, j_start) -> int:
    """Accepted steps in a run's log whose objective value rose."""
    count, current = 0, j_start
    for record in log:
        if record.branch in ACCEPTED:
            count += record.j_value > current
            current = record.j_value
    return count


def scan(name) -> dict:
    """The aggregates of SCANS[name] over its seeds, in this process."""
    seeds, expected = SCANS[name]
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    problem = make_problem(cfg.problem, grid_n=cfg.grid_n)   # uncounted J at the starts
    box = (problem.lower, problem.upper)
    method, charged, baseline, tally = [], [], [], dict.fromkeys(expected, 0)
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed, norm_source=replace(cfg.norm_source, seed=seed))
        _, reports, meta = run_experiment(run_cfg)
        baseline += [r.fom_evals for _, r in reports.pop("baseline") if not isinstance(r, str)]
        tau_foc = run_cfg.tr.tau_foc
        for label, group in reports.items():
            norm_evals = meta["norm_estimation"].get(label, {}).get("norm_evals", 0)
            for k, report in group:
                if isinstance(report, str):
                    tally["failed"] += 1
                    continue
                method.append(report.fom_evals)
                charged.append(report.fom_evals + norm_evals / run_cfg.n_starts)
                tally["caught_audits"] += report.audit_failures
                rel_err = (abs(report.final_j - meta["reference_j"])
                           / max(abs(meta["reference_j"]), 1.0))
                tally["rel_err_above_1e-6"] += rel_err > 1e-6
                above = report.final_foc > tau_foc
                tally["stagnation_above_tau_foc"] += above and report.termination == "stagnation"
                tally["foc_ends_above_tau_foc"] += above and report.termination == "foc"
                j_start = peek(problem, project_box(meta["starts"][k], box))[0]
                tally["uphill_acceptances"] += _uphill(report.log, j_start)
    means = {"method": method, "baseline": baseline, "charged": charged}
    return {**tally, **{key: round(float(np.mean(v)), 3) for key, v in means.items()}}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_aggregates_unchanged(name):
    script = "import json, sys, test_scans; print(json.dumps(test_scans.scan(sys.argv[1])))"
    out = subprocess.run([sys.executable, "-c", script, name],
                         env=one_blas_thread_env(TESTS), check=True,
                         capture_output=True, text=True)
    assert json.loads(out.stdout.splitlines()[-1]) == SCANS[name][1]
