"""Config loading, experiment protocol, file outputs, CLI."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from hermite_tr import baseline, driver, harness, pde2d, problems, subproblem, surrogate
from hermite_tr.baseline import BaselineConfig
from hermite_tr.cli import main as cli_main
from hermite_tr.driver import NormSource, TRConfig
from hermite_tr.errors import ConfigError, NumericalError
from hermite_tr.harness import (
    ExperimentConfig,
    config_from_dict,
    emit_outputs,
    export_power_field,
    load_config,
    run_experiment,
    sample_starts,
)
from hermite_tr.kernels import KernelSpec
from hermite_tr.problems import Problem, make_problem
from hermite_tr.subproblem import SubproblemConfig

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
CONFIG_DIR = REPO / "scripts" / "configs"

MINIMAL = {
    "problem": "one_d",
    "kernel": {"family": "gaussian", "shape": 0.725},
}

# Every setting of a config that gives only problem and kernel, spelled
# out so that a changed dataclass default shows up here.
DEFAULTS = {
    "grid_n": 96, "n_starts": 5, "seed": 0, "output_dir": "results", "start_box": None,
    "norm_source": {"kind": "estimated", "n_samples": 50, "seed": 0, "safety": 1.0,
                    "value": 0.0},
    "tr": {"delta0": 0.5, "i_max": 50, "tau_foc": 1e-6, "tau_j": 1e-14, "xi1": 0.1,
           "xi2": 0.9, "beta_radius": 0.5, "beta1_shrink": 0.5, "max_rejects": 15,
           "sub": {"kappa_bt": 0.5, "kappa_arm": 1e-4, "tau_sub": 1e-6 / 10, "beta2": 0.95,
                   "l_max": 50, "j_max": 30}},
    "baseline": {"tau_foc": 1e-6, "tau_j": 1e-14, "i_max": 200},
}


def _merged(base, over):
    """base with over's entries replaced, recursing into nested mappings."""
    out = dict(base)
    for key, value in over.items():
        out[key] = _merged(base[key], value) if isinstance(value, dict) else value
    return out


# What each bundled YAML sets beyond DEFAULTS, the values that follow the
# trust region included
BUNDLED = {
    "one_d": {
        "problem": "one_d", "kernel_family": "gaussian", "shapes": (0.725,),
        "output_dir": "results/one_d", "norm_source": {"kind": "analytic"},
    },
    "one_d_sweep": {
        "problem": "one_d", "kernel_family": "gaussian", "shapes": (0.725, 1.0, 2.0, 10.0),
        "output_dir": "results/one_d_sweep", "norm_source": {"kind": "analytic"},
        "tr": {"i_max": 80},
    },
    "rosenbrock": {
        "problem": "rosenbrock", "kernel_family": "gaussian", "shapes": (2.0,),
        "n_starts": 3, "seed": 3, "output_dir": "results/rosenbrock",
        "start_box": ((-2.0, -1.0), (2.0, 3.0)),
        "norm_source": {"n_samples": 60, "seed": 11},
        "tr": {"delta0": 1.0, "tau_foc": 1e-5, "tau_j": 1e-15, "i_max": 150,
               "max_rejects": 60, "sub": {"tau_sub": 1e-5 / 10}},
        "baseline": {"tau_foc": 1e-5, "tau_j": 1e-15, "i_max": 400},
    },
    "pde2d": {
        "problem": "pde2d", "kernel_family": "quad_matern", "shapes": (0.4,),
        "seed": 7, "output_dir": "results/pde2d",
        "norm_source": {"seed": 1234},
        "tr": {"tau_foc": 1e-4, "tau_j": 1e-12, "sub": {"tau_sub": 1e-4 / 10}},
        "baseline": {"tau_foc": 1e-4, "tau_j": 1e-12},
    },
}


def small_pde2d():
    """The bundled pde2d config on a 24 x 24 grid with two starts."""
    data = yaml.safe_load((CONFIG_DIR / "pde2d.yaml").read_text())
    return {**data, "grid_n": 24, "n_starts": 2}


# config dataclass -> keyword arguments with one real set to the given value
NON_FINITE = {
    "ExperimentConfig.shapes": (ExperimentConfig, lambda v: dict(
        problem="one_d", kernel_family="gaussian", shapes=(1.0, v))),
    "ExperimentConfig.start_box": (ExperimentConfig, lambda v: dict(
        problem="rosenbrock", kernel_family="gaussian", shapes=(1.0,),
        start_box=((-v, 0.0), (1.0, 1.0)))),
    "NormSource.value": (NormSource, lambda v: dict(kind="fixed", value=v)),
    "NormSource.safety": (NormSource, lambda v: dict(safety=v)),
    "TRConfig.delta0": (TRConfig, lambda v: dict(delta0=v)),
    "TRConfig.tau_foc": (TRConfig, lambda v: dict(tau_foc=v)),
    "SubproblemConfig.tau_sub": (SubproblemConfig, lambda v: dict(tau_sub=v)),
    "BaselineConfig.tau_foc": (BaselineConfig, lambda v: dict(tau_foc=v)),
    "KernelSpec.shape": (KernelSpec, lambda v: dict(family="gaussian", shape=v, dim=1)),
}


def tiny_config(tmp_path, **extra):
    data = {
        "problem": "one_d",
        "kernel": {"family": "gaussian", "shape": 0.725},
        "n_starts": 2,
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "trust_region": {"norm_source": "analytic", "tau_foc": 1.0e-6},
    }
    data.update(extra)
    return config_from_dict(data)


def _diverge(val, grad):
    raise NumericalError("objective solver diverged")


# (J, grad J) -> what a failing evaluation does instead of returning them
FAILURES = {
    "inf J": lambda val, grad: (math.inf, grad),
    "NaN J": lambda val, grad: (math.nan, grad),
    "J = -1": lambda val, grad: (-1.0, grad),
    "raises": _diverge,
}


def fail_evaluation(monkeypatch, at, failure):
    """Make run_experiment's problem apply failure at its evaluation number at.

    Returns a list that gains an entry when the failure fires.
    """
    fired = []

    def failing_problem(name, grid_n):
        problem = make_problem(name, grid_n=grid_n)
        fn = problem.fn

        def failing(x):
            val, grad = fn(x)
            if problem.counter != at:
                return val, grad
            fired.append(at)
            return failure(val, grad)

        problem.fn = failing
        return problem

    monkeypatch.setattr(harness, "make_problem", failing_problem)
    return fired


class TestLoadConfig:
    def test_minimal_defaults(self):
        cfg = config_from_dict(dict(MINIMAL))
        assert cfg.n_starts == 5
        assert cfg.tr.xi1 == 0.1 and cfg.tr.xi2 == 0.9
        assert cfg.tr.beta_radius == 0.5
        assert cfg.tr.sub.kappa_bt == 0.5
        assert cfg.tr.sub.kappa_arm == 1e-4
        assert cfg.shapes == (0.725,)
        # each setting defaults to its dataclass field's default, except
        # tau_sub, which follows the trust region; the baseline's tolerances
        # are the trust region's
        tr = TRConfig()
        assert cfg.tr == TRConfig(sub=SubproblemConfig(tau_sub=tr.tau_foc / 10))
        assert cfg.baseline == BaselineConfig(tau_foc=tr.tau_foc, tau_j=tr.tau_j)
        assert cfg.norm_source == NormSource()
        assert asdict(cfg) == {"problem": "one_d", "kernel_family": "gaussian",
                               "shapes": (0.725,), **DEFAULTS}

    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_bundled_configs_load(self, name):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        assert asdict(cfg) == _merged(DEFAULTS, BUNDLED[name])

    def test_negative_shape_rejected(self):
        for shape in (-1.0, "abc"):
            bad = {"problem": "one_d", "kernel": {"family": "gaussian", "shape": shape}}
            with pytest.raises(ConfigError):
                config_from_dict(bad)

    def test_malformed_values_rejected(self):
        for data in (
            {**MINIMAL, "n_starts": 2.7},
            {**MINIMAL, "trust_region": {"i_max": 7.9}},
            {**MINIMAL, "start_box": 3},
            {**MINIMAL, "start_box": [[0.0], [1.0, 2.0]]},
            {**MINIMAL, "start_box": [[0.0, 0.0], [1.0, 1.0]]},   # one_d is 1D
            {**MINIMAL, "start_box": [[1.0], [0.0]]},
            {**MINIMAL, "subproblem": {"kappa_bt": 2.0}},
            {**MINIMAL, "baseline": {"i_max": 0}},
            {**MINIMAL, "baseline": {"kappa_bt": 2.0}},
            {**MINIMAL, "trust_region": {"norm_safety": 0.5}},
            {**MINIMAL, "trust_region": {"norm_seed": -3}},
            {**MINIMAL, "seed": -1},
            # YAML booleans are not numbers
            {**MINIMAL, "n_starts": True},
            {**MINIMAL, "trust_region": {"tau_foc": True}},
            {**MINIMAL, "trust_region": {"norm_source": "fixed", "norm_value": True}},
            {"problem": "one_d", "kernel": {"family": "gaussian", "shape": True}},
            {**MINIMAL, "start_box": [[False], [True]]},
            # nor are YAML's .inf and .nan
            {**MINIMAL, "trust_region": {"norm_source": "fixed", "norm_value": float("inf")}},
            {**MINIMAL, "trust_region": {"norm_source": "estimated",
                                         "norm_safety": float("inf")}},
            {"problem": "one_d", "kernel": {"family": "gaussian", "shape": float("inf")}},
            {"problem": "rosenbrock", "kernel": {"family": "gaussian", "shape": 1.0},
             "start_box": [[-float("inf"), 0.0], [1.0, 1.0]]},
            {**MINIMAL, "trust_region": {"delta0": float("inf")}},
            {**MINIMAL, "subproblem": {"tau_sub": float("nan")}},
            # shapes whose group labels (eps=<shape:g>) collide
            {"problem": "one_d", "kernel": {"family": "gaussian", "shape": [1.0, 1.0000001]}},
            {"problem": "one_d", "kernel": {"family": "gaussian", "shape": [1, 1]}},
        ):
            with pytest.raises(ConfigError):
                config_from_dict(dict(data))
        assert config_from_dict({**MINIMAL, "n_starts": 3.0}).n_starts == 3

    def test_non_finite_shape_exits_with_config_error(self, tmp_path):
        data = {"problem": "one_d", "kernel": {"family": "gaussian", "shape": float("inf")},
                "output_dir": str(tmp_path / "out")}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(data))
        assert ".inf" in path.read_text()
        assert cli_main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_configs_built_in_code_refuse_non_finite_reals(self, name, bad):
        # each config dataclass checks its own reals, so a config built in
        # code is held to the rules a YAML file is
        cls, kwargs = NON_FINITE[name]
        with pytest.raises(ValueError if cls is KernelSpec else ConfigError, match="finite"):
            cls(**kwargs(bad))

    @pytest.mark.parametrize("key", ["tau_foc", "tau_j", "kappa_bt", "kappa_arm", "j_max"])
    def test_baseline_takes_no_tolerance_or_line_search_key(self, key, tmp_path):
        # the baseline stops by the trust region's tolerances and backtracks
        # with subproblem's settings; a copy under baseline: is refused,
        # even with the value the trust region has
        value = asdict(TRConfig())[key] if key.startswith("tau") \
            else asdict(SubproblemConfig())[key]
        data = {**MINIMAL, "baseline": {key: value}}
        with pytest.raises(ConfigError, match=key):
            config_from_dict(data)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({**data, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_creates_groups(self, tmp_path):
        cfg = tiny_config(tmp_path, kernel={"family": "gaussian", "shape": [0.725, 1.0, 2.0]})
        assert cfg.shapes == (0.725, 1.0, 2.0)
        rows, reports, _ = run_experiment(cfg)
        labels = [r.label for r in rows]
        assert labels == ["eps=0.725", "eps=1", "eps=2", "baseline"]

    def test_unknown_keys_rejected(self):
        for data in (
            {**MINIMAL, "mystery": 1},
            {"problem": "one_d", "kernel": {"family": "gaussian", "shape": 1.0, "bw": 2}},
            {**MINIMAL, "trust_region": {"delta_zero": 0.5}},
        ):
            with pytest.raises(ConfigError, match="unknown"):
                config_from_dict(dict(data))

    def test_missing_file_and_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_config(bad)

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            "problem: one_d\nkernel:\n  family: gaussian\n  shape: 0.725\nseed: 9\n"
        )
        cfg = load_config(path)
        assert cfg.seed == 9


class TestProtocol:
    def test_starts_deterministic_and_shared(self, tmp_path):
        cfg = tiny_config(tmp_path)
        a = sample_starts(cfg)
        b = sample_starts(cfg)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2, 1)
        assert np.all((-2 <= a) & (a <= 2))

    def test_stationary_degenerate_start_box(self, tmp_path):
        # a collapsed start box pins the start at the stationary point, so
        # the run spends exactly one evaluation
        cfg = tiny_config(tmp_path, n_starts=1, start_box=[[0.0], [0.0]])
        rows, reports, _ = run_experiment(cfg)
        (idx, report), = reports["eps=0.725"]
        assert report.fom_evals == 1
        assert report.termination == "foc"

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a")
        cfg2 = tiny_config(tmp_path / "a")  # same seed, different dirs below
        rows1, reports1, meta1 = run_experiment(cfg1)
        rows2, reports2, meta2 = run_experiment(cfg2)
        out1 = emit_outputs(rows1, reports1, meta1, cfg1)
        cfg2 = config_from_dict({
            "problem": "one_d",
            "kernel": {"family": "gaussian", "shape": 0.725},
            "n_starts": 2,
            "seed": 5,
            "output_dir": str(tmp_path / "b" / "out"),
            "trust_region": {"norm_source": "analytic", "tau_foc": 1.0e-6},
        })
        out2 = emit_outputs(rows2, reports2, meta2, cfg2)
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_failures_reported_not_dropped(self, tmp_path):
        # an absurd fixed norm bound makes every run end degenerately at its
        # start; runs still "succeed" (stagnation) so force failures via a
        # one-reject budget and flipped-gradient adversary is overkill here;
        # instead check the n_failures column survives the summary path
        cfg = tiny_config(tmp_path)
        rows, reports, meta = run_experiment(cfg)
        for row in rows:
            assert row.n_failures == 0

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_infinite_reference_trial_is_rejected(self, tmp_path, monkeypatch, failure):
        # the third evaluation is a trial of the reference's first run
        rows_clean, _, meta_clean = run_experiment(tiny_config(tmp_path))
        fired = fail_evaluation(monkeypatch, 3, FAILURES[failure])
        rows, reports, meta = run_experiment(tiny_config(tmp_path))
        assert fired == [3]
        assert [run["termination"] for run in meta["reference_runs"]] == [
            run["termination"] for run in meta_clean["reference_runs"]]
        assert meta["reference_j"] == pytest.approx(meta_clean["reference_j"], abs=1e-12)
        assert [row.n_failures for row in rows] == [0] * len(rows_clean)

    def test_failed_norm_estimate_fails_only_its_shape(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, trust_region={"norm_source": "estimated",
                                                  "norm_samples": 5})
        _, reports_clean, meta_clean = run_experiment(cfg)
        # the reference and baseline runs come first, so the first norm
        # sample is the next evaluation
        first_sample = meta_clean["reference_fom_evals"] + sum(
            r.fom_evals for _, r in reports_clean["baseline"]) + 1
        fired = fail_evaluation(monkeypatch, first_sample, FAILURES["NaN J"])
        rows, reports, meta = run_experiment(cfg)
        assert fired == [first_sample]
        assert [k for k, _ in reports["eps=0.725"]] == [0, 1]
        assert all(r.startswith("NonFiniteError: ") for _, r in reports["eps=0.725"])
        assert meta["norm_estimation"] == {"eps=0.725": {"norm_bound": None, "norm_evals": 1}}
        assert [(row.label, row.n_failures) for row in rows] == [("eps=0.725", 2),
                                                                 ("baseline", 0)]
        out = emit_outputs(rows, reports, meta, cfg)
        assert json.loads((out / "experiment.json").read_text())["norm_estimation"] \
            == meta["norm_estimation"]
        failure = json.loads((out / "runs" / "eps_0.725__start1.json").read_text())
        assert failure == {"failure": reports["eps=0.725"][1][1]}
        assert (out / "runs" / "baseline__start1.json").exists()

    def test_summary_csv_format(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = emit_outputs(*run_experiment(cfg), cfg)
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "label,avg_fom_evals,avg_foc,avg_rel_err_J,n_failures"
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            [float(f) for f in fields[1:]]  # all numeric
        assert (out / "table.txt").exists()
        assert (out / "experiment.json").exists()
        assert sorted(p.name for p in (out / "runs").iterdir())

    def test_reference_runs_account_for_the_reference_evaluations(self, tmp_path):
        # each start's run serves the reference and the baseline: the
        # baseline's reports keep their evaluations, the reference is
        # charged the rest
        cfg = tiny_config(tmp_path, n_starts=3)
        rows, reports, meta = run_experiment(cfg)
        out = emit_outputs(rows, reports, meta, cfg)
        meta = json.loads((out / "experiment.json").read_text())
        runs = meta["reference_runs"]
        assert [r["start"] for r in runs] == [0, 1, 2]
        assert sum(r["fom_evals"] for r in runs) == meta["reference_fom_evals"] + sum(
            r.fom_evals for _, r in reports["baseline"])
        assert {r["termination"] for r in runs} <= {"foc", "stagnation", "max_iters",
                                                     "stalled"}

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("HERMITE_TR_OUTPUT_DIR", str(target))
        out = emit_outputs(*run_experiment(cfg), cfg)
        assert out == target
        assert (target / "summary.csv").exists()

    def test_fewer_starts_in_the_same_directory_leave_no_stale_records(self, tmp_path,
                                                                       monkeypatch):
        # the bundled one_d experiment (5 starts), then a 2-start one, into
        # one directory: runs/ holds the 2-start records, and a file that is
        # not a run record stays, as does a directory named like one
        monkeypatch.setenv("HERMITE_TR_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = load_config(CONFIG_DIR / "one_d.yaml")
        out = emit_outputs(*run_experiment(cfg), cfg)
        # the files cli._load checks before a run are the files the run writes
        assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == \
            set(harness.experiment_files(cfg))
        (out / "runs" / "notes.txt").write_text("kept\n")
        (out / "runs" / "old__start0.json").mkdir()
        fewer = replace(cfg, n_starts=2)
        emit_outputs(*run_experiment(fewer), fewer)
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            "baseline__start0.json", "baseline__start1.json",
            "eps_0.725__start0.json", "eps_0.725__start1.json", "notes.txt",
            "old__start0.json"]

    def test_start_box_checked_without_building_the_problem(self, monkeypatch):
        def build(grid_n):
            raise AssertionError("config check assembled the PDE")

        # the problem's discretization may already be shared, so neither
        # path to it may be taken
        monkeypatch.setattr(pde2d.Pde2dDiscretization, "build", staticmethod(build))
        monkeypatch.setattr(pde2d, "discretization", build)
        base = {"problem": "pde2d", "kernel": {"family": "quad_matern", "shape": 0.4}}
        cfg = config_from_dict({**base, "start_box": [[0.5, 0.5], [2.0, 3.0]]})
        assert cfg.start_box == ((0.5, 0.5), (2.0, 3.0))
        with pytest.raises(ConfigError):
            config_from_dict({**base, "start_box": [[0.5], [2.0]]})

    @pytest.mark.parametrize("start_box", [
        [[-2.0, -2.0], [3.0, 3.0]],
        [[0.5, 0.5], [3.2, 3.0]],      # one upper bound above pi
        [[0.4, 1.0], [1.0, 2.0]],      # one lower bound below 0.5
    ])
    def test_start_box_outside_problem_box_rejected(self, start_box, tmp_path, monkeypatch):
        # starts and norm samples come from start_box unprojected, and the
        # pde2d objective is not positive everywhere outside its box
        def build(grid_n):
            raise AssertionError("config check assembled the PDE")

        data = {**small_pde2d(), "start_box": start_box,
                "output_dir": str(tmp_path / "out")}
        monkeypatch.setattr(pde2d.Pde2dDiscretization, "build", staticmethod(build))
        monkeypatch.setattr(pde2d, "discretization", build)
        with pytest.raises(ConfigError, match="inside the pde2d box"):
            config_from_dict(data)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_baseline_and_reference_backtrack_like_the_inner_solver(self, monkeypatch):
        # solve, the one run per start that serves the reference and the
        # baseline, and reference_solution all get cfg.tr.sub, and every
        # line search of the experiment runs on that one object
        cfg = config_from_dict({**MINIMAL, "n_starts": 2,
                                "trust_region": {"norm_source": "analytic"},
                                "subproblem": {"kappa_bt": 0.3}})
        received = {"solve": [], "harness.minimize": [], "baseline.minimize": [],
                    "reference_solution": [], "backtrack": []}

        def recording(module, name, position, key=None):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                received[key or name].append(args[position])
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        recording(driver, "solve", 3)
        # harness binds minimize at import, so a call through that name
        # escapes a patch of baseline.minimize: both are recorded
        recording(harness, "minimize", 3, key="harness.minimize")
        recording(baseline, "minimize", 3, key="baseline.minimize")
        recording(harness, "reference_solution", 2)
        ladder = subproblem.backtracking_ladder

        def recording_ladder(x, direction, ls_cfg, box):
            received["backtrack"].append(ls_cfg)
            return ladder(x, direction, ls_cfg, box)

        monkeypatch.setattr(subproblem, "backtracking_ladder", recording_ladder)
        monkeypatch.setattr(baseline, "backtracking_ladder", recording_ladder)
        run_experiment(cfg)
        assert [len(received[name]) for name in ("harness.minimize", "baseline.minimize",
                                                 "reference_solution")] == [0, 2, 1]
        assert received["solve"] and received["backtrack"]
        for name, seen in received.items():
            assert all(c is cfg.tr.sub for c in seen), name

    def test_pde2d_solves_once_per_evaluation(self):
        # the small pde2d experiment of TestGoldenOutputs, run as there in a
        # fresh process with one BLAS thread: 79 counted evaluations at 77
        # distinct points, and each of the 2 repeats costs a solve too.
        # (94 at 77 before the baseline shared the reference's runs; two
        # threads then read 92 at 75; 96 at 79 before the solve in the
        # interface eigenbasis, 103 at 86 before the condensed solve and the
        # warm start from the norm samples, 191 at 170 before the
        # reference's line searches stopped at the objective's rounding
        # level.)
        script = ("import json, test_harness; "
                  "print(json.dumps(test_harness.small_pde2d_solve_counts()))")
        out = subprocess.run([sys.executable, "-c", script], env=one_blas_thread_env(TESTS),
                             check=True, capture_output=True, text=True)
        evals, recorded, distinct, solves, gradients = json.loads(out.stdout)
        # every solve computes its gradient with the value, the rejected
        # line-search trials of the reference and baseline runs too
        assert evals == recorded == solves == gradients == 79
        assert distinct == 77

    def test_failed_inner_solves_leave_no_cyclic_garbage(self):
        # the bundled rosenbrock experiment, in a fresh process with one
        # BLAS thread, has failed inner solves; their errors must not tie a
        # finished run's frame into a reference cycle that only the cyclic
        # collector frees
        script = ("import json, test_harness; "
                  "print(json.dumps(test_harness.rosenbrock_cyclic_garbage()))")
        out = subprocess.run([sys.executable, "-c", script], env=one_blas_thread_env(TESTS),
                             check=True, capture_output=True, text=True)
        failed_solves, garbage = json.loads(out.stdout)
        assert failed_solves > 0
        assert garbage == 0

    @pytest.mark.parametrize("trust_region", [
        {},
        {"norm_source": "estimated", "norm_samples": 12, "norm_seed": 4},
    ])
    def test_refits_grow_the_gram(self, monkeypatch, trust_region):
        # the bundled one_d experiment assembles a Gram from no base only
        # for each run's first model and each norm estimate; every refit
        # grows the Gram of the model before it
        data = yaml.safe_load((CONFIG_DIR / "one_d.yaml").read_text())
        cfg = config_from_dict({**data, "trust_region": {**data["trust_region"],
                                                         **trust_region}})
        assembled, fits, previous_given, estimates = [], [], [], []
        assemble, fit_, resolve = surrogate.assemble_gram, driver.fit, harness.resolve_norm_bound

        def counted_assemble(kernel, points, base=None):
            assembled.append(base is None)
            return assemble(kernel, points, base)

        def recording_fit(kernel, training, norm_bound, previous=None):
            previous_given.append(previous is not None)
            if previous is not None:
                assert previous is fits[-1]
            fits.append(fit_(kernel, training, norm_bound, previous=previous))
            return fits[-1]

        def recording_resolve(*args, **kwargs):
            result = resolve(*args, **kwargs)
            estimates.append(result[1] is not None)
            return result

        monkeypatch.setattr(surrogate, "assemble_gram", counted_assemble)
        monkeypatch.setattr(driver, "fit", recording_fit)
        monkeypatch.setattr(harness, "resolve_norm_bound", recording_resolve)
        run_experiment(cfg)
        first_fits = previous_given.count(False)
        assert first_fits == cfg.n_starts and any(previous_given)
        assert estimates == [bool(trust_region)]
        assert assembled.count(True) == first_fits + sum(estimates)
        assert assembled.count(False) == previous_given.count(True)


def small_pde2d_solve_counts():
    """small_pde2d()'s experiment: (counted evaluations, recorded evaluations,
    distinct points, PDE solves, gradients)."""
    solves, gradients, points, problems = [], [], [], []
    solve, gradient, evaluate = pde2d.pde2d_solve, pde2d.pde2d_gradient, Problem.eval

    def counted_solve(disc, mu):
        solves.append(1)
        return solve(disc, mu)

    def counted_gradient(*args, **kwargs):
        gradients.append(1)
        return gradient(*args, **kwargs)

    def recorded_eval(self, x):
        points.append(np.asarray(x, dtype=float).tobytes())
        return evaluate(self, x)

    def kept(name, grid_n):
        problems.append(make_problem(name, grid_n=grid_n))
        return problems[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde2d, "pde2d_solve", counted_solve)
        mp.setattr(pde2d, "pde2d_gradient", counted_gradient)
        mp.setattr(Problem, "eval", recorded_eval)
        mp.setattr(harness, "make_problem", kept)
        run_experiment(config_from_dict(small_pde2d()))
    [problem] = problems
    return problem.counter, len(points), len(set(points)), len(solves), len(gradients)


def small_pde2d_twice(out):
    """Run and emit small_pde2d()'s experiment twice in this process, into out/0
    and out/1; returns the gstrf calls each run made."""
    calls = []
    gstrf = pde2d.gstrf

    def counted(*args, **kwargs):
        calls[-1] += 1
        return gstrf(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde2d, "gstrf", counted)
        for k in range(2):
            calls.append(0)
            mp.setenv(harness.OUTPUT_DIR_ENV, str(Path(out) / str(k)))
            cfg = config_from_dict(small_pde2d())
            emit_outputs(*run_experiment(cfg), cfg)
    return calls


def rosenbrock_cyclic_garbage():
    """The bundled rosenbrock experiment, twice: (failed inner solves in the
    first, objects the cyclic collector finds after the second, run with
    the collector disabled)."""
    cfg = load_config(CONFIG_DIR / "rosenbrock.yaml")
    _, reports, _ = run_experiment(cfg)
    failed = sum(r.branch is driver.Branch.SUBPROBLEM_FAILED
                 for group in reports.values() for _, report in group
                 if not isinstance(report, str) for r in report.log)
    gc.collect()
    gc.disable()
    try:
        run_experiment(cfg)
        return failed, gc.collect()
    finally:
        gc.enable()


def one_blas_thread_env(*paths, **extra):
    """Environment of a fresh process with one BLAS thread that imports src and paths."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), *map(str, paths),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1", PYTHONPATH=path, **extra)


def tree_digest(out):
    """sha256 over summary.csv, experiment.json and runs/*.json, in sorted order.

    Each file enters with its path relative to out, so a renamed or
    missing run record changes the digest too.
    """
    digest = hashlib.sha256()
    for path in [out / "summary.csv", out / "experiment.json",
                 *sorted((out / "runs").glob("*.json"))]:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="class")
def cli_output(tmp_path_factory):
    """Output directory of `hermite-tr <command> <config>`, run once per class;
    the command's stdout is stdout.txt beside it.

    The run happens in a fresh process with one BLAS thread: rosenbrock's
    evaluation counts move with the thread count.
    """
    done = {}

    def run(command, config):
        key = (command, str(config))
        if key not in done:
            out = tmp_path_factory.mktemp("cli") / "out"
            env = one_blas_thread_env(HERMITE_TR_OUTPUT_DIR=str(out))
            printed = subprocess.run(
                [sys.executable, "-m", "hermite_tr.cli", command, str(config)],
                env=env, check=True, capture_output=True, text=True).stdout
            (out.parent / "stdout.txt").write_text(printed)
            done[key] = out
        return done[key]

    return run


class TestGoldenOutputs:
    # sha256 of summary.csv from the bundled configs, written by the CLI in
    # a fresh process with one BLAS thread.  pde2d takes about 1 s.
    SUMMARY_SHA256 = {
        "one_d": "1e8e1a9bb60dadf8f7687c961e71ae5fbdefae6c6df6b6166a49d42107939f99",
        "one_d_sweep": "8f5764ebf11aa22e87f1d49df3af97effc0db4ca01e3f2cf7fce8d658fdb49c8",
        "pde2d": "cb131610a6aa3aa56a64b9f82da8b33adc1fe004a1d799711e2c14c9ddf9e049",
        "rosenbrock": "42acede53c7447727fe0c79ed969ec61b16169da71e84d838e7c51c1e1fd0440",
    }
    # sha256 of the file the power-field command writes, with its default
    # arguments, under the same conditions
    COMMAND_SHA256 = {
        ("power-field", "one_d"):
            "f1502458344ed6922325191a3e573d128b79b95dc54f6b2a1c9a5001676a61bb",
        ("power-field", "rosenbrock"):
            "fe16f9924d68c023aaf6e328b620c9e73db6abcde44c1cf6806cd5933727e2bf",
    }
    OUTPUT_FILE = {"run": "summary.csv", "power-field": "power_field.csv"}

    # the same for small_pde2d(); the condensed PDE solve and then its
    # interface eigenbasis moved its last bits, and the warm start from the
    # norm samples its method counts
    SMALL_PDE2D_SHA256 = "6d909df4403d86027dabdbeaa2381529c109c979f9827c0d6f288513d9c41848"

    # tree_digest of the whole output of `hermite-tr run`: summary.csv
    # rounds to 12 significant digits, the run records keep every bit.
    # foc_measure reads the objective's gradient stored at the iterate;
    # experiment.json's reference_fom_evals leaves out the evaluations of
    # the baseline, which shares the reference's runs
    TREE_SHA256 = {
        "one_d": "a9369718cdabebd37963dd93530d07ffc4b7a1acce084ea348fbdc472724787d",
        "one_d_sweep": "4a96fab763f08d63e3fc97e6108c70845ddbff83e9a0226561715474a7952d7b",
        "pde2d": "6e8cf3d3598c9d05f66aff213de5e7eb2d1071d6051b4134cf253a4cea7d3b70",
        "rosenbrock": "bbc554a9f77ceee75ae9b1952156703d6de75fab299e900b2d8ddbe96e97f487",
        "small_pde2d": "6ba5740b6955d3bcf8297c2a82d481c93da33e79e4cbb6aabd13c9fd35ccedb5",
    }

    # the gap lines `hermite-tr run` prints for each bundled config: where
    # the norm is estimated, charged, the method spends more than the baseline
    GAP_LINES = {
        "one_d": ("eps=0.725: avg FOM evals 5.8 vs baseline 8.2 (gap -2.4)",),
        "one_d_sweep": ("eps=0.725: avg FOM evals 5.8 vs baseline 8.2 (gap -2.4)",
                        "eps=1: avg FOM evals 6.4 vs baseline 8.2 (gap -1.8)",
                        "eps=2: avg FOM evals 9.2 vs baseline 8.2 (gap +1)",
                        "eps=10: avg FOM evals 33.4 vs baseline 8.2 (gap +25.2)"),
        "pde2d": ("eps=0.4: avg FOM evals 5 vs baseline 7.6 (gap -2.6); "
                  "charged the norm estimate's 50 evals, 15 (gap +7.4)",),
        "rosenbrock": ("eps=2: avg FOM evals 16.3333 vs baseline 35 (gap -18.6667); "
                       "charged the norm estimate's 60 evals, 36.3333 (gap +1.33333)",),
    }

    # bundled configs with one section key changed: a baseline tolerance
    # below the reference's, and a baseline budget above the reference's
    VARIANTS = {
        "one_d-tau_foc-1e-12": ("one_d", "trust_region", {"tau_foc": 1.0e-12}),
        "rosenbrock-i_max-600": ("rosenbrock", "baseline", {"i_max": 600}),
    }

    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        """Path of a bundled config, or of small_pde2d() or a variant written to a file."""
        written = {"small_pde2d": small_pde2d()}
        for name, (bundled, section, over) in self.VARIANTS.items():
            data = yaml.safe_load((CONFIG_DIR / f"{bundled}.yaml").read_text())
            written[name] = {**data, section: {**data.get(section, {}), **over}}
        folder = tmp_path_factory.mktemp("config")
        for name, data in written.items():
            (folder / f"{name}.yaml").write_text(yaml.safe_dump(data))
        return lambda name: folder / f"{name}.yaml" if name in written \
            else CONFIG_DIR / f"{name}.yaml"

    def _digest(self, cli_output, command, config):
        """sha256 of the file `hermite-tr <command>` writes for a config file."""
        path = cli_output(command, config) / self.OUTPUT_FILE[command]
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("name", sorted(SUMMARY_SHA256))
    def test_bundled_summary_unchanged(self, name, cli_output, config_path):
        """The bundled config writes exactly the recorded summary.csv.

        Refactors and speed-ups must keep these bytes.  A change that means
        to alter the numbers (a new step rule, a different factorization)
        updates the hash here and records the change, with its reason, in
        CHANGES.md.
        """
        assert self._digest(cli_output, "run", config_path(name)) == self.SUMMARY_SHA256[name]

    @pytest.mark.parametrize("command,name", sorted(COMMAND_SHA256))
    def test_bundled_command_output_unchanged(self, command, name, cli_output, config_path):
        """power_field.csv keeps its bytes, as summary.csv does."""
        digest = self._digest(cli_output, command, config_path(name))
        assert digest == self.COMMAND_SHA256[command, name]

    def test_small_pde2d_summary_unchanged(self, cli_output, config_path):
        """The PDE layer keeps its bits: a 24 x 24 pde2d run, about 1 s."""
        digest = self._digest(cli_output, "run", config_path("small_pde2d"))
        assert digest == self.SMALL_PDE2D_SHA256

    @pytest.mark.parametrize("name", sorted(TREE_SHA256))
    def test_output_tree_unchanged(self, name, cli_output, config_path):
        """Every run record keeps its bits, not only the rounded summary.

        Shares its run of the CLI with the summary test of the same config.
        """
        assert tree_digest(cli_output("run", config_path(name))) == self.TREE_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GAP_LINES))
    def test_bundled_gap_line(self, name, cli_output, config_path):
        """The method's gap to the baseline, uncharged and charged, as printed.

        Shares its run of the CLI with the summary test of the same config.
        """
        printed = (cli_output("run", config_path(name)).parent / "stdout.txt").read_text()
        assert tuple(line for line in printed.splitlines()
                     if " vs baseline " in line) == self.GAP_LINES[name]

    @pytest.mark.parametrize("name", [*sorted(SUMMARY_SHA256), *VARIANTS])
    def test_reference_runs_account_for_every_evaluation(self, name, cli_output,
                                                         config_path):
        """experiment.json gives one reference run per start, and their
        evaluations are the reference's plus those of the baseline's records.

        The variants make the baseline stop before the reference, and after it.
        """
        out = cli_output("run", config_path(name))
        meta = json.loads((out / "experiment.json").read_text())
        runs = meta["reference_runs"]
        starts = range(len(meta["starts"]))
        assert [r["start"] for r in runs] == list(starts)
        baseline_evals = sum(
            json.loads((out / harness.run_record("baseline", k)).read_text()).get("fom_evals", 0)
            for k in starts)
        assert sum(r["fom_evals"] for r in runs) == meta["reference_fom_evals"] + baseline_evals

    def test_small_pde2d_twice_in_one_process(self, tmp_path):
        """A second experiment on the grid reuses the first one's condensation
        and writes the same bits; in a fresh process with one BLAS thread."""
        script = ("import json, sys, test_harness; "
                  "print(json.dumps(test_harness.small_pde2d_twice(sys.argv[1])))")
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                             env=one_blas_thread_env(TESTS), check=True,
                             capture_output=True, text=True)
        assert json.loads(out.stdout.splitlines()[-1]) == [2, 0]
        for k in range(2):
            assert tree_digest(tmp_path / str(k)) == self.TREE_SHA256["small_pde2d"]


class TestPowerField:
    def test_one_d_centers_have_zero_power(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = export_power_field(cfg, grid=41, centers=3)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape[1] == 2
        # the three fitted centers appear in the export with vanishing power
        small = rows[rows[:, 1] <= 1e-6]
        assert small.shape[0] >= 3

    def test_two_d_export_shape(self, tmp_path):
        cfg = config_from_dict({
            "problem": "pde2d",
            "grid_n": 24,
            "kernel": {"family": "quad_matern", "shape": 0.4},
            "n_starts": 1,
            "seed": 1,
            "output_dir": str(tmp_path / "o"),
        })
        path = export_power_field(cfg, grid=9, centers=4)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (9 * 9 + 4, 3)
        assert np.all(rows[-4:, 2] <= 1e-6)


class TestCli:
    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The points Problem.eval is called at, from here on."""
        points = []
        evaluate = Problem.eval

        def counted(self, x):
            points.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(Problem, "eval", counted)
        return points

    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(
            "problem: one_d\n"
            "kernel:\n  family: gaussian\n  shape: 0.725\n"
            "n_starts: 2\nseed: 5\n"
            f"output_dir: {tmp_path / 'out'}\n"
            "trust_region:\n  norm_source: analytic\n"
        )
        assert cli_main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "eps=0.725" in out and "baseline" in out
        # one gap line, not charged: the analytic norm costs no evaluations
        [gap] = [line for line in out.splitlines() if line.startswith("eps=0.725: avg FOM")]
        assert " vs baseline " in gap and "charged" not in gap

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        for shape in ("-3", "abc"):
            bad.write_text(f"problem: one_d\nkernel:\n  family: gaussian\n  shape: {shape}\n")
            assert cli_main(["run", str(bad)]) == 2
        for body in (
            "problem: one_d\nkernel:\n  family: gaussian\n  shape: 1.0\n"
            "subproblem:\n  kappa_bt: 2.0\n",
            # the closed-form norm diverges for shape^2 <= 1/2
            "problem: one_d\nkernel:\n  family: gaussian\n  shape: 0.5\n"
            "trust_region:\n  norm_source: analytic\n",
            "problem: pde2d\ngrid_n: 3\nkernel:\n  family: quad_matern\n  shape: 0.4\n",
            "problem: one_d\nn_starts: true\nkernel:\n  family: gaussian\n  shape: 1.0\n",
        ):
            bad.write_text(body)
            assert cli_main(["run", str(bad)]) == 2

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        # a directory and a file that is not UTF-8 exit as a missing file
        # does, with a config error rather than a traceback
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes("problem: one_d\n# caf\xe9\n".encode("latin-1"))
        for path in (tmp_path, latin1):
            assert cli_main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: ")

    @pytest.mark.parametrize("command", ["run", "power-field"])
    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-a-file"])
    def test_output_location_that_cannot_be_a_directory_is_a_config_error(
            self, command, below, tmp_path, monkeypatch, capsys, evaluations):
        # an output location at, or below, an existing file is refused
        # before the objective is evaluated once
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(blocker.joinpath(*below)))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 2}))
        assert cli_main([command, str(cfg_path)]) == 2
        first = {"run": "summary.csv", "power-field": harness.POWER_FIELD_FILE}
        assert capsys.readouterr().err == (
            f"config error: cannot write {blocker.joinpath(*below, first[command])}: "
            f"{blocker} is not a writable directory\n")
        assert evaluations == []
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("entry", ["file", "dangling-link"])
    def test_a_runs_entry_that_is_not_a_directory_is_a_config_error(
            self, entry, tmp_path, monkeypatch, capsys, evaluations):
        # run writes its run records to out/runs: an entry of that name that
        # is not a directory is refused before the objective is evaluated
        # once, and before summary.csv is written
        out = tmp_path / "out"
        out.mkdir()
        runs = out / "runs"
        if entry == "file":
            runs.write_text("")
        else:
            runs.symlink_to(tmp_path / "missing")
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(out))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 2}))
        assert cli_main(["run", str(cfg_path)]) == 2
        record = out / harness.run_record("eps=0.725", 0)
        assert capsys.readouterr().err == (
            f"config error: cannot write {record}: {runs} is not a writable directory\n")
        assert evaluations == []
        assert sorted(p.name for p in out.iterdir()) == ["runs"]

    def test_a_runs_file_does_not_stop_the_commands_that_write_no_runs(
            self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "runs").write_text("")
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(out))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 1}))
        assert cli_main(["power-field", str(cfg_path), "--grid", "5", "--centers", "2"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["power_field.csv", "runs"]

    def test_a_start_box_whose_width_overflows_is_a_config_error(self, tmp_path, evaluations):
        # each bound lies inside rosenbrock's unbounded box, but
        # upper - lower is inf: refused before any evaluation
        data = {"problem": "rosenbrock", "n_starts": 1,
                "start_box": [[-1.0e308, 0.0], [1.0e308, 1.0]],
                "kernel": {"family": "gaussian", "shape": 1.0},
                "output_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigError, match="widths upper - lower must be finite"):
            config_from_dict(data)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["run", str(path)]) == 2
        assert evaluations == []
        assert not (tmp_path / "out").exists()
        assert config_from_dict({**data, "start_box": [[-1.0e307, 0.0], [1.0e307, 1.0]]})

    @pytest.mark.parametrize("command", ["run", "power-field"])
    def test_an_unbounded_problem_without_a_start_box_is_a_config_error(
            self, command, tmp_path, monkeypatch, evaluations):
        # starts and norm samples need a finite box: the config refuses
        # rosenbrock's own box before any problem is built
        def build(*args):
            raise AssertionError("config check built the problem")

        data = {"problem": "rosenbrock", "n_starts": 1,
                "kernel": {"family": "gaussian", "shape": 1.0},
                "output_dir": str(tmp_path / "out")}
        with monkeypatch.context() as m:
            m.setattr(harness, "make_problem", build)
            m.setattr(problems, "problem_rosenbrock", build)
            with pytest.raises(ConfigError, match="must be finite, got .*; provide start_box"):
                config_from_dict(data)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main([command, str(path)]) == 2
        assert evaluations == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data,match", [
        ({"problem": "rosenbrock", "start_box": [[-1.5, -1.5], [1.5, 1.5]],
          "kernel": {"family": "gaussian", "shape": 1.0}}, "one_d Gaussian"),
        ({"problem": "one_d", "kernel": {"family": "quad_matern", "shape": 0.725}},
         "one_d Gaussian"),
        # the closed form diverges for the sweep's second shape, 0.6^2 <= 1/2
        ({"problem": "one_d", "kernel": {"family": "gaussian", "shape": [0.725, 0.6]}},
         "divergent"),
    ], ids=["rosenbrock", "quad_matern", "sweep"])
    def test_an_analytic_norm_that_cannot_apply_is_a_config_error(
            self, data, match, tmp_path, evaluations):
        # the closed-form norm exists only for the one_d Gaussian setup with
        # shape^2 > 1/2: a config error for the experiment, refused at load
        # rather than after the reference has run
        data = {**data, "n_starts": 1, "trust_region": {"norm_source": "analytic"},
                "output_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigError, match=match):
            config_from_dict(data)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli_main(["run", str(path)]) == 2
        assert evaluations == []
        assert not (tmp_path / "out").exists()

    def test_analytic_norm_needs_one_d_and_the_gaussian_kernel(self, monkeypatch):
        # no nonzero polynomial lies in the Gaussian native space, so the
        # closed form does not hold for a 1D quadratic
        monkeypatch.setitem(problems.BOXES, "quadratic", ((-2.0,), (2.0,)))
        monkeypatch.setitem(problems.PROBLEM_FACTORIES, "quadratic", lambda grid_n: Problem(
            "quadratic", np.array([-2.0]), np.array([2.0]),
            lambda x: (1.0 + 50.0 * x[0] ** 2, 100.0 * x)))
        analytic = {"trust_region": {"norm_source": "analytic"}}
        with pytest.raises(ConfigError, match="one_d Gaussian"):
            config_from_dict({**MINIMAL, **analytic, "problem": "quadratic"})
        with pytest.raises(ConfigError, match="one_d Gaussian"):
            config_from_dict({**MINIMAL, **analytic,
                              "kernel": {"family": "wendland2", "shape": 1.0}})
        assert config_from_dict({**MINIMAL, **analytic,
                                 "kernel": {"family": "gaussian", "shape": [0.725, 1.0]}})

    @pytest.mark.parametrize("command,name", [
        *(("run", name)
          for name in harness.experiment_files(config_from_dict({**MINIMAL, "n_starts": 2}))),
        ("power-field", harness.POWER_FIELD_FILE),
    ])
    def test_a_directory_where_an_output_file_goes_is_a_config_error(
            self, command, name, tmp_path, monkeypatch, capsys, evaluations):
        # each command refuses a directory at the name of a file it writes,
        # run records included, before the objective is evaluated once, and
        # writes nothing
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(out))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 2}))
        assert cli_main([command, str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {out / name}: it is a directory\n")
        assert evaluations == []
        # the directory and the directories above it, up to out
        assert {p.relative_to(out) for p in out.rglob("*")} == \
            {Path(name), *Path(name).parents} - {Path(".")}

    @pytest.mark.parametrize("name", ["summary.csv", "table.txt", harness.run_record("baseline", 1),
                                      harness.POWER_FIELD_FILE])
    @pytest.mark.parametrize("entry", ["dangling-link", "fifo", "link-loop"])
    def test_an_entry_at_an_output_file_name_that_is_not_a_writable_file_is_a_config_error(
            self, entry, name, tmp_path, monkeypatch, capsys, evaluations):
        # writing through a link whose target's directory is missing fails,
        # through a link loop too, and writing to a FIFO blocks: each is
        # refused before the objective is evaluated once, and nothing is
        # written; power_field.csv is the file of power-field, the others of run
        command = "power-field" if name == harness.POWER_FIELD_FILE else "run"
        out = tmp_path / "out"
        path = out / name
        path.parent.mkdir(parents=True)
        reason = "it is not a regular file"
        if entry == "dangling-link":
            path.symlink_to(out / "missing" / "x")
            reason = f"{Path(os.path.realpath(out)) / 'missing'} is not a writable directory"
        elif entry == "fifo":
            os.mkfifo(path)
        else:
            path.symlink_to(path)
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(out))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 2}))
        assert cli_main([command, str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {path}: {reason}\n"
        assert evaluations == []
        assert {p.relative_to(out) for p in out.rglob("*")} == \
            {Path(name), *Path(name).parents} - {Path(".")}

    def test_a_link_to_a_creatable_file_is_written_through(self, tmp_path, monkeypatch):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        (out / "summary.csv").symlink_to(elsewhere / "summary.csv")
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(out))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 1}))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (out / "summary.csv").is_symlink()
        assert (elsewhere / "summary.csv").read_text().startswith("label,")

    @pytest.mark.parametrize("option", [["--grid", "1"], ["--centers", "0"]],
                             ids=["grid-1", "centers-0"])
    def test_power_field_refuses_too_few_grid_points_or_centers(
            self, option, tmp_path, capsys, evaluations):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["power-field", str(cfg_path), *option]) == 2
        assert capsys.readouterr().err == "config error: grid must be >= 2 and centers >= 1\n"
        assert evaluations == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compare", "reference"])
    def test_a_folded_experiment_command_is_refused(self, command, tmp_path, capsys,
                                                    evaluations):
        # run is the only experiment command: argparse refuses the old
        # names before the config is read, and nothing is evaluated or written
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "output_dir": str(tmp_path / "out")}))
        with pytest.raises(SystemExit) as exc:
            cli_main([command, str(cfg_path)])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert evaluations == []
        assert not (tmp_path / "out").exists()

    def test_a_directory_named_like_a_stale_run_record_is_kept(self, tmp_path, monkeypatch):
        # the stale-record sweep removes files only: a directory that matches
        # the record pattern but no record of this config lets the run finish
        out = tmp_path / "out"
        (out / "runs" / "old__start0.json").mkdir(parents=True)
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(out))
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(yaml.safe_dump({**MINIMAL, "n_starts": 1}))
        assert cli_main(["run", str(cfg_path)]) == 0
        files = harness.experiment_files(load_config(cfg_path))
        assert sorted(p for p in out.rglob("*") if p.is_file()) == sorted(map(out.joinpath, files))
        assert (out / "runs" / "old__start0.json").is_dir()

    def test_all_failed_runs_exit_code(self, tmp_path, monkeypatch):
        # a summary consisting only of failures must still be written, and
        # the command must exit nonzero (numerical failure)
        import hermite_tr.cli as cli_mod
        from hermite_tr.harness import SummaryRow

        rows = [SummaryRow(label=label, avg_fom_evals=float("nan"), avg_foc=float("nan"),
                           avg_rel_err_j=float("nan"), n_failures=2)
                for label in ("eps=0.725", "baseline")]
        failed = [(0, "StalledError: x"), (1, "StalledError: y")]
        monkeypatch.setattr(
            cli_mod, "run_experiment",
            lambda cfg: (rows, {"eps=0.725": failed, "baseline": failed}, {"reference_j": 2.0}),
        )
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(
            "problem: one_d\nkernel:\n  family: gaussian\n  shape: 0.725\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert cli_mod.main(["run", str(cfg_path)]) == 3
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_power_field_command(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        cfg_path.write_text(
            "problem: one_d\n"
            "kernel:\n  family: gaussian\n  shape: 0.725\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert cli_main(["power-field", str(cfg_path), "--grid", "11", "--centers", "3"]) == 0
        assert (tmp_path / "out" / "power_field.csv").exists()
