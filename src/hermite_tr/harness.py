"""Experiment harness: seeded multi-start runs, summaries, file outputs.

A config describes one problem, a kernel family with one or more shape
parameters, and solver settings.  The harness samples a shared list of
starts, runs the kernel trust-region method per shape parameter and the
direct baseline on the identical starts, measures accuracy against a
tight-tolerance reference solution, and writes deterministic CSV/JSON
outputs (same seed, same bytes).  The baseline's reports come from the
reference's runs, one per start, and each evaluation is charged once:
the reference is charged what the baseline's reports leave of its runs.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

# minimize is unused here; perfbench/tracing.py patches harness.minimize, failing if gone
from .baseline import BaselineConfig, minimize, reference_solution  # noqa: F401
from .driver import NormSource, RunReport, TRConfig, resolve_norm_bound, run
from .errors import ConfigError, NumericalError, failure_text, integral, require_finite
from .kernels import FAMILIES, GAUSSIAN, make_kernel
from .problems import BOXES, PROBLEM_FACTORIES, make_problem
from .sampling import uniform
from .subproblem import SubproblemConfig
from .surrogate import analytic_norm_1d_gaussian, sampled_fit

OUTPUT_DIR_ENV = "HERMITE_TR_OUTPUT_DIR"
# the files the writers below put in the output directory, by path relative
# to it: run writes experiment_files(cfg), EXPERIMENT_FILES and the run
# records that run_record names; power-field writes POWER_FIELD_FILE
EXPERIMENT_FILES = ("summary.csv", "table.txt", "experiment.json")
POWER_FIELD_FILE = "power_field.csv"
# grid points the power-field export scores per block: one distance pass
# per block and one triangular solve per point (rosenbrock's --grid 101
# export: 0.12-0.16 s, against 0.10 s when each block shared one solve;
# 2-core x86-64 VM, one BLAS thread)
POWER_FIELD_BLOCK = 512


def shape_label(shape) -> str:
    """A sweep group's label: its summary row, report files and norm record."""
    return f"eps={shape:g}"


def run_record(label, k) -> str:
    """The record of start k of group label, by path relative to the output directory."""
    return f"runs/{label.replace('=', '_')}__start{k}.json"


def experiment_files(cfg) -> tuple:
    """Every file run writes: EXPERIMENT_FILES, then each group's run records."""
    labels = (*map(shape_label, cfg.shapes), "baseline")
    return EXPERIMENT_FILES + tuple(run_record(label, k) for label in labels
                                    for k in range(cfg.n_starts))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    kernel_family: str
    shapes: tuple            # one or more shape parameters (a sweep)
    grid_n: int = 96
    n_starts: int = 5
    seed: int = 0
    output_dir: str = "results"
    start_box: tuple | None = None   # ((lo...), (hi...)) when problem box is unbounded
    norm_source: NormSource = field(default_factory=NormSource)
    tr: TRConfig = field(default_factory=TRConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        require_finite(self)
        if self.problem not in PROBLEM_FACTORIES:
            raise ConfigError(
                f"problem must be one of {tuple(PROBLEM_FACTORIES)}, got {self.problem!r}"
            )
        if self.kernel_family not in FAMILIES:
            raise ConfigError(f"kernel.family must be one of {FAMILIES}")
        if len(self.shapes) < 1 or any(not s > 0 for s in self.shapes):
            raise ConfigError("kernel.shape must be a positive number or list of them")
        labels = [shape_label(s) for s in self.shapes]
        clash = [s for s, label in zip(self.shapes, labels) if labels.count(label) > 1]
        if clash:
            raise ConfigError(f"kernel.shape values {clash} share the group labels "
                              f"{sorted(set(map(shape_label, clash)))}")
        if self.n_starts < 1:
            raise ConfigError("n_starts must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # starts and norm samples are drawn from the sampling box unprojected
        box_lower, box_upper = BOXES[self.problem]
        dim = len(box_lower)
        lower, upper = self.sample_box
        if len(lower) != dim or len(upper) != dim or \
                not all(blo <= lo <= hi <= bhi for blo, lo, hi, bhi
                        in zip(box_lower, lower, upper, box_upper)):
            raise ConfigError(f"start_box must hold {dim} lower bounds, each at or below its "
                              f"upper bound, inside the {self.problem} box "
                              f"{[list(box_lower), list(box_upper)]}, got {self.start_box}")
        if not all(math.isfinite(hi - lo) for lo, hi in zip(lower, upper)):
            raise ConfigError(f"{self.problem} sampling box widths upper - lower must be "
                              f"finite, got {[list(lower), list(upper)]}; provide start_box")
        if self.norm_source.kind == "analytic":
            # the closed form is the norm of one_d's objective, not of any 1D objective
            if self.kernel_family != GAUSSIAN or self.problem != "one_d":
                raise ConfigError("analytic norm source needs the one_d Gaussian setup")
            try:
                for shape in self.shapes:
                    analytic_norm_1d_gaussian(shape)
            except ValueError as exc:
                raise ConfigError(f"analytic norm source: {exc}") from None

    @property
    def sample_box(self) -> tuple:
        """(lower, upper) of the starts and norm samples: start_box, else the problem's box."""
        return self.start_box if self.start_box is not None else BOXES[self.problem]


@dataclass
class SummaryRow:
    label: str
    avg_fom_evals: float
    avg_foc: float
    avg_rel_err_j: float
    n_failures: int


# -- config loading ---------------------------------------------------


def _pop_section(data, key, path):
    section = data.pop(key, {}) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{path}.{key} must be a mapping")
    return section


def _reject_unknown(section, path):
    if section:
        raise ConfigError(f"unknown keys under {path}: {sorted(section)}")


def _real(raw):
    """float(raw), refusing a YAML boolean; each config dataclass refuses .inf and .nan."""
    if isinstance(raw, bool):
        raise ValueError(f"{raw!r} is not a number")
    return float(raw)


# annotation -> cast for the dataclass fields a YAML section sets directly;
# the config modules postpone annotations, so field.type is the string
_CASTS = {"int": integral, "float": _real, "str": str}


def _build(cls, section, path, keys=None, defaults=None, **given):
    """cls(**given) plus every scalar field of cls popped from section.

    A field is read under its own name, or under keys[name] when the YAML
    key differs.  An absent key falls back to defaults[name], else to the
    dataclass default; a field without either is a required key.  Fields
    in given are never read.  cls.__post_init__ checks the values.
    """
    keys = keys or {}
    defaults = defaults or {}
    kwargs = dict(given)
    for f in fields(cls):
        cast = _CASTS.get(f.type)
        if cast is None or f.name in given:
            continue
        key = keys.get(f.name, f.name)
        if key not in section:
            if f.name in defaults:
                kwargs[f.name] = defaults[f.name]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path}: missing required key {key!r}")
            continue
        raw = section.pop(key)
        try:
            kwargs[f.name] = cast(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.{key}: cannot interpret {raw!r}") from None
    return cls(**kwargs)


# NormSource field -> its key under trust_region
_NORM_KEYS = {"kind": "norm_source", "n_samples": "norm_samples", "seed": "norm_seed",
              "safety": "norm_safety", "value": "norm_value"}


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config; unknown keys reject."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data, source=str(path))


def config_from_dict(data, source="<dict>") -> ExperimentConfig:
    """ExperimentConfig from a parsed YAML mapping; unknown keys reject.

    Every default is its dataclass field's default, except that
    subproblem.tau_sub defaults to trust_region.tau_foc / 10.  The baseline
    takes tau_foc and tau_j from trust_region, never from baseline:.
    """
    data = copy.deepcopy(dict(data))
    kernel = _pop_section(data, "kernel", source)
    family = kernel.pop("family", None)
    if family is None:
        raise ConfigError(f"{source}: kernel.family is required")
    shape_raw = kernel.pop("shape", None)
    if shape_raw is None:
        raise ConfigError(f"{source}: kernel.shape is required")
    try:
        shapes = tuple(_real(s) for s in (shape_raw if isinstance(shape_raw, (list, tuple)) else [shape_raw]))
    except (TypeError, ValueError):
        raise ConfigError(f"{source}: kernel.shape: cannot interpret {shape_raw!r}") from None
    _reject_unknown(kernel, "kernel")

    tr_raw = _pop_section(data, "trust_region", source)
    sub_raw = _pop_section(data, "subproblem", source)
    base_raw = _pop_section(data, "baseline", source)

    norm_source = _build(NormSource, tr_raw, "trust_region", keys=_NORM_KEYS)
    tr = _build(TRConfig, tr_raw, "trust_region")
    _reject_unknown(tr_raw, "trust_region")
    tr = replace(tr, sub=_build(SubproblemConfig, sub_raw, "subproblem",
                                defaults={"tau_sub": tr.tau_foc / 10.0}))
    _reject_unknown(sub_raw, "subproblem")
    baseline = _build(BaselineConfig, base_raw, "baseline",
                      tau_foc=tr.tau_foc, tau_j=tr.tau_j)
    _reject_unknown(base_raw, "baseline")

    start_box = data.pop("start_box", None)
    if start_box is not None:
        try:
            lower, upper = start_box
            start_box = (tuple(_real(v) for v in lower), tuple(_real(v) for v in upper))
        except (TypeError, ValueError):
            raise ConfigError(
                f"{source}: start_box must be [[lo, ...], [hi, ...]], got {start_box!r}"
            ) from None

    cfg = _build(ExperimentConfig, data, source, kernel_family=str(family), shapes=shapes,
                 start_box=start_box, norm_source=norm_source, tr=tr, baseline=baseline)
    _reject_unknown(data, source)
    return cfg


# -- execution --------------------------------------------------------


def sample_starts(cfg: ExperimentConfig) -> np.ndarray:
    """Shared start list: seeded uniform draws in cfg.sample_box."""
    return uniform(cfg.seed, *cfg.sample_box, cfg.n_starts)


def _rel_err(j_value, j_ref):
    return abs(j_value - j_ref) / max(abs(j_ref), 1.0)


def _per_start(starts, solve):
    """(k, solve(x0)) per start, or (k, failure text) where solve raised a NumericalError."""
    group = []
    for k, x0 in enumerate(starts):
        try:
            group.append((k, solve(x0)))
        except NumericalError as exc:
            group.append((k, failure_text(exc)))
    return group


def run_experiment(cfg: ExperimentConfig):
    """Execute the full protocol; returns (rows, per-run reports, metadata).

    One problem instance serves the whole experiment; each phase reports
    the evaluations it spent as a delta of the problem's counter.  A
    NumericalError fails only its start; from a norm estimate, its shape's starts.
    """
    problem = make_problem(cfg.problem, grid_n=cfg.grid_n)
    starts = sample_starts(cfg)
    # one run per start serves the reference and the baseline; each
    # evaluation is charged once, the baseline's to its own reports
    evals_before = problem.counter
    ref_x, ref_j, ref_runs, baseline_group = reference_solution(
        problem, starts, cfg.tr.sub, cfg.baseline)
    ref_evals = problem.counter - evals_before - sum(
        r.fom_evals for _, r in baseline_group if isinstance(r, RunReport))

    rows = []
    reports = {}   # label -> list of (start_index, RunReport | failure str)
    norm_info = {}

    for shape in cfg.shapes:
        label = shape_label(shape)
        kernel = make_kernel(cfg.kernel_family, shape, problem.dim)
        # one bound per shape, shared by all starts (deterministic by seed),
        # whose samples, if any, every start's first model reuses
        evals_before = problem.counter
        try:
            norm_bound, samples = resolve_norm_bound(cfg.norm_source, kernel, problem,
                                                     cfg.sample_box)
            failed = None
        except NumericalError as exc:
            norm_bound, failed = None, [(k, failure_text(exc)) for k in range(len(starts))]
        if cfg.norm_source.kind == "estimated":
            norm_info[label] = {"norm_bound": norm_bound,
                                "norm_evals": problem.counter - evals_before}
        reports[label] = failed or _per_start(
            starts, lambda x0: run(problem, kernel, x0, cfg.tr, norm_bound, samples))
        rows.append(_summarize(label, reports[label], ref_j))

    reports["baseline"] = baseline_group
    rows.append(_summarize("baseline", reports["baseline"], ref_j))

    meta = {
        "reference_iterate": np.asarray(ref_x).tolist(),
        "reference_j": float(ref_j),
        "reference_fom_evals": ref_evals,
        "reference_runs": ref_runs,
        "starts": starts.tolist(),
        "norm_estimation": norm_info,
    }
    return rows, reports, meta


def _summarize(label, group, ref_j) -> SummaryRow:
    ok = [r for _, r in group if isinstance(r, RunReport)]
    failures = len(group) - len(ok)
    if ok:
        return SummaryRow(
            label=label,
            avg_fom_evals=float(np.mean([r.fom_evals for r in ok])),
            avg_foc=float(np.mean([r.final_foc for r in ok])),
            avg_rel_err_j=float(np.mean([_rel_err(r.final_j, ref_j) for r in ok])),
            n_failures=failures,
        )
    return SummaryRow(label=label, avg_fom_evals=float("nan"),
                      avg_foc=float("nan"), avg_rel_err_j=float("nan"),
                      n_failures=failures)


# -- outputs ----------------------------------------------------------


def output_dir(cfg: ExperimentConfig) -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir))


def format_table(rows) -> str:
    header = f"{'label':>14} {'avg_fom_evals':>14} {'avg_foc':>12} {'avg_rel_err_J':>14} {'fails':>6}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:>14} {r.avg_fom_evals:>14.6g} {r.avg_foc:>12.3g} "
            f"{r.avg_rel_err_j:>14.3g} {r.n_failures:>6d}"
        )
    return "\n".join(lines)


def emit_outputs(rows, reports, meta, cfg: ExperimentConfig) -> Path:
    """Write experiment_files(cfg): summary.csv, a table mirror, metadata, per-run records.

    Files in the output directory that run_record could name but this
    experiment did not write are removed; a directory is never one.
    """
    out = output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    summary, table, experiment = (out / name for name in EXPERIMENT_FILES)

    lines = ["label,avg_fom_evals,avg_foc,avg_rel_err_J,n_failures"]
    for r in rows:
        lines.append(
            f"{r.label},{r.avg_fom_evals:.12g},{r.avg_foc:.12g},"
            f"{r.avg_rel_err_j:.12g},{r.n_failures}"
        )
    summary.write_text("\n".join(lines) + "\n")
    table.write_text(format_table(rows) + "\n")

    records = run_record("*", "*")        # the pattern of every name run_record gives
    (out / records).parent.mkdir(exist_ok=True)
    written = set()
    for label, group in reports.items():
        for k, item in group:
            path = out / run_record(label, k)
            record = item.to_dict() if isinstance(item, RunReport) else {"failure": item}
            path.write_text(json.dumps(record, indent=1))
            written.add(path)
    for stale in set(out.glob(records)) - written:
        if not stale.is_dir():
            stale.unlink()

    with open(experiment, "w") as fh:
        json.dump(meta, fh, indent=1)
    return out


def export_power_field(cfg: ExperimentConfig, grid: int, centers: int) -> Path:
    """Fit a small seeded surrogate and export its power function on a grid.

    Rows are x,power (1D) or x,y,power (2D); power vanishes at the fitted
    centers, which makes the CSV an easy visual check of the trust-region
    geometry.
    """
    if grid < 2 or centers < 1:
        raise ConfigError("grid must be >= 2 and centers >= 1")
    dim = len(cfg.sample_box[0])
    if dim > 2:
        raise ConfigError("power-field export supports 1D and 2D problems")
    problem = make_problem(cfg.problem, grid_n=cfg.grid_n)
    kernel = make_kernel(cfg.kernel_family, cfg.shapes[0], dim)
    surrogate = sampled_fit(kernel, problem, cfg.sample_box, centers, cfg.seed)
    pts = surrogate.training.points

    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(*cfg.sample_box)]
    if dim == 1:
        # fold the fitted centers into the grid so their (vanishing)
        # power values appear in the export
        points = np.unique(np.concatenate([axes[0], pts[:, 0]]))[:, None]
        header = "x,power"
    else:
        # the grid row by row in x, then the centers
        grid_points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        points = np.vstack([grid_points, pts])
        header = "x,y,power"

    out = output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    path = out / POWER_FIELD_FILE
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(points), POWER_FIELD_BLOCK):
            block = surrogate.block(points[start : start + POWER_FIELD_BLOCK])
            for i, x in enumerate(block.points):
                coords = ",".join(f"{c:.12g}" for c in x)
                fh.write(f"{coords},{block.power(i):.12g}\n")
    return path
