"""Command line front end.

Subcommands:
  run <config>           full experiment: sweep + baseline + reference, write outputs
  reference <config>     tight-tolerance reference solution only
  compare <config>       surrogate method vs. baseline evaluation-count table
  power-field <config>   export the power function of a small seeded fit on a grid

Exit codes: 0 success, 2 config error, 3 numerical failure (for run and
compare, also when every run failed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .baseline import reference_solution
from .errors import ConfigError, NumericalError
from .harness import (
    emit_outputs,
    export_power_field,
    format_table,
    load_config,
    output_dir,
    run_experiment,
    sample_starts,
)
from .problems import make_problem


def _cmd_run(args):
    """Run the experiment and write its outputs; compare adds the gap to the baseline."""
    cfg = load_config(args.config)
    rows, reports, meta = run_experiment(cfg)
    out = emit_outputs(rows, reports, meta, cfg)
    print(format_table(rows))
    print(f"reference J = {meta['reference_j']:.12g}")
    if args.command == "compare":
        base = next(r for r in rows if r.label == "baseline")
        for r in rows:
            if r.label == "baseline" or np.isnan(r.avg_fom_evals):
                continue
            gap = r.avg_fom_evals - base.avg_fom_evals
            print(f"{r.label}: avg FOM evals {r.avg_fom_evals:g} vs baseline "
                  f"{base.avg_fom_evals:g} (gap {gap:+g})")
    print(f"outputs written to {out}")
    if all(np.isnan(r.avg_fom_evals) for r in rows):
        raise NumericalError("all runs failed")
    return 0


def _cmd_reference(args):
    cfg = load_config(args.config)
    problem = make_problem(cfg.problem, grid_n=cfg.grid_n)
    x_ref, j_ref = reference_solution(problem, sample_starts(cfg, problem))
    payload = {
        "reference_iterate": np.asarray(x_ref).tolist(),
        "reference_j": float(j_ref),
        "fom_evals": problem.counter,
    }
    out = output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "reference.json", "w") as fh:
        json.dump(payload, fh, indent=1)
    print(json.dumps(payload, indent=1))
    return 0


def _cmd_power_field(args):
    cfg = load_config(args.config)
    path = export_power_field(cfg, grid=args.grid, centers=args.centers)
    print(f"power field written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-tr",
        description="Trust-region optimization with gradient-enhanced kernel surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_ref = sub.add_parser("reference", help="compute the reference solution")
    p_ref.add_argument("config")
    p_ref.set_defaults(func=_cmd_reference)

    p_cmp = sub.add_parser("compare", help="surrogate method vs. baseline table")
    p_cmp.add_argument("config")
    p_cmp.set_defaults(func=_cmd_run)

    p_pow = sub.add_parser("power-field", help="export the power function on a grid")
    p_pow.add_argument("config")
    p_pow.add_argument("--grid", type=int, default=101, help="grid points per axis")
    p_pow.add_argument("--centers", type=int, default=5, help="number of fitted centers")
    p_pow.set_defaults(func=_cmd_power_field)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
