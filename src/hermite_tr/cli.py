"""Command line front end.

Subcommands:
  run <config>           full experiment: sweep + baseline + reference, write outputs,
                         and print each group's gap to the baseline
  power-field <config>   export the power function of a small seeded fit on a grid

Exit codes: 0 success, 2 config error, 3 numerical failure (for run, also
when every run failed).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .harness import (
    POWER_FIELD_FILE,
    emit_outputs,
    experiment_files,
    export_power_field,
    format_table,
    load_config,
    output_dir,
    run_experiment,
)


def _load(args, files):
    """args.config's config cfg, refused unless each file that args.command
    writes, by files(cfg) relative to the output location, can be written:
    an entry at its name must be, after links, a regular file; a link whose
    target does not exist needs the target's parent to be a writable
    directory; and where no entry is, so must the nearest existing entry above.

    The check evaluates nothing and creates nothing: a later failure leaves no directory.
    """
    cfg = load_config(args.config)
    out = output_dir(cfg).absolute()
    for path in map(out.joinpath, files(cfg)):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if os.path.lexists(path):
            target = Path(os.path.realpath(path))
            if os.path.lexists(target):
                # a FIFO would block the writer, a link loop fail it
                if not target.is_file():
                    raise ConfigError(f"cannot write {path}: it is not a regular file")
                continue
            # writing through a dangling link creates its target, but no directory above it
            existing = target.parent
        else:
            existing = next(p for p in path.parents if os.path.lexists(p))
        if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write {path}: {existing} is not a writable directory")
    return cfg


def _cmd_run(args):
    """Run the experiment, write its outputs and print each group's gap to the baseline.

    A group whose norm was estimated also gets its gap charged with the
    estimate's evaluations, shared by the group's starts.
    """
    cfg = _load(args, experiment_files)
    rows, reports, meta = run_experiment(cfg)
    out = emit_outputs(rows, reports, meta, cfg)
    print(format_table(rows))
    print(f"reference J = {meta['reference_j']:.12g}")
    *groups, base = rows
    for r in groups:
        if np.isnan(r.avg_fom_evals) or np.isnan(base.avg_fom_evals):
            continue
        line = (f"{r.label}: avg FOM evals {r.avg_fom_evals:g} vs baseline "
                f"{base.avg_fom_evals:g} (gap {r.avg_fom_evals - base.avg_fom_evals:+g})")
        norm = meta["norm_estimation"].get(r.label)
        if norm is not None:
            charged = r.avg_fom_evals + norm["norm_evals"] / cfg.n_starts
            line += (f"; charged the norm estimate's {norm['norm_evals']} evals, "
                     f"{charged:g} (gap {charged - base.avg_fom_evals:+g})")
        print(line)
    print(f"outputs written to {out}")
    if all(np.isnan(r.avg_fom_evals) for r in rows):
        raise NumericalError("all runs failed")
    return 0


def _cmd_power_field(args):
    cfg = _load(args, lambda cfg: (POWER_FIELD_FILE,))
    path = export_power_field(cfg, args.grid, args.centers)
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
