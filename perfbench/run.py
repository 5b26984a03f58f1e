#!/usr/bin/env python3
"""hermite-tr benchmark: bundled experiments, end to end or per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload pde2d|rosenbrock|one_d_sweep|all \\
        [--seed N] [--seconds S] [--trace 0|1]

``all`` runs the three workloads one after another, each in its own process.

Each workload is a closed loop in this one process: experiments run one
after another (``run_experiment`` + ``emit_outputs``, as ``hermite-tr run``
does), with no threads and BLAS pinned to one thread.  A first experiment,
with one start, runs untimed as warm-up; then experiments repeat until
``--seconds`` have passed and at least three ran.  Set-up time is measured in separate fresh
processes.  With ``--trace 1`` two loops of half the time each (at least
one experiment each) run instead, one untraced and one with spans recorded
at every layer boundary; the per-layer metrics come from the second, and
the tracing overhead is the difference between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those listed in BENCHMARK.json.  A fuller record (samples,
environment, failures) and, when traced, the spans are written under
``perfbench/out/``.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = {
    "pde2d": "scripts/configs/pde2d.yaml",
    "rosenbrock": "scripts/configs/rosenbrock.yaml",
    "one_d_sweep": "scripts/configs/one_d_sweep.yaml",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# pde2d spends 18 s per experiment, so --seconds alone would leave it one
# sample.  Its wall time moves by up to 15% from one experiment to the next
# on a shared machine, and the first full experiment after the one-start
# warm-up tends to be the slowest; the median of three damps both.
MIN_TIMED = 3
PROBE_TIMEOUT_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, recorded with the results")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long each timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(config):
    """Seconds for import + load_config + make_problem, each in a fresh process."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def git_commit():
    if not (REPO / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment():
    import numpy
    import scipy

    return {
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def timed_loop(seconds, run, at_least):
    """Run experiments back to back until `seconds` have passed and `at_least` ran."""
    done = []
    start = time.perf_counter()
    while len(done) < at_least or time.perf_counter() - start < seconds:
        done.append(run())
    return done


def mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(untraced, setup):
    first = untraced[0]
    return {
        "experiment_s": statistics.median(e.wall_s for e in untraced),
        "tr_solve_s": statistics.median(e.tr_solve_s for e in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tr_fom_evals": mean(first.tr_evals),
        "baseline_fom_evals": mean(first.baseline_evals),
        "reference_fom_evals": first.reference_evals,
        "total_fom_evals": first.total_evals,
    }


def per_layer(tracer, untraced, traced, broken):
    """Median per-experiment layer metrics; checks the traced evaluation count."""
    per_experiment = tracing.experiment_metrics(tracer.spans)
    for e, layers in zip(traced, per_experiment):
        if not e.failed and layers["problems.eval.calls"] != e.total_evals:
            broken.append(f"{layers['problems.eval.calls']} traced objective evaluations, "
                          f"{e.total_evals} reported")
    values = {name: statistics.median(m[name] for m in per_experiment)
              for name in per_experiment[0]}
    values["trace.overhead_s"] = (statistics.median(e.wall_s for e in traced)
                                  - statistics.median(e.wall_s for e in untraced))
    return values


def run_all(args):
    """Run every workload in a fresh process; exit status is the worst one."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    config = REPO / WORKLOADS[args.workload]
    if not (REPO / "src" / "hermite_tr" / "__init__.py").is_file() or not config.is_file():
        fail(f"no hermite_tr sources or no {config.relative_to(REPO)} in {REPO}")
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())

    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup = measure_setup(config)

    sys.path.insert(0, str(REPO / "src"))
    import hermite_tr

    if Path(hermite_tr.__file__).resolve().parent != REPO / "src" / "hermite_tr":
        fail(f"imported hermite_tr from {hermite_tr.__file__}, not from this checkout")
    import experiments
    from hermite_tr.harness import load_config

    cfg = load_config(config)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer, tracing.EARLY_TARGETS)
    clock = experiments.install_solve_clock()

    def run(config=cfg):
        return experiments.run_once(config, clock, scratch, tracer)

    try:
        # one start is enough to load every lazy import and fill the
        # harness's pde2d problem cache; it costs pde2d 5 s instead of 18 s
        warm = run(dataclasses.replace(cfg, n_starts=1))
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        if tracer is None:
            untraced = timed_loop(args.seconds, run, MIN_TIMED)
        else:
            untraced = timed_loop(args.seconds / 2, run, 1)
        cpu_per_wall = (time.process_time() - cpu_start) / (time.perf_counter() - wall_start)
        traced = []
        if tracer is not None:
            tracing.install(tracer, tracing.TARGETS)
            tracer.enabled = True
            traced = timed_loop(args.seconds / 2, run, 1)
            tracer.enabled = False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    timed = untraced + traced
    first = untraced[0]
    broken = [b for e in [warm] + timed for b in e.broken]
    counts = (first.summary, first.tr_evals, first.baseline_evals, first.reference_evals,
              first.norm_evals)
    for e in timed[1:]:
        if (e.summary, e.tr_evals, e.baseline_evals, e.reference_evals, e.norm_evals) != counts:
            broken.append("outputs differ from the first run of the same inputs")
            break

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        values, declared = end_to_end(untraced, setup), manifest["end_to_end"]
    else:
        values, declared = per_layer(tracer, untraced, traced, broken), manifest["per_layer"]
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl.gz")

    if set(values) != {m["name"] for m in declared}:
        fail(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
             "do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not broken,
        "attempted": sum(e.solves for e in timed),
        "failed": sum(len(e.failed) for e in timed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": WORKLOADS[args.workload],
        "environment": {**environment(), "cpu_per_wall": cpu_per_wall},
        "setup_s": setup,
        "samples": {
            "untraced_experiment_s": [e.wall_s for e in untraced],
            "untraced_tr_solve_s": [e.tr_solve_s for e in untraced],
            "traced_experiment_s": [e.wall_s for e in traced],
        },
        "failed_solves": [f for e in timed for f in e.failed],
        "broken": broken,
        "result": result,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced experiments, "
          f"{result['attempted']} solves, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for p in broken:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
