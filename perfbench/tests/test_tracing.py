"""Traced run of the bundled one_d experiment: span structure and accounting.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import experiments  # noqa: E402
import tracing  # noqa: E402
from hermite_tr import harness  # noqa: E402


def test_traced_one_d_spans_nest_and_account_for_every_evaluation(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run", harness.run)   # restored after the test
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path))
    cfg = harness.load_config(REPO / "scripts" / "configs" / "one_d.yaml")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, tracing.EARLY_TARGETS + tracing.TARGETS)
    try:
        clock = experiments.install_solve_clock()
        tracer.enabled = True
        exp = experiments.run_once(cfg, clock, tmp_path, tracer)
        tracer.enabled = False
    finally:
        uninstall()

    spans = tracer.spans
    assert spans[0].name == tracing.ROOT and spans[0].parent == -1
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end, (s.name, parent.name)
        assert s.trace == spans[0].id
    assert min(tracing.self_times(spans)) >= 0.0

    assert not exp.broken and not exp.failed
    [layers] = tracing.experiment_metrics(spans)
    evals = sum(exp.tr_evals) + sum(exp.baseline_evals) + exp.reference_evals + exp.norm_evals
    assert layers["problems.eval.calls"] == evals > 0
    assert layers["driver.run.self_s"] >= 0.0

    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"] for m in manifest["per_layer"]} == set(layers) | {"trace.overhead_s"}
