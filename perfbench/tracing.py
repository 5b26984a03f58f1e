"""Span recording around hermite_tr's layer boundaries, from outside the package.

The package has no tracing of its own, so this module replaces the public
functions at each layer boundary with thin wrappers that record a span
(id, parent span, name, start, end, attributes).  Spans stay in memory
and are written out once, at the end of a run.  Per-layer metrics are
derived from them: call counts, busy time (sum of span durations), self
time (duration minus the time covered by child spans) and counters
recorded as span attributes where the work happens.

Where to patch follows from how the package binds its names:

- a name bound by ``from ... import`` is patched in the importing module
  (``hermite_tr.harness.run`` rather than ``hermite_tr.driver.run``);
- methods are patched on their class;
- ``problem_pde2d`` captures ``pde2d_solve``/``pde2d_gradient`` when it
  builds the problem, and the harness caches that problem for the rest of
  the process, so those two (``EARLY_TARGETS``) must be wrapped before the
  first experiment.  While the tracer is disabled they only pass through.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

TERMINATIONS = ("stationary_inner", "near_boundary", "max_inner_iters", "line_search_failed")
# the first four are the outcomes of acceptance_step, i.e. the decisions
BRANCHES = ("accepted_by_sufficient", "rejected_by_necessary", "accepted_by_direct",
            "rejected_by_direct", "subproblem_failed")
DECISIONS = BRANCHES[:4]
ROOT = "experiment"


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "attrs")

    def __init__(self, id, parent, trace, name, start):
        self.id, self.parent, self.trace, self.name = id, parent, trace, name
        self.start, self.end, self.attrs = start, None, {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; wrappers pass straight through while disabled."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else -1,
                    parent.trace if parent else len(self.spans), name,
                    time.perf_counter() - self._origin)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def current(self):
        return self._stack[-1]

    def close(self, span):
        span.end = time.perf_counter() - self._origin
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name, fn, note=None):
        """Wrap fn in a span; note(attrs, result) records counters on success."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if note is not None:
                note(span.attrs, result)
            return result

        return traced

    def write(self, path):
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "trace": s.trace,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


# -- what each wrapper records -------------------------------------------


def _note_fit(attrs, surrogate):
    attrs["gram_size"] = int(surrogate.gram.shape[0])
    attrs["jittered"] = bool(surrogate.jitter_used > 0)


def _note_solve(attrs, result):
    attrs["termination"] = result.termination.value
    attrs["inner_steps"] = len(result.iterates)


def _note_decision(attrs, record):
    attrs["branch"] = record.branch.value
    attrs["audit_failed"] = record.sufficient_check_ok is False


def _note_emit(attrs, out_dir):
    attrs["bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _counting_backtrack(tracer, backtrack):
    """armijo_backtrack in a span that counts its trial evaluations."""

    def armijo_backtrack(fun, *args, **kwargs):
        if not tracer.enabled:
            return backtrack(fun, *args, **kwargs)
        span = tracer.current()
        span.attrs["trials"] = 0

        def counted(point):
            span.attrs["trials"] += 1
            return fun(point)

        return backtrack(counted, *args, **kwargs)

    return tracer.wrap("subproblem.backtrack", functools.wraps(backtrack)(armijo_backtrack))


def _span(name, note=None):
    return lambda tracer, fn: tracer.wrap(name, fn, note)


# (module, attribute, wrapper factory); "Class.method" attributes patch the class
EARLY_TARGETS = (
    ("hermite_tr.pde2d", "pde2d_solve", _span("pde2d.solve")),
    ("hermite_tr.pde2d", "pde2d_gradient", _span("pde2d.gradient")),
)
TARGETS = (
    ("hermite_tr.harness", "run_experiment", _span("harness.run_experiment")),
    ("hermite_tr.harness", "emit_outputs", _span("harness.emit_outputs", _note_emit)),
    ("hermite_tr.harness", "reference_solution", _span("baseline.reference_solution")),
    ("hermite_tr.harness", "minimize", _span("baseline.minimize")),
    ("hermite_tr.harness", "resolve_norm_bound", _span("driver.resolve_norm_bound")),
    ("hermite_tr.harness", "run", _span("driver.run")),
    ("hermite_tr.driver", "fit", _span("surrogate.fit", _note_fit)),
    ("hermite_tr.driver", "solve", _span("subproblem.solve", _note_solve)),
    ("hermite_tr.driver", "acceptance_step", _span("driver.acceptance_step", _note_decision)),
    ("hermite_tr.driver", "estimate_norm", _span("surrogate.estimate_norm")),
    ("hermite_tr.surrogate", "radial_profiles", _span("kernels.radial_profiles")),
    ("hermite_tr.surrogate", "Surrogate.value", _span("surrogate.value")),
    ("hermite_tr.surrogate", "Surrogate.gradient", _span("surrogate.gradient")),
    ("hermite_tr.surrogate", "Surrogate.power", _span("surrogate.power")),
    ("hermite_tr.subproblem", "armijo_backtrack", _counting_backtrack),
    ("hermite_tr.problems", "Problem.eval", _span("problems.eval")),
    ("hermite_tr.pde2d", "Pde2dDiscretization.system_matrix", _span("pde2d.system_matrix")),
    ("hermite_tr.pde2d", "splu", _span("pde2d.splu")),
)


def install(tracer, targets):
    """Patch every target with its span wrapper; returns a function that undoes it."""
    undo = []
    for module_name, attr, make in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, make(tracer, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics ------------------------------------------------------

# metric -> (span name, statistic); statistic is calls, busy or self
SPAN_METRICS = {
    "problems.eval.calls": ("problems.eval", "calls"),
    "problems.eval.s": ("problems.eval", "busy"),
    "pde2d.solve.calls": ("pde2d.solve", "calls"),
    "pde2d.solve.s": ("pde2d.solve", "busy"),
    "pde2d.splu.s": ("pde2d.splu", "busy"),
    "pde2d.system_matrix.s": ("pde2d.system_matrix", "busy"),
    "pde2d.gradient.s": ("pde2d.gradient", "busy"),
    "baseline.reference_solution.s": ("baseline.reference_solution", "busy"),
    "baseline.minimize.s": ("baseline.minimize", "busy"),
    "surrogate.fit.calls": ("surrogate.fit", "calls"),
    "surrogate.fit.s": ("surrogate.fit", "busy"),
    "surrogate.value.calls": ("surrogate.value", "calls"),
    "surrogate.value.s": ("surrogate.value", "busy"),
    "surrogate.gradient.calls": ("surrogate.gradient", "calls"),
    "surrogate.gradient.s": ("surrogate.gradient", "busy"),
    "surrogate.power.calls": ("surrogate.power", "calls"),
    "surrogate.power.s": ("surrogate.power", "busy"),
    "surrogate.estimate_norm.s": ("surrogate.estimate_norm", "busy"),
    "kernels.radial_profiles.calls": ("kernels.radial_profiles", "calls"),
    "kernels.radial_profiles.s": ("kernels.radial_profiles", "busy"),
    "subproblem.solve.calls": ("subproblem.solve", "calls"),
    "subproblem.solve.s": ("subproblem.solve", "busy"),
    "driver.run.self_s": ("driver.run", "self"),
    "driver.acceptance_step.calls": ("driver.acceptance_step", "calls"),
    "driver.acceptance_step.s": ("driver.acceptance_step", "busy"),
    "harness.run_experiment.self_s": ("harness.run_experiment", "self"),
    "harness.emit_outputs.s": ("harness.emit_outputs", "busy"),
}


def self_times(spans):
    """Self time of every span: its duration minus its children's durations.

    Children of one span never overlap (one thread, strictly nested
    spans), so the time they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - covered[s.id] for s in spans]


def experiment_metrics(spans):
    """Per-layer metrics of each traced experiment, in order of the experiments."""
    groups = defaultdict(list)
    for s, own in zip(spans, self_times(spans)):
        groups[s.trace].append((s, own))

    results = []
    for trace in sorted(groups):
        stats = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        branches, terms = Counter(), Counter()
        gram_sizes, trials, accepted = [], 0, 0
        out = dict.fromkeys(("surrogate.fit.jittered", "surrogate.estimate_norm.evals",
                             "subproblem.failed", "subproblem.inner_steps",
                             "driver.audit_failures", "harness.emit_outputs.bytes"), 0)
        for s, own in groups[trace]:
            st = stats[s.name]
            st["calls"] += 1
            st["busy"] += s.duration
            st["self"] += own
            a = s.attrs
            if s.name == "surrogate.fit":
                gram_sizes.append(a["gram_size"])
                out["surrogate.fit.jittered"] += a["jittered"]
            elif s.name == "problems.eval" and s.parent >= 0 \
                    and spans[s.parent].name == "surrogate.estimate_norm":
                out["surrogate.estimate_norm.evals"] += 1
            elif s.name == "subproblem.solve":
                if "error" in a:
                    # driver.run logs a failed inner solve as its own branch
                    out["subproblem.failed"] += 1
                    branches["subproblem_failed"] += 1
                else:
                    terms[a["termination"]] += 1
                    out["subproblem.inner_steps"] += a["inner_steps"]
            elif s.name == "subproblem.backtrack":
                trials += a["trials"]
                accepted += "error" not in a
            elif s.name == "driver.acceptance_step" and "branch" in a:
                branches[a["branch"]] += 1
                out["driver.audit_failures"] += a["audit_failed"]
            elif s.name == "harness.emit_outputs" and "bytes" in a:
                out["harness.emit_outputs.bytes"] += a["bytes"]

        out.update({name: stats[span][stat] for name, (span, stat) in SPAN_METRICS.items()})
        out["surrogate.gram_size.max"] = max(gram_sizes, default=0)
        out["surrogate.gram_size.mean"] = sum(gram_sizes) / len(gram_sizes) if gram_sizes else 0.0
        out["subproblem.backtrack.trials"] = trials
        out["subproblem.backtrack.accept_ratio"] = accepted / trials if trials else 0.0
        for kind in TERMINATIONS:
            out[f"subproblem.termination.{kind}"] = terms[kind]
        for branch in BRANCHES:
            out[f"driver.branch.{branch}"] = branches[branch]
        decisions = sum(branches[b] for b in DECISIONS)
        decided = branches["accepted_by_sufficient"] + branches["rejected_by_necessary"]
        out["driver.bound_decided_share"] = decided / decisions if decisions else 0.0
        out["driver.evals_saved"] = branches["rejected_by_necessary"]
        results.append(out)
    return results
