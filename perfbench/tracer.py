"""Outside-in tracing of attnsim's layers.

The tracer replaces public functions at the names their callers import them
under (``attnsim.experiments.train``, ``attnsim.cli.run``, ...) with
wrappers that record spans, and adds a timing hook to ``train``.  Nothing in
``src/`` changes; the originals are restored when the context exits.
Spans are kept in memory as (name, start, end, parent, run) and written out
by the caller.
"""
from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import attnsim.cli
import attnsim.experiments
import attnsim.theory
import attnsim.train

SUITES = tuple(attnsim.experiments.CHECK_SUITES)

# Spans whose self time counts toward each reported layer metric.
LAYER_OF = {
    "data.make_signals": "data.gen_s",
    "data.generate_dataset": "data.gen_s",
    "model.init_params": "model.init_s",
    "model.make_head": "model.init_s",
    "multiclass.head_gradient_estimate": "multiclass.head_grad_s",
    "experiments.run": "experiments.serialize_s",
    "experiments.sweep": "experiments.serialize_s",
    "experiments.execute": "experiments.dispatch_s",
    "experiments.run_check_suites": "experiments.dispatch_s",
    "theory.summary": "theory.summary_s",
    **{f"theory.{s}": f"theory.{s}_s" for s in SUITES},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: int = 0
    # train spans: perf_counter at each hook call (one per log point)
    hooks: list = field(default_factory=list)
    config: dict | None = None


class Tracer:
    """Records spans around wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent=parent, run=self.run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                try:
                    result = fn(*args, **kwargs)
                except attnsim.train.DivergenceError as exc:
                    # run() still wrote its files; they count as written
                    if after is not None and hasattr(exc, "artifacts"):
                        after(sp, exc.artifacts, args, kwargs)
                    raise
            if after is not None:
                after(sp, result, args, kwargs)
            return result
        return wrapper

    # -- counters taken where the work happens ------------------------------

    def _dataset(self, _sp, ds, _args, _kwargs):
        self.counts["data.bytes"] += ds.X.nbytes + ds.noise.nbytes

    def _init(self, _sp, wp, _args, _kwargs):
        self.counts["model.init_bytes"] += wp[0].nbytes

    def _execute(self, sp, _result, args, kwargs):
        sp.config = (args[0] if args else kwargs["config"]).to_json()

    def _train(self, fn):
        def train(*args, hooks=(), **kwargs):
            with self.span("train.train") as sp:
                stamp = (lambda _step, _info:
                         sp.hooks.append(time.perf_counter()))
                result = fn(*args, hooks=(*hooks, stamp), **kwargs)
            trace = result.trace
            steps = (trace.diverged_at - 1 if trace.diverged_at is not None
                     else trace.meta["steps"])
            self.counts["train.steps"] += steps
            self.counts["train.log_points"] += len(sp.hooks)
            self.counts["train.diverged"] += trace.diverged_at is not None
            return result
        return train

    def _run(self, _sp, artifacts, _args, _kwargs):
        for path in (artifacts.trace_path, artifacts.summary_path):
            self.counts["experiments.bytes_written"] += os.path.getsize(path)
        digest = artifacts.summary["theory_digest"]
        self.counts["theory.checks_total"] += len(digest)
        self.counts["theory.checks_passed"] += sum(map(bool, digest.values()))

    def _sweep(self, _sp, _result, _args, kwargs):
        for name in ("heatmap.csv", "heatmap_mean.csv"):
            self.counts["experiments.bytes_written"] += os.path.getsize(
                os.path.join(kwargs["out_dir"], name))

    def _checks(self, _sp, report, _args, _kwargs):
        self.counts["theory.checks_total"] += len(report.checks)
        self.counts["theory.checks_passed"] += sum(c.passed
                                                   for c in report.checks)

    @contextlib.contextmanager
    def installed(self, train_only: bool = False):
        """Patch the wrappers in; ``train_only`` adds just the train hook."""
        ex, cli, th = attnsim.experiments, attnsim.cli, attnsim.theory
        patches = [(ex, "train", self._train(ex.train))]
        if not train_only:
            w = self.wrap
            patches += [
                (ex, "make_signals", w("data.make_signals", ex.make_signals)),
                (ex, "generate_dataset", w("data.generate_dataset",
                                           ex.generate_dataset, self._dataset)),
                (ex, "init_params", w("model.init_params", ex.init_params,
                                      self._init)),
                (ex, "make_head", w("model.make_head", ex.make_head)),
                (ex, "execute", w("experiments.execute", ex.execute,
                                  self._execute)),
                (th, "head_gradient_estimate",
                 w("multiclass.head_gradient_estimate",
                   th.head_gradient_estimate)),
                (cli, "run", w("experiments.run", cli.run, self._run)),
                (cli, "sweep", w("experiments.sweep", cli.sweep, self._sweep)),
                (cli, "run_check_suites", w("experiments.run_check_suites",
                                            cli.run_check_suites,
                                            self._checks)),
            ]
            for name in ("measure_grokking", "softmax_bound_scan",
                         "loss_derivative_balance"):
                patches.append((ex, name, w("theory.summary", getattr(ex, name))))
        originals = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        suites = dict(ex.CHECK_SUITES)
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            if not train_only:
                for s in SUITES:
                    ex.CHECK_SUITES[s] = self.wrap(f"theory.{s}", suites[s])
            yield self
        finally:
            for mod, name, fn in originals:
                setattr(mod, name, fn)
            ex.CHECK_SUITES.update(suites)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[Counter, float]:
        """Self time per layer metric, plus the traced wall time (the sum of
        the root spans).  A theory.summary span inside a check suite (the
        softmax suite calls softmax_bound_scan) counts toward that suite.
        The train span is split at its first and last hook into
        precompute, loop and finish."""
        child = Counter()
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out = Counter()
        wall = 0.0
        for i, sp in enumerate(self.spans):
            own = sp.end - sp.start - child[i]
            if sp.parent is None:
                wall += sp.end - sp.start
                out["trace.uncovered_s"] += own
                continue
            if sp.name == "train.train":
                first, last = (sp.hooks[0], sp.hooks[-1]) if sp.hooks else (
                    sp.end, sp.end)
                out["train.precompute_s"] += first - sp.start
                out["train.loop_s"] += last - first
                out["train.finish_s"] += sp.end - last
                continue
            layer = LAYER_OF[sp.name]
            parent = self.spans[sp.parent].name
            if sp.name == "theory.summary" and parent.startswith("theory."):
                layer = LAYER_OF[parent]
            out[layer] += own
        return out, wall

    def cell_times(self) -> list[float]:
        """Durations of the execute spans directly under a sweep."""
        return [sp.end - sp.start for sp in self.spans
                if sp.name == "experiments.execute" and sp.parent is not None
                and self.spans[sp.parent].name == "experiments.sweep"]

    def train_configs(self) -> list[dict]:
        """Distinct experiment configs that reached ``train``, in call order."""
        seen = {}
        for sp in self.spans:
            if sp.name == "experiments.execute" and sp.config is not None:
                seen.setdefault(json.dumps(sp.config, sort_keys=True), sp.config)
        return list(seen.values())

    def overhead_estimate(self, calls: int = 20000) -> dict:
        """Tracing cost of this pass, measured in-process: the recorded
        spans times the cost of one empty wrapped call over a bare one, plus
        the train hook calls times the cost of one stamp hook call with the
        info dict ``train`` builds for it."""
        probe = Tracer()
        bare = lambda: None  # noqa: E731
        wrapped = probe.wrap("probe", bare)
        hooks = []
        stamp = lambda _step, _info: hooks.append(time.perf_counter())  # noqa: E731

        def per_call(fn) -> float:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - t0) / calls

        span_s = per_call(wrapped) - per_call(bare)
        hook_s = per_call(lambda: stamp(0, {"probs": 0, "outputs": 0,
                                            "loss": 0, "lambda_plus": 0,
                                            "lambda_minus": 0}))
        n_hooks = sum(len(sp.hooks) for sp in self.spans)
        return {"spans": len(self.spans), "span_us": 1e6 * span_s,
                "hooks": n_hooks, "hook_us": 1e6 * hook_s,
                "overhead_s": len(self.spans) * span_s + n_hooks * hook_s}

    def to_json(self) -> list:
        return [[sp.name, sp.start, sp.end, sp.parent, sp.run]
                for sp in self.spans]
