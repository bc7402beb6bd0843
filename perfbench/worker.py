"""One benchmark process: set up, run one pass of a workload through
``attnsim.cli.main``, check its outputs and write the measurements as JSON.

    python3 perfbench/worker.py MODE WORKLOAD SEED T0 RESULT_PATH

MODE is ``probe`` (set up, then stop), ``pass`` (one untraced pass) or
``trace`` (one traced pass, then the step-cost calibration and the
tracing-overhead estimate).  T0 is the
parent's ``time.monotonic()`` just before it started this process, so the
setup time covers interpreter start, imports and config build up to the
first timed call.  ``run.py`` starts this with PYTHONPATH and the BLAS
thread count set.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace

import numpy as np

import attnsim.cli
import attnsim.experiments
from attnsim.experiments import ExperimentConfig

import workloads

# Distinct training configs replayed by the calibration pass; enough to
# cover each workload's distinct step costs while keeping the pass short.
CALIBRATION_CONFIGS = 3


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build, and the thread count and
    kernel the loaded OpenBLAS reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads": None, "core": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                if get_threads is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["threads"] = get_threads()
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if core is not None:
                    core.argtypes, core.restype = [], ctypes.c_char_p
                    info["core"] = core().decode()
                return info
    return info


def run_call(call) -> tuple[float, int, str]:
    """Time one ``attnsim`` invocation; its stdout is captured for the check."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = attnsim.cli.main(list(call.argv))
    except Exception:  # a crash is a failed operation, not a lost pass
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc, buf.getvalue()


def run_pass(workload, tracer=None) -> dict:
    durations, outcomes = [], []
    for i, call in enumerate(workload.calls):
        if tracer is None:
            dur, rc, out = run_call(call)
        else:
            tracer.run = i
            with tracer.span("cli.main"):
                dur, rc, out = run_call(call)
        durations.append(dur)
        outcomes.extend(call.verify(rc, out))
    return {
        "wall_s": sum(durations),
        "call_s": durations,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "failures": [f"{o.op}: {o.detail}" for o in outcomes if not o.ok],
        "claims_not_holding": [f"{o.op}: {o.detail}" for o in outcomes
                               if not o.holds],
        "steps": workload.steps,
    }


def calibrate(configs: list[dict]) -> dict:
    """Replay training configs with a single log point after the last step,
    so the loop span is the bare recursion: the per-step cost."""
    from tracer import Tracer
    loop_s, steps = 0.0, 0
    for obj in configs[:CALIBRATION_CONFIGS]:
        cfg = ExperimentConfig.from_json(obj)
        cfg = replace(cfg, train=replace(cfg.train, log_every=cfg.train.steps,
                                         test_size=0))
        tracer = Tracer()
        with tracer.installed(train_only=True):
            attnsim.experiments.execute(cfg)
        sp = tracer.spans[0]
        loop_s += sp.hooks[-1] - sp.hooks[0]
        steps += cfg.train.steps
    return {"step_us": 1e6 * loop_s / steps, "steps": steps}


def traced_metrics(tracer, calibration: dict) -> dict:
    layers, wall = tracer.self_times()
    counts = tracer.counts
    cells = tracer.cell_times()
    steps = counts["train.steps"]
    # log points inside the loop: the step-0 point falls in precompute
    loop_logs = counts["train.log_points"] - sum(
        1 for sp in tracer.spans if sp.name == "train.train")
    step_us = calibration["step_us"]
    metrics = {
        **{name: layers[name] for name in LAYER_TIMES},
        "train.step_us": step_us,
        "train.log_ms": (1e3 * (layers["train.loop_s"] - steps * step_us * 1e-6)
                         / loop_logs if loop_logs else 0.0),
        **{name: counts[name] for name in COUNTS},
        "experiments.cell_s": statistics.median(cells) if cells else 0.0,
        "experiments.cell_max_s": max(cells, default=0.0),
        "experiments.cells": len(cells),
        "trace.wall_s": wall,
        "trace.uncovered_s": layers["trace.uncovered_s"],
    }
    return metrics


LAYER_TIMES = (
    "data.gen_s", "model.init_s", "train.precompute_s", "train.loop_s",
    "train.finish_s", *(f"theory.{s}_s" for s in attnsim.experiments.CHECK_SUITES),
    "theory.summary_s", "multiclass.head_grad_s", "experiments.serialize_s",
    "experiments.dispatch_s",
)
COUNTS = (
    "data.bytes", "model.init_bytes", "train.steps", "train.log_points",
    "train.diverged", "theory.checks_passed", "theory.checks_total",
    "experiments.bytes_written",
)


def main(argv: list[str]) -> int:
    mode, name, seed, t0, result_path = argv
    out_root = os.path.dirname(result_path)
    work_dir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_root)
    try:
        workload = workloads.build(name, int(seed), work_dir)
        setup_s = time.monotonic() - float(t0)
        result = {"mode": mode, "setup_s": setup_s}
        if mode == "pass":
            result.update(run_pass(workload))
        elif mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            with tracer.installed():
                result.update(run_pass(workload, tracer))
            result["calibration"] = calibrate(tracer.train_configs())
            result["overhead"] = tracer.overhead_estimate()
            result["metrics"] = traced_metrics(tracer, result["calibration"])
            result["metrics"]["trace.overhead_s"] = (
                result["overhead"]["overhead_s"])
            result["layer_self_s"] = sum(result["metrics"][n]
                                         for n in LAYER_TIMES)
            result["spans"] = tracer.to_json()
        elif mode != "probe":
            raise SystemExit(f"unknown mode {mode!r}")
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        result["attnsim"] = attnsim.__file__
        result["numpy"] = np.__version__
        result["blas"] = blas_info()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
