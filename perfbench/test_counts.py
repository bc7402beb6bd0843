"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_counts.py

Each workload's traced pass runs twice, concurrently, at one seed.  No
operation may fail its output check; the computed counts and the theory
claims that do not hold must repeat exactly; the counts must match their
closed forms; and the per-layer self times must add up to the traced wall
time.  About two minutes on two cores; ``-k checks`` alone takes about
fifteen seconds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402

COUNTS = ("train.steps", "train.log_points", "data.bytes", "model.init_bytes",
          "experiments.bytes_written")
SEED = 3


def traced_twice(name: str, tmp_path) -> list[dict]:
    paths = [str(tmp_path / f"{name}-{i}.json") for i in range(2)]
    procs = [subprocess.Popen(
        [sys.executable, os.path.join(run.HERE, "worker.py"), "trace", name,
         str(SEED), repr(time.monotonic()), path],
        env=run.worker_env(), cwd=run.ROOT) for path in paths]
    for proc in procs:
        assert proc.wait(timeout=run.WORKER_TIMEOUT_S) == 0
    results = []
    for path in paths:
        with open(path) as fh:
            results.append(json.load(fh))
    return results


def expected_counts(name: str) -> dict:
    """Closed forms of the counts, from the workload's stated sizes."""
    f8 = 8
    if name == "regimes":
        runs = [(d, steps, le, 20, 1000)
                for _, d, _, steps, le in workloads.REGIMES]
    elif name == "heatmap":
        runs = [(d, workloads.HEATMAP_STEPS, 250, 20, 500)
                for d in workloads.HEATMAP_D for _ in workloads.HEATMAP_MU
                for _ in range(2)]
    else:
        return {"train.steps": len(workloads.check_seeds(SEED))
                * workloads.CHECK_STEPS}
    T = 8
    return {
        "train.steps": sum(r[1] for r in runs),
        "train.log_points": sum(workloads.log_point_count(steps, le)
                                for _, steps, le, _, _ in runs),
        # X and noise, training and test sets
        "data.bytes": sum(2 * (n + m) * T * d * f8 for d, _, _, n, m in runs),
        "model.init_bytes": sum(d * d * f8 for d, *_ in runs),
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    first, second = traced_twice(name, tmp_path)
    a, b = first["metrics"], second["metrics"]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    for key, value in expected_counts(name).items():
        assert a[key] == value, key
    assert a["train.steps"] == first["steps"]
    assert a["experiments.bytes_written"] > 0 or name == "checks"
    assert first["failed"] == 0, first["failures"]
    # some theory claims do not hold at some seeds (see README.md); which
    # ones must repeat exactly
    assert first["claims_not_holding"] == second["claims_not_holding"]
    # per-layer self times and the uncovered remainder make up the wall
    assert (first["layer_self_s"] + a["trace.uncovered_s"]
            == pytest.approx(a["trace.wall_s"], rel=1e-9))


def test_refuses_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, run.py fails fast and
    prints no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
