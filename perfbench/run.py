"""attnsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {regimes,heatmap,checks} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every process this starts runs attnsim from
``src/`` with one BLAS thread (at or below any core count, and the
determinism of ``trace.csv`` depends on it).

``--trace 0`` measures end to end, untraced: setup probes, then whole
passes of the workload, each in its own process, for as long as another
pass fits in ``--seconds`` (at least one), then more setup probes.
``--trace 1`` runs one traced pass and reports per-layer self times, counts
and the tracing overhead.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (environment, every pass, spans) goes to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("regimes", "heatmap", "checks")
BLAS_THREADS = 1
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    """What the worker cannot see: the interpreter, cores and source."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "attnsim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "machine": platform.machine()}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(mode: str, workload: str, seed: int, index: int) -> dict:
    """Run one worker process to completion and return its result."""
    path = os.path.join(OUT, f"{workload}-{seed}-{mode}-{index}.part.json")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
         str(seed), repr(t0), path],
        env=worker_env(), cwd=ROOT, stdout=sys.stderr,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are too few samples for one above the median."""
    n = len(values)
    q = 100.0 * (n - 10) / n
    if q <= 50:
        return f"max={max(values):.6g} (n={n})"
    cut = statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
    return f"p{int(q)}={cut:.6g} (n={n})"


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    # half the setup probes before the passes and half after, so that a
    # drift in machine speed during the run weighs on both sides
    setups = [spawn("probe", workload, seed, i)["setup_s"]
              for i in range(SETUP_PROBES // 2)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn("pass", workload, seed, len(passes)))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups += [spawn("probe", workload, seed, i)["setup_s"]
               for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    setups += [p["setup_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "gd_steps_per_s": statistics.median(p["steps"] / p["wall_s"]
                                            for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    # every pass runs the same inputs, so the first pass's claims stand
    # for all of them
    claims = passes[0]["claims_not_holding"]
    notes = [f"wall_s median={metrics['wall_s']:.6g} {tail(walls)}",
             f"setup_s median={metrics['setup_s']:.6g} {tail(setups)}",
             f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}",
             f"theory claims not holding per pass: {len(claims)}"]
    record = {"passes": passes, "setups": setups, "attempted": attempted,
              "failed": failed, "notes": notes,
              "failures": [f for p in passes for f in p["failures"]],
              "claims_not_holding": claims}
    return metrics, record


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    traced = spawn("trace", workload, seed, 0)
    metrics = dict(traced.pop("metrics"))
    over = traced["overhead"]
    notes = [f"traced wall_s={metrics['trace.wall_s']:.6g} = layer self times "
             f"{traced['layer_self_s']:.6g} + uncovered "
             f"{metrics['trace.uncovered_s']:.6g}",
             f"tracing overhead_s={over['overhead_s']:.6g} = {over['spans']} "
             f"spans x {over['span_us']:.3g} us + {over['hooks']} hooks x "
             f"{over['hook_us']:.3g} us",
             f"fail_frac = {traced['failed']}/{traced['attempted']} = "
             f"{traced['failed'] / traced['attempted']:.6g}",
             f"theory claims not holding per pass: "
             f"{len(traced['claims_not_holding'])}"]
    record = {"traced": traced, "attempted": traced["attempted"],
              "failed": traced["failed"], "notes": notes,
              "failures": traced["failures"],
              "claims_not_holding": traced["claims_not_holding"]}
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "attnsim", "__init__.py")):
        print("error: src/attnsim not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            metrics, record = measure_traced(args.workload, args.seed)
        else:
            metrics, record = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    first = record["traced"] if args.trace else record["passes"][0]
    env = {**environment(), "numpy": first["numpy"], "blas": first["blas"],
           "attnsim": os.path.relpath(first["attnsim"], ROOT)}
    units = metric_units(args.trace)
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(f"# attnsim benchmark workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in record["notes"]:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for line in record["claims_not_holding"]:
        print(f"CLAIM DOES NOT HOLD {line}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "env": env, "metrics": metrics,
                   **record}, fh, indent=1)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
