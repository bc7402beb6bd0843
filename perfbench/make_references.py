"""Write the stored references the ``regimes`` and ``checks`` workloads
check against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

At config seeds 0..REFERENCE_SEEDS-1 (see ``workloads.py``) it runs the
three regime points and stores each run's final metrics and advisory
regime, and runs ``attnsim check --suite all`` and stores each check's
measured value and verdict, in ``references.json``.  Run it only when a
change is meant to move those values; the benchmark's check exists to catch
changes that move them by accident.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import attnsim.cli
from attnsim.experiments import run

import workloads


def check_results(seed: int) -> dict:
    """Name -> measured value and verdict of every check at ``seed``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        attnsim.cli.main(["check", "--suite", "all", "--seed", str(seed)])
    return {c["name"]: {"measured": c["measured"], "pass": c["pass"]}
            for c in json.loads(buf.getvalue())}


def main() -> int:
    seeds, checks = {}, {}
    out = os.path.join(os.path.dirname(workloads.REFERENCES_PATH), "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for seed in range(workloads.REFERENCE_SEEDS):
            checks[str(seed)] = check_results(seed)
            print(seed, "claims not holding:",
                  [n for n, c in checks[str(seed)].items() if not c["pass"]],
                  flush=True)
            entry = {}
            for name, d, mu, steps, log_every in workloads.REGIMES:
                cfg = workloads.regime_config(d, mu, steps, log_every, seed)
                summary = run(cfg, f"{tmp}/{seed}-{name}").summary
                entry[name] = {"final": summary["final"],
                               "regime": summary["regime"]}
                print(seed, name, json.dumps(summary["final"]), flush=True)
            seeds[str(seed)] = entry
    with open(workloads.REFERENCES_PATH, "w") as fh:
        json.dump({"rtol": workloads.REFERENCE_RTOL, "seeds": seeds,
                   "checks": checks}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
