"""Collect benchmark results into one entry of the BENCH trajectory.

    python3 perfbench/record.py perfbench/trajectory/BENCH_<n>.json LABEL \
        DIR [DIR ...]

Each DIR holds the records ``run.py`` left in ``perfbench/out/`` for one set
of runs (move them there between sets).  Per set and workload the entry
holds the median and quartiles of every end-to-end metric over the untraced
runs and the per-layer metrics of each traced run, together with the
environment they were measured in.  With two or more sets it also compares
each set's medians with the first set's against the metric's bound.  A
performance change quotes the entry of its parent and its own, made on the
same machine.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run


def summarize(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / median if median else None}


def load(directory: str) -> list[dict]:
    records = []
    for name in sorted(glob.glob(os.path.join(directory,
                                              "*-seed*-trace*.json"))):
        with open(name) as fh:
            records.append(json.load(fh))
    return records


def summarize_set(records: list[dict], units: dict) -> dict:
    out = {}
    for wl in run.WORKLOADS:
        plain = [r for r in records
                 if r["args"]["workload"] == wl and not r["args"]["trace"]]
        traced = [r for r in records
                  if r["args"]["workload"] == wl and r["args"]["trace"]]
        out[wl] = {
            "seeds": sorted(r["args"]["seed"] for r in plain),
            "run_seconds": sorted({r["args"]["seconds"] for r in plain}),
            "failed": sum(r["failed"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "end_to_end": {
                m: {"unit": u, **summarize([r["metrics"][m] for r in plain])}
                for m, u in units[0].items()} if plain else {},
            "per_layer": [{"seed": r["args"]["seed"],
                           **{m: r["metrics"][m] for m in units[1]}}
                          for r in traced],
        }
    return out


def agreement(first: dict, other: dict, bench: dict) -> dict:
    """How much worse each median of ``other`` is than ``first``'s, as a
    share of the first median, against the metric's bound."""
    out = {}
    for wl, summary in first.items():
        for m in bench["end_to_end"]:
            a = summary["end_to_end"].get(m["name"])
            b = other.get(wl, {}).get("end_to_end", {}).get(m["name"])
            if a is None or b is None:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if m["better"] == "lower" else -change
            out.setdefault(wl, {})[m["name"]] = {
                "worse_by": worse, "bound": m["bound"],
                "within": worse <= m["bound"]}
    return out


def main(argv: list[str]) -> int:
    path, label, *dirs = argv
    sets = [load(d) for d in dirs]
    if not dirs or not all(sets):
        print(f"no results in one of {dirs}", file=sys.stderr)
        return 1
    units = {t: run.metric_units(t) for t in (0, 1)}
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    summaries = [summarize_set(records, units) for records in sets]
    entry = {"label": label, "env": sets[0][0]["env"],
             "sets": summaries,
             "agreement": [agreement(summaries[0], s, bench)
                           for s in summaries[1:]]}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
