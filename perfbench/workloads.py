"""The benchmark's workloads: the ``attnsim`` command lines one pass runs,
the GD steps a pass performs at the stated sizes, and the output checks.

Every check yields one outcome per operation (a run, a sweep cell or a
theory check); an operation fails when it diverges or fails its check.
A theory check's operation is evaluating the check: its output is the
measured value and the verdict, and both must match what this commit
stored in ``references.json``.  Whether the claim held is reported
separately (``Outcome.holds``): some claims do not hold at some seeds.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

from attnsim.cli import EXIT_CHECK_FAILED, EXIT_OK
from attnsim.data import DataConfig, a8_sigma
from attnsim.experiments import ExperimentConfig, ModelParams, SweepSpec
from attnsim.train import TrainConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# (name, d, mu_norm, steps, log_every): the three acceptance regime points.
REGIMES = (
    ("harmful", 5000, 5.0, 20000, 100),
    ("benign", 2000, 20.0, 20000, 10),
    ("not-overfitting", 1000, 100.0, 800, 10),
)

# Final metrics of a regime run must match the stored reference within this
# relative amount (absolute below 1).  It is not byte identity: a later
# engine may differ from this one by up to 1e-12 end to end, which 1e-9
# admits, while any change to the recursion itself moves them by far more.
REFERENCE_RTOL = 1e-9
# Config seeds 0..REFERENCE_SEEDS-1 have stored references: the final
# metrics of the regime runs and the result of every theory check.
REFERENCE_SEEDS = 30

HEATMAP_D = (1000, 2000, 3500, 5000)
HEATMAP_MU = (5.0, 20.0, 50.0, 100.0)
HEATMAP_STEPS = 1000

# A checks pass runs the suite at three consecutive reference seeds.
CHECK_SEEDS_PER_PASS = 3
# GD steps one `check --suite all` performs on the default config (3000
# steps): the softmax suite caps its run at 500, glinearity at 4000.
CHECK_STEPS = 500 + 3000

WORKLOADS = ("regimes", "heatmap", "checks")


@dataclass(frozen=True)
class Outcome:
    op: str
    ok: bool
    detail: str = ""
    holds: bool = True      # a theory check: whether its claim held


@dataclass(frozen=True)
class Call:
    """One ``attnsim`` invocation and the check of what it produced."""

    argv: tuple[str, ...]
    verify: Callable[[int, str], list[Outcome]]


@dataclass(frozen=True)
class Workload:
    steps: int              # GD steps per pass at the stated sizes
    calls: tuple[Call, ...]


def regime_config(d: int, mu_norm: float, steps: int, log_every: int,
                  seed: int) -> ExperimentConfig:
    """The acceptance suite's Fig-3 setting at one regime point."""
    data = DataConfig(n=20, T=8, d=d, mu_norm=mu_norm, sigma_eps=1.0,
                      eta=0.2, rho=0.1, n_weak_same=1)
    s = 3.0 * a8_sigma(data)
    return ExperimentConfig(
        data=data,
        train=TrainConfig(alpha=5e-3, steps=steps, log_every=log_every,
                          test_size=1000),
        model=ModelParams(sigma_w=s, sigma_p=s),
        seed=seed,
    )


def heatmap_spec(seed: int) -> SweepSpec:
    """The criterion-10 sweep: 4x4 (d, mu_norm) grid, two seeds per cell."""
    base = regime_config(1000, 20.0, HEATMAP_STEPS, 250, 0)
    base = replace(base, train=replace(base.train, test_size=500),
                   model=ModelParams())
    return SweepSpec(d_values=HEATMAP_D, mu_values=HEATMAP_MU,
                     seeds=(2 * seed, 2 * seed + 1), base=base)


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def regime_seed(seed: int) -> int:
    """Config seed of the regime runs: the benchmark seed folded onto the
    seeds that have stored reference metrics."""
    return seed % REFERENCE_SEEDS


def log_point_count(steps: int, log_every: int) -> int:
    return len(set(range(0, steps + 1, log_every)) | {steps})


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _close(value, ref: float) -> bool:
    return (value is not None
            and abs(value - ref) <= REFERENCE_RTOL * max(1.0, abs(ref)))


def _same(value, ref) -> bool:
    """``value`` equals ``ref``, numbers within REFERENCE_RTOL."""
    if isinstance(ref, dict):
        return (isinstance(value, dict) and value.keys() == ref.keys()
                and all(_same(value[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(map(_same, value, ref)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return (math.isnan(value) and math.isnan(ref)) or _close(value, ref)
    return value == ref


def _regimes(seed: int, work_dir: str) -> Workload:
    refs = load_references()
    cfg_seed = regime_seed(seed)
    calls = []
    for name, d, mu, steps, log_every in REGIMES:
        config = regime_config(d, mu, steps, log_every, cfg_seed)
        path = _write_json(os.path.join(work_dir, f"{name}.json"),
                           config.to_json())
        out_dir = os.path.join(work_dir, name)
        ref = refs["seeds"][str(cfg_seed)][name]
        rows_expected = log_point_count(steps, log_every)

        def verify(rc, _stdout, name=name, out_dir=out_dir, ref=ref,
                   rows_expected=rows_expected):
            if rc != 0:
                return [Outcome(name, False, f"exit code {rc}")]
            with open(os.path.join(out_dir, "trace.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != rows_expected:
                return [Outcome(name, False,
                                f"{rows} trace rows, expected {rows_expected}")]
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            if summary["diverged_at"] is not None:
                return [Outcome(name, False,
                                f"diverged at {summary['diverged_at']}")]
            if summary["regime"] != ref["regime"]:
                return [Outcome(name, False, f"regime {summary['regime']}")]
            off = [k for k, v in ref["final"].items()
                   if not _close(summary["final"][k], v)]
            if off:
                return [Outcome(name, False, "final metrics off reference: "
                                + ", ".join(off))]
            return [Outcome(name, True)]

        calls.append(Call(("run", "--config", path, "--out-dir", out_dir),
                          verify))
    steps = sum(r[3] for r in REGIMES)
    return Workload(steps, tuple(calls))


def _read_heatmap(path: str) -> tuple[dict, int]:
    """Test loss by (d, mu_norm, seed), and the number of rows."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {(int(r["d"]), float(r["mu_norm"]), r["seed"]):
            float(r["test_loss"]) for r in rows}, len(rows)


def _heatmap(seed: int, work_dir: str) -> Workload:
    spec = heatmap_spec(seed)
    path = _write_json(os.path.join(work_dir, "sweep.json"), spec.to_json())
    out_dir = os.path.join(work_dir, "heatmap")
    cells = [(d, mu, str(s)) for d in spec.d_values for mu in spec.mu_values
             for s in spec.seeds]
    strong, weak = (min(HEATMAP_D), max(HEATMAP_MU)), (max(HEATMAP_D),
                                                        min(HEATMAP_MU))

    def verify(rc, _stdout):
        if rc != 0:
            return [Outcome(f"cell{c}", False, f"exit code {rc}")
                    for c in cells]
        rows, n_rows = _read_heatmap(os.path.join(out_dir, "heatmap.csv"))
        means, _ = _read_heatmap(os.path.join(out_dir, "heatmap_mean.csv"))
        # criterion 10: the strong-signal, low-d corner beats the weak one
        ordered = means[(*strong, "mean")] < means[(*weak, "mean")]
        outcomes = []
        for c in cells:
            if c not in rows or not math.isfinite(rows[c]):
                outcomes.append(Outcome(f"cell{c}", False, "missing or nan"))
            elif not ordered and c[:2] in (strong, weak):
                outcomes.append(Outcome(f"cell{c}", False,
                                        "corner ordering fails"))
            else:
                outcomes.append(Outcome(f"cell{c}", True))
        if n_rows != len(cells):
            outcomes.append(Outcome("heatmap", False,
                                    f"{n_rows} rows, expected {len(cells)}"))
        return outcomes

    return Workload(len(cells) * HEATMAP_STEPS,
                    (Call(("sweep", "--config", path, "--out-dir", out_dir,
                           "--threads", "1"), verify),))


def check_seeds(seed: int) -> list[int]:
    """Config seeds of a checks pass: three consecutive reference seeds."""
    k = CHECK_SEEDS_PER_PASS
    return [(k * seed + j) % REFERENCE_SEEDS for j in range(k)]


def _checks(seed: int, work_dir: str) -> Workload:
    refs = load_references()["checks"]
    calls = []
    for s in check_seeds(seed):
        ref = refs[str(s)]

        def verify(rc, stdout, s=s, ref=ref):
            try:
                report = {c["name"]: c for c in json.loads(stdout)}
            except json.JSONDecodeError:
                return [Outcome(f"check-seed{s}", False,
                                f"exit code {rc}, no report")]
            outcomes = []
            for name in sorted(ref.keys() | report.keys()):
                op = f"seed{s}:{name}"
                want, got = ref.get(name), report.get(name)
                if want is None or got is None:
                    outcomes.append(Outcome(op, False, "in only one of the "
                                            "report and the reference"))
                    continue
                held = bool(got["pass"])
                result = (f"measured {got['measured']}, threshold "
                          f"{got['threshold']}")
                if held != want["pass"] or not _same(got["measured"],
                                                     want["measured"]):
                    outcomes.append(Outcome(
                        op, False, f"{result}, pass {held}; reference "
                        f"{want['measured']}, pass {want['pass']}", held))
                else:
                    outcomes.append(Outcome(op, True, result, held))
            expected = (EXIT_OK if all(c["pass"] for c in ref.values())
                        else EXIT_CHECK_FAILED)
            if rc != expected:
                outcomes.append(Outcome(f"check-seed{s}", False, f"exit code "
                                        f"{rc}, expected {expected}"))
            return outcomes

        calls.append(Call(("check", "--suite", "all", "--seed", str(s)),
                          verify))
    return Workload(len(calls) * CHECK_STEPS, tuple(calls))


_BUILDERS = {"regimes": _regimes, "heatmap": _heatmap, "checks": _checks}


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Write the workload's config files into ``work_dir`` and return the
    calls of one pass."""
    return _BUILDERS[name](seed, work_dir)
