"""Configuration-driven experiment runner.

A run = data generation -> initialization -> instrumented training ->
plot-ready trace CSV plus a summary JSON.  A sweep runs one cell per
(dimension, signal norm, seed) on a shared base configuration and writes a
heatmap CSV.  Outputs are byte-identical for a given configuration and seed
regardless of thread count: every cell owns its seed and results are sorted
before writing.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import (ConfigError, DataConfig, _Section, a8_sigma,
                   generate_dataset, make_signals, snr)
from .model import InitDraw, ModelState, init_params, make_head
from .multiclass import MulticlassConfig, make_class_signals
from .rng import cell_seed, stream
from .theory import (UPDATE_IDENTITY_TOL, CheckResult, TheoryReport,
                     classify_regime, etf_gradient_check, good_run_check,
                     g_linearity, init_checks, loss_derivative_balance,
                     measure_grokking, pre_saturation_window, rel_err,
                     softmax_bound_scan, verify_update_identity)
from .train import (DivergenceError, TrainConfig, TrainTrace, finite_diff_grad,
                    grad_p, grad_w, projects_test_set, train)

__all__ = [
    "ModelParams",
    "ExperimentConfig",
    "SweepSpec",
    "RunArtifacts",
    "default_config",
    "run",
    "sweep",
    "run_check_suites",
    "CHECK_SUITES",
    "TRACE_COLUMNS",
]


@dataclass(frozen=True)
class ModelParams(_Section):
    """Initialization scales of W and p.

    ``sigma_w``/``sigma_p`` default to the near-uniform-attention scale
    :func:`a8_sigma` of the data configuration when left as None.  The
    class signals and the head are fixed by the model: a random
    orthonormal pair (:func:`make_signals`) and nu = (mu_+ - mu_-) /
    (||mu|| ||mu_+ - mu_-||) (:func:`make_head`).
    """

    sigma_w: float | None = None
    sigma_p: float | None = None

    def __post_init__(self):
        super().__post_init__()
        for name in ("sigma_w", "sigma_p"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True)
class ExperimentConfig(_Section):
    data: DataConfig
    train: TrainConfig
    model: ModelParams = ModelParams()
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolved_sigmas(self) -> tuple[float, float]:
        base = a8_sigma(self.data)
        sw = self.model.sigma_w if self.model.sigma_w is not None else base
        sp = self.model.sigma_p if self.model.sigma_p is not None else base
        return sw, sp


def default_config() -> ExperimentConfig:
    """Small benign-regime setting used by the check suites."""
    return ExperimentConfig(
        data=DataConfig(n=16, T=6, d=800, mu_norm=12.0, sigma_eps=1.0,
                        eta=0.2, rho=0.1, n_weak_same=1),
        train=TrainConfig(alpha=5e-3, steps=3000, log_every=10, test_size=400),
        seed=0,
    )


# --------------------------------------------------------------------------
# Core execution
# --------------------------------------------------------------------------

def build_inputs(config: ExperimentConfig):
    """Deterministically expand a configuration into signals, datasets and
    the initial model state; each stochastic piece has its own stream.

    A second thread draws W(0) block by block (:func:`init_params`), then
    p(0), while this one draws the signals, the training set, which gives
    the engine's basis B, and the test set.  Each thread then forms
    V = W(0) B^T one drawn row block at a time: this one as soon as its
    draws are done, the draw thread once W(0) and p(0) are, each taking
    the next block not yet taken.  numpy releases the GIL while it fills
    arrays and multiplies, so the draws and blocks overlap on two cores.
    The bits cannot depend on the schedule: each stream has its own
    generator, and each block of V is formed by the same product whichever
    thread takes it, over the blocks ``train`` uses for a held W(0).  A
    test set that ``train`` will score through its projection
    (:func:`projects_test_set`) is left undrawn: ``train`` draws it chunk
    by chunk beside its loop.

    The drawn W(0), B and V are held by the :class:`InitDraw` of
    ``state0``, which ``train`` reads them from and which it releases at
    W(0)'s last read; a read after that redraws W(0) from the draw's
    stream."""
    s, d = config.seed, config.data.d
    sw, sp = config.resolved_sigmas()
    rng = stream(s, "init")
    init = InitDraw(d, sw, rng)

    def draw_init():
        try:
            init.W, p = init_params(d, sw, sp, rng, on_rows=init.rows_drawn)
        except BaseException:
            init.stop()
            raise
        init.form()
        return p

    with ThreadPoolExecutor(max_workers=1) as pool:
        drawn = pool.submit(draw_init)
        try:
            signals = make_signals(d, config.data.mu_norm,
                                   stream(s, "signals"))
            dataset = generate_dataset(config.data, signals, stream(s, "data"))
            init.set_basis(dataset, signals)
            test_set = None
            if config.train.test_size > 0:
                test_cfg = replace(config.data, n=config.train.test_size,
                                   eta=0.0)
                test_set = generate_dataset(
                    test_cfg, signals, stream(s, "test"),
                    lazy=projects_test_set(config.data, config.train))
            init.form()
        except BaseException:
            init.stop()
            raise
        p = drawn.result()
    nu = make_head(signals)
    state0 = ModelState(W=init, p=p, nu=nu)
    return signals, dataset, test_set, state0


def execute(config: ExperimentConfig):
    """Run one configured training and return its ``TrainResult``, whose
    trace carries the ``divergence`` record of a run that diverged."""
    signals, dataset, test_set, state0 = build_inputs(config)
    return train(state0, dataset, signals, config.train, test_set=test_set)


# --------------------------------------------------------------------------
# Trace serialization
# --------------------------------------------------------------------------

TRACE_COLUMNS = ("step", "train_loss", "train_acc", "train_acc_true",
                 "test_acc", "lambda_plus", "lambda_minus")


def _tracked_samples(trace: TrainTrace) -> list[int]:
    """The first clean and the first noisy sample, of those the run has."""
    return [int(idx[0]) for idx in (trace.clean_idx, trace.noisy_idx)
            if len(idx)]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def trace_table(trace: TrainTrace, tracked: list[int]):
    """Header and rows of the plot-ready table: fixed metric columns, then
    one s{sample}_{token} block per tracked sample (1-based labels)."""
    T = trace.T
    header = list(TRACE_COLUMNS)
    for i in tracked:
        header += [f"s{i + 1}_{t + 1}" for t in range(T)]
    rows = []
    for k in range(trace.n_logged):
        row = [int(trace.steps[k]), trace.train_loss[k], trace.train_acc[k],
               trace.train_acc_true[k], trace.test_acc[k],
               trace.lambda_plus[k], trace.lambda_minus[k]]
        for i in tracked:
            row.extend(trace.probs[k, i, :].tolist())
        rows.append(row)
    return header, rows


def _write_trace(path, trace: TrainTrace, tracked: list[int]):
    header, rows = trace_table(trace, tracked)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass(frozen=True)
class RunArtifacts:
    trace_path: str
    summary_path: str
    trace: TrainTrace
    summary: dict


def _summarize(config: ExperimentConfig, trace: TrainTrace) -> dict:
    """The summary of a run; a trace with no logged rows, of a run that
    diverged at step 0, has no final row and an empty theory digest."""
    grok = measure_grokking(trace)
    digest, final = {}, None
    if trace.n_logged:
        checks = [*softmax_bound_scan(trace).checks,
                  loss_derivative_balance(trace)]
        digest = {c.name: c.passed for c in checks}
        final = {
            "step": int(trace.steps[-1]),
            "train_loss": float(trace.train_loss[-1]),
            "train_acc": float(trace.train_acc[-1]),
            "train_acc_true": float(trace.train_acc_true[-1]),
            "test_acc": (None if math.isnan(trace.test_acc[-1])
                         else float(trace.test_acc[-1])),
            "test_loss": (None if math.isnan(trace.test_loss[-1])
                          else float(trace.test_loss[-1])),
        }
    noiseless = config.data.sigma_eps == 0
    return {
        "config": config.to_json(),
        "config_hash": config.config_hash(),
        "snr": None if noiseless else snr(config.data),
        "n_snr2": None if noiseless else config.data.n * snr(config.data) ** 2,
        "regime": None if noiseless else classify_regime(config.data),
        "final": final,
        "tau_fit": grok.tau_fit,
        "tau_gen": grok.tau_gen,
        "theory_digest": digest,
        "diverged_at": trace.diverged_at,
        "divergence": trace.divergence,
    }


def _make_out_dir(path):
    """Create the output directory before anything is computed; a path
    where it cannot be is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc


def run(config: ExperimentConfig, out_dir) -> RunArtifacts:
    """Execute one run and write ``trace.csv`` plus ``summary.json`` into
    ``out_dir``.  On divergence the partial trace and summary are still
    written before the error propagates."""
    _make_out_dir(out_dir)
    trace_path = os.path.join(out_dir, "trace.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    trace = execute(config).trace
    _write_trace(trace_path, trace, _tracked_samples(trace))
    summary = _summarize(config, trace)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts = RunArtifacts(trace_path=str(trace_path),
                             summary_path=str(summary_path),
                             trace=trace, summary=summary)
    if trace.diverged_at is not None:
        err = DivergenceError(trace.divergence)
        err.artifacts = artifacts
        raise err
    return artifacts


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

HEATMAP_COLUMNS = ("d", "mu_norm", "seed", "train_loss", "test_loss",
                   "train_acc", "test_acc")


@dataclass(frozen=True)
class SweepSpec(_Section):
    d_values: tuple[int, ...]
    mu_values: tuple[float, ...]
    seeds: tuple[int, ...]
    base: ExperimentConfig

    def __post_init__(self):
        super().__post_init__()
        if not self.d_values or not self.mu_values or not self.seeds:
            raise ConfigError("sweep grids must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        for d in self.d_values:
            for mu in self.mu_values:
                replace(self.base.data, d=d, mu_norm=mu)  # validates the cell


def _sweep_cell(spec: SweepSpec, di: int, mi: int, si: int) -> dict:
    cfg = replace(
        spec.base,
        data=replace(spec.base.data, d=spec.d_values[di],
                     mu_norm=spec.mu_values[mi]),
        seed=cell_seed(spec.seeds[si], di, mi, si),
    )
    trace = execute(cfg).trace
    row = {"d": spec.d_values[di], "mu_norm": spec.mu_values[mi],
           "seed": spec.seeds[si], "divergence": trace.divergence}
    if trace.diverged_at is not None:
        row.update(train_loss=math.nan, test_loss=math.nan,
                   train_acc=math.nan, test_acc=math.nan)
    else:
        row.update(train_loss=float(trace.train_loss[-1]),
                   test_loss=float(trace.test_loss[-1]),
                   train_acc=float(trace.train_acc[-1]),
                   test_acc=float(trace.test_acc[-1]))
    return row


def sweep(spec: SweepSpec, threads: int = 1, out_dir=None):
    """Run every (d, mu_norm, seed) cell and return the per-cell rows plus a
    seed-averaged table.  Writes ``heatmap.csv`` and ``heatmap_mean.csv``
    when ``out_dir`` is given.  A row also carries its cell's
    ``divergence`` record, None unless the cell diverged, whose metrics
    are then nan; the CSVs leave the record out.  Cells are independent;
    each derives its own seed from (seed, d-index, mu-index, seed-index).

    Cells run largest d first, ties in (mu, seed) order; the rows are
    sorted before they are returned.  A sweep's peak memory is about
    ``threads`` times its largest cell's, which holds W(0) (d²·8 bytes)
    and the held test set (m·T·d·8 bytes): 360 MB at d=5000, m=500.  The
    order matters because the malloc heap keeps what the small cells'
    arrays grew it to: run first, they leave that memory resident under
    the large cells."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if out_dir is not None:
        _make_out_dir(out_dir)
    cells = sorted(((di, mi, si)
                    for di in range(len(spec.d_values))
                    for mi in range(len(spec.mu_values))
                    for si in range(len(spec.seeds))),
                   key=lambda c: -spec.d_values[c[0]])
    # more threads than cores only oversubscribe them
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda c: _sweep_cell(spec, *c), cells))
    else:
        rows = [_sweep_cell(spec, *c) for c in cells]
    rows.sort(key=lambda r: (r["d"], r["mu_norm"], r["seed"]))

    metrics = ("train_loss", "test_loss", "train_acc", "test_acc")
    mean_rows = []
    for d in sorted(spec.d_values):
        for mu in sorted(spec.mu_values):
            group = [r for r in rows if r["d"] == d and r["mu_norm"] == mu]
            mean_rows.append({"d": d, "mu_norm": mu, "seed": "mean",
                              **{m: float(np.mean([r[m] for r in group]))
                                 for m in metrics}})

    if out_dir is not None:
        for name, table in (("heatmap.csv", rows),
                            ("heatmap_mean.csv", mean_rows)):
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(HEATMAP_COLUMNS)
                for r in table:
                    writer.writerow([
                        _fmt(r[c]) if c != "seed" else str(r[c])
                        for c in HEATMAP_COLUMNS])
    return rows, mean_rows


# --------------------------------------------------------------------------
# Check suites
# --------------------------------------------------------------------------

def _random_instance(rng):
    d = 8
    cfg = DataConfig(n=4, T=3, d=d, mu_norm=2.0, sigma_eps=1.0, eta=0.25,
                     rho=0.3, n_weak_same=1)
    signals = make_signals(d, cfg.mu_norm, rng)
    ds = generate_dataset(cfg, signals, rng)
    W = rng.normal(0.0, 0.5, size=(d, d))
    p = rng.normal(0.0, 0.5, size=d)
    nu = rng.normal(0.0, 0.5, size=d)
    return ds, signals, ModelState(W=W, p=p, nu=nu)


def _suite_gradients(config: ExperimentConfig) -> TheoryReport:
    rng = stream(config.seed, "check-gradients")
    worst = 0.0
    for _ in range(5):
        ds, _, state = _random_instance(rng)
        fd_w, fd_p = finite_diff_grad(ds, state, h=1e-5)
        gw, gp = grad_w(ds, state), grad_p(ds, state)
        # floor at the finite-difference resolution for h = 1e-5
        worst = max(worst, float(np.max(rel_err(gw, fd_w, floor=3e-5))),
                    float(np.max(rel_err(gp, fd_p, floor=3e-5))))
    report = TheoryReport()
    report.checks.append(CheckResult(
        "gradient_oracle", passed=worst <= 1e-6,
        measured={"max_rel_err": worst}, threshold=1e-6))
    return report


def _suite_identities(config: ExperimentConfig) -> TheoryReport:
    rng = stream(config.seed, "check-identities")
    report = TheoryReport()
    for trial in range(3):
        ds, signals, state = _random_instance(rng)
        rep = verify_update_identity(state, ds, signals, alpha=0.05)
        worst = max(c.measured["max_rel_err"] for c in rep.checks)
        report.checks.append(CheckResult(
            f"update_identities_trial_{trial}", passed=rep.passed_all,
            measured={"max_rel_err": worst}, threshold=UPDATE_IDENTITY_TOL,
            note=("failing rows: " + ", ".join(rep.failing)
                  if rep.failing else "")))
    return report


def _short_run(config: ExperimentConfig, cap: int):
    """The trace of a run capped at ``cap`` steps, trained without the
    held-out set: no suite that calls this reads the test metrics, and
    the stream independence leaves every other array's bits unchanged.
    A run that diverges raises :class:`DivergenceError`."""
    short = replace(config, train=replace(config.train, test_size=0,
                                          steps=min(config.train.steps, cap)))
    trace = execute(short).trace
    if trace.diverged_at is not None:
        raise DivergenceError(trace.divergence)
    return trace


def _suite_softmax(config: ExperimentConfig) -> TheoryReport:
    return softmax_bound_scan(_short_run(config, 500))


def _build_train_inputs(config: ExperimentConfig):
    """``build_inputs`` without drawing the test set, which the stream
    independence leaves out of every other array."""
    return build_inputs(replace(config, train=replace(config.train,
                                                      test_size=0)))


def _suite_goodrun(config: ExperimentConfig, train_inputs) -> TheoryReport:
    signals, dataset, _, state0 = train_inputs()
    sw, sp = config.resolved_sigmas()
    return good_run_check(dataset, state0, signals, sigma_w=sw, sigma_p=sp)


def _suite_init(config: ExperimentConfig, train_inputs) -> TheoryReport:
    signals, dataset, _, state0 = train_inputs()
    return init_checks(state0, dataset, signals, config.train.alpha)


def _suite_etf(config: ExperimentConfig) -> TheoryReport:
    # three classes and two weak tokens where the config's d and T hold them
    d = min(config.data.d, 256)
    K = min(3, d)
    mc_cfg = MulticlassConfig(n=1, T=config.data.T, d=d, K=K,
                              mu_norm=config.data.mu_norm,
                              sigma_eps=config.data.sigma_eps,
                              eta=min(config.data.eta, 0.4),
                              rho=config.data.rho,
                              n_weak=min(2, config.data.T - 1))
    rng = stream(config.seed, "check-etf")
    mus = make_class_signals(d, K, config.data.mu_norm, rng=rng)
    cos = etf_gradient_check(mc_cfg, mus, mc_samples=20000, rng=rng)
    report = TheoryReport()
    report.checks.append(CheckResult(
        "etf_head_gradient", passed=bool(np.all(cos >= 0.95)),
        measured={"cosines": [float(c) for c in cos]}, threshold=0.95))
    return report


def _suite_glinearity(config: ExperimentConfig) -> TheoryReport:
    # rate constants are steadiest at the 3x near-uniform init scale (norm
    # drift during training stays small relative to the initialization);
    # honor explicitly configured scales
    model = config.model
    if model.sigma_w is None and model.sigma_p is None:
        s = 3.0 * a8_sigma(config.data)
        model = replace(model, sigma_w=s, sigma_p=s)
    trace = _short_run(replace(config, model=model), 4000)
    window = pre_saturation_window(trace)
    try:    # no fit without 2 logged steps in the window and a clean sample
        fit = g_linearity(trace, trace.clean_idx, "Lambda", window).pooled
        slope, r2, note = fit.slope, fit.r2, ""
    except ValueError as exc:
        slope, r2, note = None, None, f"no fit: {exc}"
    return TheoryReport([CheckResult(
        "g_linearity_clean",
        passed=slope is not None and bool(slope > 0 and r2 >= 0.95),
        measured={"slope": slope, "r2": r2, "window": list(window)},
        threshold={"slope": "> 0", "r2": ">= 0.95"}, note=note)])


# Suites that check the config's drawn training inputs; they are called
# with a function returning ``_build_train_inputs(config)``, built once per
# ``run_check_suites`` call.
_INPUT_SUITES = ("goodrun", "init")

CHECK_SUITES = {
    "gradients": _suite_gradients,
    "identities": _suite_identities,
    "softmax": _suite_softmax,
    "goodrun": _suite_goodrun,
    "init": _suite_init,
    "etf": _suite_etf,
    "glinearity": _suite_glinearity,
}


def run_check_suites(config: ExperimentConfig, suites) -> TheoryReport:
    """Run the named check suites against one configuration."""
    names = list(suites)
    if not names:
        raise ConfigError("no check suites selected")
    unknown = [s for s in names if s not in CHECK_SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suites {unknown}; available: {sorted(CHECK_SUITES)}")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise ConfigError(f"suites named more than once: {repeated}")
    report = TheoryReport(config_hash=config.config_hash(), seed=config.seed)
    train_inputs = functools.cache(lambda: _build_train_inputs(config))
    last_reader = max((i for i, s in enumerate(names) if s in _INPUT_SUITES),
                      default=None)
    for i, name in enumerate(names):
        args = (train_inputs,) if name in _INPUT_SUITES else ()
        report.extend(CHECK_SUITES[name](config, *args))
        if i == last_reader:
            train_inputs.cache_clear()
    return report
