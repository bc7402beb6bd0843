"""Diagnostics and empirical checks for the token-selection dynamics.

Everything here is a pure function of model snapshots, datasets, traces or
configurations: attention gaps and their g-transformed linear growth,
one-step update identities for signal/noise attention, softmax
concentration brackets, high-probability ("good run") events at finite
scale, initialization uniformity, regime classification from the
signal-to-noise ratio, grokking times, and the ETF geometry of the head
gradient at zero initialization.  Every check returns :class:`CheckResult`
rows in a :class:`TheoryReport`, with measured values and margins; pass
flags use explicit caller tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DELTA, DataConfig, Dataset, snr as data_snr
from .model import ModelState, loss_derivative
from .multiclass import (MulticlassConfig, _check_mc_samples,
                         head_gradient_estimate)
from .train import TrainTrace, _score_dense, attention_gaps

__all__ = [
    "CheckResult",
    "TheoryReport",
    "Regime",
    "g",
    "rel_err",
    "verify_update_identity",
    "softmax_bound_check",
    "softmax_bound_scan",
    "good_run_check",
    "GLinearityResult",
    "g_linearity",
    "pre_saturation_window",
    "stop_at_window_end",
    "noisy_stage_windows",
    "classify_regime",
    "measure_grokking",
    "etf_gradient_check",
    "init_checks",
    "loss_derivative_balance",
]

# Fixed tolerances and levels of the checks and trace windows below; a
# check reports the one it passes against as its ``threshold``.
UPDATE_IDENTITY_TOL = 1e-9        # max relative error of a one-step identity
SOFTMAX_IDENTITY_TOL = 1e-12      # max relative error of the s_1 rewriting
SATURATION_GAP = 500.0            # |gap| beyond which the bracket skips a row
GOOD_RUN_NORM_RTOL = 0.10         # two-sided band around each norm scale
GOOD_RUN_INNER_C = 5.0            # multiplier on the inner-product caps
# Share of config seeds at which good_run_norm_W_eps holds under
# default_config(): 3205 of seeds 10000-14999.
NORM_W_EPS_HOLD_RATE = 0.641
INIT_S_UNIFORMITY = 0.25          # max_t |s_t(0) - 1/T| * T
INIT_LAMBDA_GAP = 0.5             # max |Lambda(0)|
INIT_GAMMA_GAP = 0.5              # max |Gamma(0)|
INIT_FIRST_STEP_DRIFT = 0.1       # max |delta lambda|, |delta rho|
SATURATION_LEVEL = 0.99           # relevant-token softmax ending the window
NOISY_S1_FLOOR = 0.02             # mean noisy s_1 ending stage 1
NOISY_S2_TAKEOVER = 0.50          # s_2 crossing that starts stage 2
NOISY_S2_SATURATION = 0.99        # s_2 level ending stage 2
FIT_THRESHOLD = 1.0               # training accuracy marking tau_fit
GEN_THRESHOLD = 0.95              # test accuracy marking tau_gen
THETA_BENIGN = 1.0                # n SNR^2 above which a run does not overfit
THETA_HARMFUL = 1.0               # SNR^2 sqrt(d) below which a run is harmful


def rel_err(a, b, floor: float = 1e-12):
    """|a - b| / max(|a|, |b|, floor), elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict
    threshold: dict | float | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed,
                "measured": self.measured, "threshold": self.threshold,
                "note": self.note}


@dataclass
class TheoryReport:
    checks: list[CheckResult] = field(default_factory=list)
    config_hash: str = ""
    seed: int | None = None

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed_all(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def extend(self, other: "TheoryReport"):
        self.checks.extend(other.checks)

    def to_json(self) -> list[dict]:
        out = []
        for c in self.checks:
            row = c.to_json()
            row["config_hash"] = self.config_hash
            row["seed"] = self.seed
            out.append(row)
        return out


# --------------------------------------------------------------------------
# The g-function
# --------------------------------------------------------------------------

def g(x, T: int):
    """Integrated rate law of the attention-gap dynamics:
    g(x) = 2x + 2 sinh(x - log T).  Strictly increasing; g(log T) = 2 log T.
    """
    if T < 2:
        raise ValueError("g requires T >= 2")
    x = np.asarray(x, dtype=float)
    out = 2.0 * x + 2.0 * np.sinh(x - math.log(T))
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# One-step update identities
# --------------------------------------------------------------------------

_UPDATE_ROWS = (
    "update_lambda_plus", "update_lambda_minus", "update_rho",
    "update_p_norm", "update_w_norm_mu_+", "update_w_norm_mu_-",
    "update_w_norm_eps", "update_w_cross_mu", "update_w_cross_mu_+_eps",
    "update_w_cross_mu_-_eps", "update_w_cross_eps_pairs")


def _tracked_rows(dataset: Dataset) -> np.ndarray:
    """A = [mu_+; mu_-; E], E the noise rows in (j, u) order."""
    return np.vstack([dataset.signals.mu_plus, dataset.signals.mu_minus,
                      dataset.noise.reshape(-1, dataset.d)])


def _step_change(state: ModelState, A: np.ndarray, g: np.ndarray,
                 alpha: float):
    """One GD step from ``state`` with gbar ``g``: W1 = W - alpha p g^T,
    p1 = p - alpha W g.  Returns W1, the changes of r = A W^T p and ||p||^2
    (differences of the two states' float products), and the pre-step r,
    ||p||^2, p g^T and W g, which the right-hand sides reuse."""
    gw, gp = np.outer(state.p, g), state.W @ g
    W1 = gw * alpha
    np.subtract(state.W, W1, out=W1)
    p1 = state.p - alpha * gp
    pp = float(state.p @ state.p)
    r0 = A @ (state.W.T @ state.p)
    return W1, (A @ (W1.T @ p1) - r0, float(p1 @ p1) - pp), (r0, pp, gw, gp)


def _update_changes(state: ModelState, dataset: Dataset, alpha: float):
    """One GD step's changes of r = A W^T p, G = (A W^T)(A W^T)^T and
    ||p||^2 over the tracked rows, as ``(lhs, rhs)``: lhs the differences
    of the two states' float products (Delta G formed here, the rest by
    :func:`_step_change`); rhs the interaction terms, inner products with
    c_i = sum_t omega_t x_t, plus the exact alpha^2 terms.  gbar, omega and
    a = -scale come from one :func:`_score_dense` pass."""
    A = _tracked_rows(dataset)
    _, (_, omega, _, scale, _), g = _score_dense(dataset, state)
    W1, (dr, dpp), (r0, pp, gw, gp) = _step_change(state, A, g, alpha)
    B0, B1 = A @ state.W.T, A @ W1.T
    c = np.einsum("it,itd->id", omega, dataset.X)
    Wc = c @ state.W.T
    a = -scale                                                   # (n,)
    s = a @ (c @ A.T)
    Ag = A @ gw.T
    return (dr, B1 @ B1.T - B0 @ B0.T, dpp), (
        alpha * (a @ (Wc @ B0.T)) + alpha * pp * s
        + alpha * alpha * (A @ (gw.T @ gp)),
        alpha * (np.outer(r0, s) + np.outer(s, r0))
        + alpha * alpha * (Ag @ Ag.T),
        2 * alpha * float(a @ (Wc @ state.p))
        + alpha * alpha * float(gp @ gp))


def _update_blocks(r, G, pp):
    """The blocks of (Delta r, Delta G, Delta ||p||^2) that the rows of
    ``_UPDATE_ROWS`` compare, in that order."""
    E = slice(2, None)
    pairs = G[E, E][~np.eye(len(r) - 2, dtype=bool)]
    return (r[0], r[1], r[E], pp, G[0, 0], G[1, 1], np.diag(G)[E], G[0, 1],
            G[E, 0], G[E, 1], pairs)


def verify_update_identity(state: ModelState, dataset: Dataset,
                           alpha: float) -> TheoryReport:
    """Check that one GD step moves every tracked bilinear quantity by its
    interaction-term expression (first order in alpha) plus the exact
    alpha^2 cross term, to relative error ``UPDATE_IDENTITY_TOL``: the
    signal/noise attention (lambda_+1, lambda_-1, every rho_{j,u}),
    ||p||^2, and the squared norms and pairwise inner products of W applied
    to both signals and every noise vector, one row per block of the
    stacked changes of :func:`_update_changes`."""
    lhs, rhs = _update_changes(state, dataset, alpha)
    report = TheoryReport()
    for name, left, right in zip(_UPDATE_ROWS, _update_blocks(*lhs),
                                 _update_blocks(*rhs)):
        err = float(np.max(rel_err(left, right))) if np.size(left) else 0.0
        report.checks.append(CheckResult(
            name=name, passed=err <= UPDATE_IDENTITY_TOL,
            measured={"max_rel_err": err}, threshold=UPDATE_IDENTITY_TOL))
    return report


# --------------------------------------------------------------------------
# Softmax concentration
# --------------------------------------------------------------------------

def softmax_bound_check(probs: np.ndarray, Lambda: np.ndarray) -> TheoryReport:
    """At one state: (a) the exact rewriting of s_1 (1 - s_1) in terms of
    attention gaps, (b) the cosh bracket with the measured gap-ratio
    constant c = c'^3 T / (T - 1), and (c) s_u (1 - s_u) <= s_t (1 - s_t)
    for the best-attended token t.

    Rows whose gaps exceed ``SATURATION_GAP`` in magnitude are skipped by
    the bracket (exp underflow makes both sides zero).  The bracket is
    compared in log space, where neither c nor the cosh overflows.
    """
    T = Lambda.shape[1] + 1
    lhs = probs[:, 0] * probs[:, 1:].sum(axis=1)
    # rhs = sig(L) * sig(-L) with L = log sum_t exp(-Lambda_t), stably;
    # l'(z) = -sig(-z), so the two signs cancel
    neg = -Lambda
    m = neg.max(axis=1, keepdims=True)
    L = (m + np.log(np.exp(neg - m).sum(axis=1, keepdims=True))).ravel()
    rhs = loss_derivative(L) * loss_derivative(-L)
    id_err = float(np.max(rel_err(lhs, rhs, floor=1e-300)))

    gap_range = Lambda.max(axis=1) - Lambda.min(axis=1)
    with np.errstate(over="ignore"):
        cprime = np.exp(gap_range)
    live = np.abs(Lambda).max(axis=1) <= SATURATION_GAP
    log_c = 3.0 * gap_range[live, None] + math.log(T / (T - 1))
    # bound = 1 / (2 + 2 cosh x) and 2 + 2 cosh x = (e^(x/2) + e^(-x/2))^2
    half = 0.5 * (Lambda[live] - math.log(T))
    log_bound = -2.0 * np.logaddexp(half, -half)
    with np.errstate(divide="ignore"):
        log_lhs = np.log(lhs[live, None])      # -inf where s_1 (1 - s_1) = 0
    slack = math.log1p(1e-9)
    ok_upper = log_lhs <= log_c + log_bound + slack
    ok_lower = log_lhs + slack >= log_bound - log_c
    bracket_ok = bool(np.all(ok_upper) and np.all(ok_lower))

    # the best token's s_t (1 - s_t) as s_t * sum_{u != t} s_u, which does
    # not cancel (to 0 when s_t rounds to 1), against the other tokens
    is_top = np.arange(T) == probs.argmax(axis=1)[:, None]
    others = np.where(is_top, 0.0, probs)
    best = probs[is_top] * others.sum(axis=1)
    d2_ok = bool(np.all(others * (1.0 - others)
                        <= best[:, None] * (1 + 1e-12) + 1e-300))

    report = TheoryReport()
    report.checks.append(CheckResult(
        "softmax_identity", passed=id_err <= SOFTMAX_IDENTITY_TOL,
        measured={"max_rel_err": id_err}, threshold=SOFTMAX_IDENTITY_TOL))
    report.checks.append(CheckResult(
        "softmax_bracket", passed=bracket_ok,
        measured={"max_gap_ratio": float(cprime.max()),
                  "skipped_saturated_rows": int(np.sum(~live))},
        threshold="c'^3 T/(T-1) bracket"))
    report.checks.append(CheckResult(
        "softmax_best_token_dominates", passed=d2_ok, measured={}))
    return report


def softmax_bound_scan(trace: TrainTrace) -> TheoryReport:
    """:func:`softmax_bound_check` over every logged row of a trace at
    once: every check is row-wise, so its worst case over the stacked
    (L*n, T) rows is the worst case over the logged steps."""
    L, n, T = trace.probs.shape
    identity, bracket, best = softmax_bound_check(
        trace.probs.reshape(L * n, T),
        trace.Lambda.reshape(L * n, T - 1)).checks
    skipped = bracket.measured["skipped_saturated_rows"]
    return TheoryReport([
        CheckResult("softmax_identity_full_trace", identity.passed,
                    identity.measured, SOFTMAX_IDENTITY_TOL),
        CheckResult("softmax_bracket_full_trace", bracket.passed,
                    {"skipped_saturated_rows": skipped}),
        CheckResult("softmax_best_token_full_trace", best.passed, {}),
    ])


# --------------------------------------------------------------------------
# Good-run events
# --------------------------------------------------------------------------

def good_run_check(dataset: Dataset, init_state: ModelState | None,
                   sigma_w: float = 0.0, sigma_p: float = 0.0) -> TheoryReport:
    """Finite-scale concentration events over one realized dataset and
    initialization: noise-norm bands of relative width
    ``GOOD_RUN_NORM_RTOL`` and inner-product caps scaled by
    ``GOOD_RUN_INNER_C``, one ``good_run_<event>`` row each with the worst
    case over the indexed family in ``measured`` and its cap in
    ``threshold`` (whose ``lo`` is always None).  The events on W(0), p(0)
    and the head are reported only with ``init_state``.

    Events whose natural scale is zero (for instance noise events at
    sigma_eps = 0) are reported as vacuous: they carry no bounds and pass.
    Any other event fails on an inf or NaN value, which measures nothing.
    """
    cfg, signals = dataset.config, dataset.signals
    n, T, d = dataset.n, dataset.T, dataset.d
    sig = cfg.sigma_eps
    mu = cfg.mu_norm
    log_term = math.log(T * n / DELTA)
    report = TheoryReport()
    E = dataset.noise.reshape(n * T, d)

    def event(name, value, hi=None, vacuous=False):
        if vacuous:
            hi = None
        report.checks.append(CheckResult(
            f"good_run_{name}",
            hi is None or (math.isfinite(value) and value <= hi),
            {"measured": value, "vacuous": vacuous}, {"lo": None, "hi": hi}))

    def band(name, values, scale, vacuous=False):
        if vacuous or scale == 0.0:
            event(name, float(np.max(np.abs(values))), vacuous=True)
        else:
            event(name, float(np.max(np.abs(values / scale - 1.0))),
                  GOOD_RUN_NORM_RTOL)

    band("norm_eps", np.linalg.norm(E, axis=1), sig * math.sqrt(d),
         vacuous=(sig == 0))
    if sig == 0:
        event("inner_eps_eps", 0.0, vacuous=True)
    else:
        gram = E @ E.T
        off = gram[~np.eye(n * T, dtype=bool)]
        event("inner_eps_eps", float(np.max(np.abs(off))),
              GOOD_RUN_INNER_C * sig * sig * math.sqrt(d) * log_term)

    if init_state is not None:
        # a W(0) past the float range fails its events, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            W0, p0 = init_state.W, init_state.p
            Wmu_p, Wmu_m = W0 @ signals.mu_plus, W0 @ signals.mu_minus
            WE = E @ W0.T
            band("norm_W_mu_plus", np.linalg.norm(Wmu_p),
                 sigma_w * mu * math.sqrt(d), vacuous=(sigma_w == 0))
            band("norm_W_mu_minus", np.linalg.norm(Wmu_m),
                 sigma_w * mu * math.sqrt(d), vacuous=(sigma_w == 0))
            band("norm_W_eps", np.linalg.norm(WE, axis=1), sigma_w * sig * d,
                 vacuous=(sigma_w == 0 or sig == 0))
            report.checks[-1].note = (
                f"expected to hold at {NORM_W_EPS_HOLD_RATE} of config seeds "
                "at the default config; a failure alone is not a defect")
            band("norm_p", np.linalg.norm(p0), sigma_p * math.sqrt(d),
                 vacuous=(sigma_p == 0))
            sw2, vac_w = sigma_w * sigma_w, sigma_w == 0
            event("inner_Wmu_Wmu", abs(float(Wmu_p @ Wmu_m)),
                  GOOD_RUN_INNER_C * sw2 * mu * mu * math.sqrt(d) * log_term,
                  vacuous=vac_w)
            event("inner_Wmu_Weps",
                  float(np.max(np.abs(np.concatenate(
                      [WE @ Wmu_p, WE @ Wmu_m])))) if sig > 0 else 0.0,
                  GOOD_RUN_INNER_C * sw2 * sig * mu * d * log_term,
                  vacuous=vac_w or sig == 0)
            if sig > 0 and not vac_w:
                gw = WE @ WE.T
                event("inner_Weps_Weps",
                      float(np.max(np.abs(gw[~np.eye(n * T, dtype=bool)]))),
                      GOOD_RUN_INNER_C * sw2 * sig * sig * d ** 1.5 * log_term)
            else:
                event("inner_Weps_Weps", 0.0, vacuous=True)
            event("inner_Wmu_p",
                  float(np.max(np.abs([Wmu_p @ p0, Wmu_m @ p0]))),
                  GOOD_RUN_INNER_C * sigma_w * sigma_p * mu * math.sqrt(d)
                  * log_term,
                  vacuous=vac_w or sigma_p == 0)
            event("inner_Weps_p",
                  float(np.max(np.abs(WE @ p0))) if sig > 0 else 0.0,
                  GOOD_RUN_INNER_C * sigma_w * sigma_p * sig * d * log_term,
                  vacuous=vac_w or sigma_p == 0 or sig == 0)

    if sig == 0:
        event("inner_mu_eps", 0.0, vacuous=True)
        event("inner_nu_eps", 0.0, vacuous=True)
    else:
        worst_mu = float(np.max(np.abs(
            np.concatenate([E @ signals.mu_plus, E @ signals.mu_minus]))))
        event("inner_mu_eps", worst_mu,
              GOOD_RUN_INNER_C * sig * mu * math.sqrt(log_term))
        if init_state is not None:
            nu_norm = float(np.linalg.norm(init_state.nu))
            event("inner_nu_eps", float(np.max(np.abs(E @ init_state.nu))),
                  GOOD_RUN_INNER_C * sig * nu_norm * math.sqrt(log_term),
                  vacuous=(nu_norm == 0))

    return report


# --------------------------------------------------------------------------
# g-linearity and trace-level measurements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesFit:
    slope: float
    intercept: float
    r2: float
    degenerate: bool = False


@dataclass(frozen=True)
class GLinearityResult:
    pooled: SeriesFit
    per_series: list[SeriesFit]


def _ols(x: np.ndarray, y: np.ndarray) -> SeriesFit:
    if len(x) < 2:
        raise ValueError("need at least 2 points for a line fit")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sst = float(((y - ym) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("window contains a single distinct step")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    if sst == 0.0:
        return SeriesFit(slope=0.0, intercept=ym, r2=math.nan, degenerate=True)
    ssr = float(((y - (intercept + slope * x)) ** 2).sum())
    return SeriesFit(slope=slope, intercept=intercept, r2=1.0 - ssr / sst)


def g_linearity(trace: TrainTrace, sample_indices, quantity: str,
                window: tuple[int, int]) -> GLinearityResult:
    """Least-squares fit of g(attention gap) against the step index.

    ``quantity`` selects the gap family: "Lambda" (token 1 against every
    other token) or "Gamma" (token 2 against tokens 3..T).

    The pooled fit targets the common rate law: it fits the mean of the
    selected series, which measures linearity in time without being diluted
    by the constant-factor slope spread between samples and tokens
    (per-series fits are returned alongside).
    """
    samples = np.asarray(sample_indices, dtype=int)
    lo, hi = window
    mask = (trace.steps >= lo) & (trace.steps <= hi)
    if mask.sum() < 2:
        raise ValueError(f"window {window} selects fewer than 2 logged points")
    x = trace.steps[mask].astype(float)
    T = trace.T
    if quantity == "Lambda":
        vals = trace.Lambda[np.ix_(mask, samples)]
    elif quantity == "Gamma":
        vals = trace.Gamma[np.ix_(mask, samples)][:, :, 1:]
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    gv = g(vals, T)
    series = gv.reshape(len(x), -1)
    if series.shape[1] == 0:
        raise ValueError("no gap series selected (empty samples or T too small)")
    fits = [_ols(x, series[:, k]) for k in range(series.shape[1])]
    return GLinearityResult(pooled=_ols(x, series.mean(axis=1)),
                            per_series=fits)


def _window_end(s1_max: np.ndarray) -> int | None:
    """The logged row ending the pre-saturation window, given each row's
    largest relevant-token softmax: the first row above
    ``SATURATION_LEVEL``.  None when no row is, or when row 0 or 1 already
    is, which would leave the window no step after its start: the window
    then runs to the last row."""
    crossed = np.flatnonzero(s1_max > SATURATION_LEVEL)
    return int(crossed[0]) if len(crossed) and crossed[0] >= 2 else None


def pre_saturation_window(trace: TrainTrace) -> tuple[int, int]:
    """From the first logged step after 0 until the relevant-token softmax
    of any sample first exceeds ``SATURATION_LEVEL`` (the dynamics saturate
    beyond); see :func:`_window_end`."""
    start = int(trace.steps[1]) if trace.n_logged > 1 else int(trace.steps[0])
    end = _window_end(trace.probs[:, :, 0].max(axis=1))
    return start, int(trace.steps[-1 if end is None else end])


def stop_at_window_end():
    """A :func:`train` ``until`` predicate that ends the run after the row
    at which :func:`pre_saturation_window` ends its window, so that the
    window and every row in it are those of the whole run.  A run whose
    window runs to its last row is not stopped."""
    s1_max = []

    def until(k, probs):
        s1_max.append(probs[:, 0].max())
        return _window_end(np.array(s1_max)) == k
    return until


def noisy_stage_windows(trace: TrainTrace) -> tuple[tuple[int, int],
                                                   tuple[int, int]]:
    """Empirical stage split for noisy samples.

    Stage 1 is the relevant-token suppression phase: it starts where the
    mean noisy s_1 peaks (at moderate SNR the shared signal growth lifts s_1
    first) and ends when the mean drops below ``NOISY_S1_FLOOR`` (suppression
    exhausted).  Stage 2 covers the confusing-token takeover: from the last
    crossing of ``NOISY_S2_TAKEOVER`` among samples that ever cross it, to
    their saturation at ``NOISY_S2_SATURATION``.  Returns (early, late) in
    raw steps.
    """
    noisy = trace.noisy_idx
    if len(noisy) == 0:
        raise ValueError("trace has no noisy samples")
    L = trace.n_logged
    s1 = trace.probs[:, noisy, 0].mean(axis=1)
    s2 = trace.probs[:, noisy, 1]
    onset = int(s1.argmax())
    below = np.nonzero(s1[onset:] < NOISY_S1_FLOOR)[0]
    floor_idx = onset + int(below[0]) if len(below) else L - 1
    onset = min(onset, L - 2)
    if floor_idx <= onset:
        floor_idx = min(onset + 1, L - 1)
    early = (int(trace.steps[onset]), int(trace.steps[floor_idx]))

    hit = s2 >= NOISY_S2_TAKEOVER
    crosses = hit.any(axis=0)
    if crosses.any():
        # argmax finds each crossing sample's first crossing
        late_start = min(int(hit[:, crosses].argmax(axis=0).max()), L - 2)
        sat = np.nonzero(s2[:, crosses].min(axis=1) >= NOISY_S2_SATURATION)[0]
        late_end = int(sat[0]) if len(sat) else L - 1
        if late_end <= late_start:
            late_end = L - 1
    else:
        late_start, late_end = max(floor_idx, L - 2), L - 1
    late = (int(trace.steps[late_start]), int(trace.steps[late_end]))
    return early, late


class Regime:
    HARMFUL = "harmful"
    BENIGN = "benign"
    NOT_OVERFITTING = "not-overfitting"


def classify_regime(config: DataConfig) -> str:
    """Advisory regime from the signal-to-noise ratio.

    Harmful when SNR^2 sqrt(d) < ``THETA_HARMFUL`` (even noise-noise
    overlaps drown the signal); otherwise not-overfitting when n SNR^2 >
    ``THETA_BENIGN`` (signal learning dominates); benign in between.  The
    two levels stand in for the paper's unspecified asymptotic constants.
    """
    s2 = data_snr(config) ** 2
    if s2 * math.sqrt(config.d) < THETA_HARMFUL:
        return Regime.HARMFUL
    if config.n * s2 > THETA_BENIGN:
        return Regime.NOT_OVERFITTING
    return Regime.BENIGN


@dataclass(frozen=True)
class GrokkingTimes:
    tau_fit: int | None
    tau_gen: int | None


def measure_grokking(trace: TrainTrace) -> GrokkingTimes:
    """First logged steps at which training accuracy (against the noisy
    labels) reaches ``FIT_THRESHOLD`` and test accuracy ``GEN_THRESHOLD``;
    None if never."""
    fit_hits = np.nonzero(trace.train_acc >= FIT_THRESHOLD)[0]
    gen_hits = np.nonzero(trace.test_acc >= GEN_THRESHOLD)[0]
    return GrokkingTimes(
        tau_fit=int(trace.steps[fit_hits[0]]) if len(fit_hits) else None,
        tau_gen=int(trace.steps[gen_hits[0]]) if len(gen_hits) else None,
    )


def etf_gradient_check(config: MulticlassConfig, mus: np.ndarray,
                       mc_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Cosine similarity between the Monte Carlo head-gradient direction at
    zero initialization and the centered class signal mu_k - mean(mu), one
    entry per class.  Label noise rescales but does not rotate the target.
    """
    _check_mc_samples(mc_samples, 1000)
    est = head_gradient_estimate(config, mus, mc_samples, rng)   # (d, K)
    target = mus - mus.mean(axis=0, keepdims=True)               # (K, d)
    cos = np.empty(config.K)
    for k in range(config.K):
        e, t = est[:, k], target[k]
        cos[k] = float(e @ t / (np.linalg.norm(e) * np.linalg.norm(t)))
    return cos


def init_checks(state0: ModelState, dataset: Dataset,
                alpha: float) -> TheoryReport:
    """Near-uniform softmax and vanishing attention gaps at initialization,
    plus smallness of the first gradient step's attention drift: the
    lambda_+/- and rho blocks of its Delta r (:func:`_step_change`), formed
    alone from the one :func:`_score_dense` pass that gives the softmax and
    the gaps."""
    T = dataset.T
    u, (probs, *_), g = _score_dense(dataset, state0)
    s_dev = float(np.max(np.abs(probs - 1.0 / T)) * T)
    lam_gap, gam_gap = (float(np.max(np.abs(gaps)))
                        for gaps in attention_gaps(u))
    # Delta r can overflow where the scores did not: inf or NaN, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        dr = _step_change(state0, _tracked_rows(dataset), g, alpha)[1][0]
    dlam, drho = (float(np.max(np.abs(block))) for block in (dr[:2], dr[2:]))
    return TheoryReport([
        CheckResult("init_softmax_uniformity", s_dev <= INIT_S_UNIFORMITY,
                    {"max_scaled_deviation": s_dev}, INIT_S_UNIFORMITY),
        CheckResult("init_lambda_gap", lam_gap <= INIT_LAMBDA_GAP,
                    {"max_abs": lam_gap}, INIT_LAMBDA_GAP),
        CheckResult("init_gamma_gap", gam_gap <= INIT_GAMMA_GAP,
                    {"max_abs": gam_gap}, INIT_GAMMA_GAP),
        CheckResult("init_first_step_drift",
                    max(dlam, drho) <= INIT_FIRST_STEP_DRIFT,
                    {"max_dlambda": dlam, "max_drho": drho},
                    INIT_FIRST_STEP_DRIFT),
    ])


def loss_derivative_balance(trace: TrainTrace) -> CheckResult:
    """The per-sample loss derivatives stay within the constant factor
    implied by the largest observed |f|: max|l'| / min|l'| is bounded by
    (1 + e^c) / (1 + e^{-c}) = e^c with c = max |output| over the run.

    Compared in log space, log|l'(z)| = -log(1 + e^z), so that nothing
    overflows at large c.  The logs carry rounding that grows with c, so
    the slack is 1e-12 * max(1, c)."""
    z = trace.y_train[None, :] * trace.outputs
    log_lp = -np.logaddexp(0.0, z)
    log_ratio = float(np.max(log_lp.max(axis=1) - log_lp.min(axis=1)))
    c = float(np.max(np.abs(trace.outputs)))
    return CheckResult(
        "loss_derivative_balance",
        passed=log_ratio <= c + 1e-12 * max(1.0, c),
        measured={"max_log_ratio": log_ratio, "max_abs_output": c},
        threshold=c)
