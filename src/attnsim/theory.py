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

from .data import DataConfig, Dataset, SignalBasis, snr as data_snr
from .model import (ModelState, _attend, _token_scores, loss_derivative,
                    softmax)
from .multiclass import (MulticlassConfig, _check_mc_samples,
                         head_gradient_estimate)
from .train import TrainTrace, attention_gaps, gd_step, grad_p, grad_w

__all__ = [
    "CheckResult",
    "TheoryReport",
    "AttentionDiagnostics",
    "InteractionTerms",
    "Regime",
    "g",
    "rel_err",
    "compute_diagnostics",
    "verify_update_identity",
    "softmax_bound_check",
    "softmax_bound_scan",
    "good_run_check",
    "GLinearityResult",
    "g_linearity",
    "pre_saturation_window",
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
GOOD_RUN_DELTA = 0.01             # failure probability inside log terms
INIT_S_UNIFORMITY = 0.25          # max_t |s_t(0) - 1/T| * T
INIT_LAMBDA_GAP = 0.5             # max |Lambda(0)|
INIT_GAMMA_GAP = 0.5              # max |Gamma(0)|
INIT_FIRST_STEP_DRIFT = 0.1       # max |delta lambda|, |delta rho|
SATURATION_LEVEL = 0.99           # relevant-token softmax ending the window
NOISY_S1_FLOOR = 0.02             # mean noisy s_1 ending stage 1
NOISY_S2_TAKEOVER = 0.50          # s_2 crossing that starts stage 2
NOISY_S2_SATURATION = 0.99        # s_2 level ending stage 2


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


def _bounds_check(name: str, value: float, lo: float | None,
                  hi: float | None, measured: dict,
                  note: str = "") -> CheckResult:
    """Passes unless ``value`` lies below ``lo`` or above ``hi``; a bound
    of None is absent."""
    passed = not ((lo is not None and value < lo)
                  or (hi is not None and value > hi))
    return CheckResult(name, passed, measured, {"lo": lo, "hi": hi}, note)


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
# The g-function and attention diagnostics
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


@dataclass(frozen=True)
class AttentionDiagnostics:
    """Signal/noise attention and both attention-gap families at one state.

    lambda_plus/minus: <W mu_k, p>.  rho_attn[i, t]: <W eps_t^(i), p>.
    Lambda and Gamma: the gap families of :func:`attention_gaps`.
    """

    lambda_plus: float
    lambda_minus: float
    rho_attn: np.ndarray
    Lambda: np.ndarray
    Gamma: np.ndarray
    attn_scores: np.ndarray


def compute_diagnostics(state: ModelState, dataset: Dataset,
                        signals: SignalBasis) -> AttentionDiagnostics:
    n, T, d = dataset.X.shape
    q = state.W.T @ state.p
    u = (dataset.X.reshape(n * T, d) @ q).reshape(n, T)
    rho_attn = (dataset.noise.reshape(n * T, d) @ q).reshape(n, T)
    Lambda, Gamma = attention_gaps(u)
    return AttentionDiagnostics(
        lambda_plus=float(signals.mu_plus @ q),
        lambda_minus=float(signals.mu_minus @ q),
        rho_attn=rho_attn,
        Lambda=Lambda,
        Gamma=Gamma,
        attn_scores=u,
    )


class InteractionTerms:
    """Softmax- and score-weighted inner products driving the updates.

    All seven families reduce to inner products with the per-sample
    aggregated direction c_i = sum_t s_t (gamma_t - f_i) x_t:

        I_{i,+-}    = <c_i, mu_+->          I_{i,j,u}   = <c_i, eps_u^(j)>
        Iw_{i,+-}   = <W c_i, W mu_+->      Iw_{i,j,u}  = <W c_i, W eps_u^(j)>
        Ip_i        = <W c_i, p>

    The signal and p families are attributes; the noise-indexed families
    are ``c @ eps`` and ``Wc @ (W eps)``, which :func:`verify_update_identity`
    forms for every (j, u) at once.
    """

    def __init__(self, state: ModelState, dataset: Dataset,
                 signals: SignalBasis):
        u, gamma = _token_scores(dataset.X, state.W.T @ state.p, state.nu)
        probs, out, _ = _attend(u, gamma)
        self.omega = probs * (gamma - out[:, None])
        self.outputs = out
        self.probs = probs
        self.c = np.einsum("it,itd->id", self.omega, dataset.X)
        self.Wc = self.c @ state.W.T
        self.I_plus = self.c @ signals.mu_plus
        self.I_minus = self.c @ signals.mu_minus
        self.Iw_plus = self.Wc @ (state.W @ signals.mu_plus)
        self.Iw_minus = self.Wc @ (state.W @ signals.mu_minus)
        self.I_p = self.Wc @ state.p


# --------------------------------------------------------------------------
# One-step update identities
# --------------------------------------------------------------------------

def verify_update_identity(state: ModelState, dataset: Dataset,
                           signals: SignalBasis, alpha: float) -> TheoryReport:
    """Check that one GD step moves every tracked bilinear quantity by its
    interaction-term expression (first order in alpha) plus the exact
    alpha^2 cross term, to relative error ``UPDATE_IDENTITY_TOL``.

    Covers the signal/noise attention updates (lambda_+1, lambda_-1, every
    rho_{j,u}), the squared norm of p, and the squared norms / pairwise
    inner products of W applied to both signals and every noise vector.
    """
    n, T, d = dataset.X.shape
    inter = InteractionTerms(state, dataset, signals)
    y = dataset.y_train
    lp = loss_derivative(y * inter.outputs)
    a_coef = (-lp) * y / n                     # (n,)
    gw = grad_w(dataset, state)
    gp = grad_p(dataset, state)
    new = gd_step(state, dataset, alpha)

    pp = float(state.p @ state.p)
    E = dataset.noise.reshape(n * T, d)         # noise vectors, row-major (j,u)
    I_eps = (inter.c @ E.T)                     # (n, nT)
    WE0 = E @ state.W.T
    WE1 = E @ new.W.T
    Iw_eps = inter.Wc @ WE0.T                   # (n, nT)
    q0 = state.W.T @ state.p
    q1 = new.W.T @ new.p
    cross = gw.T @ gp                           # (d,) since gw is rank one

    report = TheoryReport()

    def add(name, lhs, rhs):
        err = float(np.max(rel_err(lhs, rhs))) if np.size(lhs) else 0.0
        report.checks.append(CheckResult(
            name=name, passed=err <= UPDATE_IDENTITY_TOL,
            measured={"max_rel_err": err}, threshold=UPDATE_IDENTITY_TOL))

    # signal and noise attention
    for nm, mu, Iw, I in (("update_lambda_plus", signals.mu_plus,
                           inter.Iw_plus, inter.I_plus),
                          ("update_lambda_minus", signals.mu_minus,
                           inter.Iw_minus, inter.I_minus)):
        lhs = float(mu @ q1) - float(mu @ q0)
        rhs = alpha * float(a_coef @ (Iw + pp * I)) \
            + alpha * alpha * float(mu @ cross)
        add(nm, lhs, rhs)

    lhs_rho = E @ q1 - E @ q0                                   # (nT,)
    rhs_rho = alpha * (a_coef @ (Iw_eps + pp * I_eps)) \
        + alpha * alpha * (E @ cross)
    add("update_rho", lhs_rho, rhs_rho)

    # squared norm of p
    lhs = float(new.p @ new.p) - pp
    rhs = 2 * alpha * float(a_coef @ inter.I_p) \
        + alpha * alpha * float(gp @ gp)
    add("update_p_norm", lhs, rhs)

    # norms and inner products through W
    lam = {"+": float(signals.mu_plus @ q0), "-": float(signals.mu_minus @ q0)}
    Wmu0 = {"+": state.W @ signals.mu_plus, "-": state.W @ signals.mu_minus}
    Wmu1 = {"+": new.W @ signals.mu_plus, "-": new.W @ signals.mu_minus}
    gwmu = {"+": gw @ signals.mu_plus, "-": gw @ signals.mu_minus}
    I_sig = {"+": inter.I_plus, "-": inter.I_minus}

    for k in ("+", "-"):
        lhs = float(Wmu1[k] @ Wmu1[k]) - float(Wmu0[k] @ Wmu0[k])
        rhs = 2 * alpha * lam[k] * float(a_coef @ I_sig[k]) \
            + alpha * alpha * float(gwmu[k] @ gwmu[k])
        add(f"update_w_norm_mu_{k}", lhs, rhs)

    rho0 = E @ q0                                               # (nT,)
    gwE = E @ gw.T                                              # (nT, d)
    lhs_wn = np.einsum("md,md->m", WE1, WE1) - np.einsum("md,md->m", WE0, WE0)
    rhs_wn = 2 * alpha * rho0 * (a_coef @ I_eps) \
        + alpha * alpha * np.einsum("md,md->m", gwE, gwE)
    add("update_w_norm_eps", lhs_wn, rhs_wn)

    lhs = float(Wmu1["+"] @ Wmu1["-"]) - float(Wmu0["+"] @ Wmu0["-"])
    rhs = alpha * float(a_coef @ (I_sig["-"] * lam["+"] + I_sig["+"] * lam["-"])) \
        + alpha * alpha * float(gwmu["+"] @ gwmu["-"])
    add("update_w_cross_mu", lhs, rhs)

    for k in ("+", "-"):
        lhs_c = WE1 @ Wmu1[k] - WE0 @ Wmu0[k]                   # (nT,)
        rhs_c = alpha * ((a_coef @ I_eps) * lam[k]
                         + float(a_coef @ I_sig[k]) * rho0) \
            + alpha * alpha * (gwE @ gwmu[k])
        add(f"update_w_cross_mu_{k}_eps", lhs_c, rhs_c)

    # pairwise noise-noise inner products
    lhs_pair = WE1 @ WE1.T - WE0 @ WE0.T                        # (nT, nT)
    s_vec = a_coef @ I_eps                                      # (nT,)
    rhs_pair = np.outer(rho0, s_vec) + np.outer(s_vec, rho0)
    rhs_pair *= alpha
    rhs_pair += alpha * alpha * (gwE @ gwE.T)
    mask = ~np.eye(n * T, dtype=bool)
    add("update_w_cross_eps_pairs", lhs_pair[mask], rhs_pair[mask])

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

ALL_GOOD_RUN_GROUPS = ("noise_norms", "noise_inner", "init_norms",
                       "init_inner", "signal_noise_inner", "counts")


def good_run_check(dataset: Dataset, init_state: ModelState | None,
                   signals: SignalBasis, sigma_w: float = 0.0,
                   sigma_p: float = 0.0,
                   groups=ALL_GOOD_RUN_GROUPS) -> TheoryReport:
    """Finite-scale concentration events over one realized dataset and
    initialization: noise-norm bands of relative width
    ``GOOD_RUN_NORM_RTOL``, inner-product caps scaled by
    ``GOOD_RUN_INNER_C``, and clean/noisy class-count brackets, one
    ``good_run_<event>`` row each with the worst case over the indexed
    family in ``measured`` and its band in ``threshold``.

    Events whose natural scale is zero (for instance noise events at
    sigma_eps = 0) are reported as vacuous: they carry no bounds and pass.
    """
    cfg = dataset.config
    n, T, d = dataset.X.shape
    sig = cfg.sigma_eps
    mu = cfg.mu_norm
    log_term = math.log(T * n / GOOD_RUN_DELTA)
    report = TheoryReport()
    E = dataset.noise.reshape(n * T, d)

    def event(name, value, hi=None, lo=None, vacuous=False):
        if vacuous:
            lo = hi = None
        report.checks.append(_bounds_check(
            f"good_run_{name}", value, lo, hi,
            {"measured": value, "vacuous": vacuous}))

    def band(name, values, scale, vacuous=False):
        if vacuous or scale == 0.0:
            event(name, float(np.max(np.abs(values))), vacuous=True)
        else:
            event(name, float(np.max(np.abs(values / scale - 1.0))),
                  GOOD_RUN_NORM_RTOL)

    if "noise_norms" in groups:
        band("norm_eps", np.linalg.norm(E, axis=1), sig * math.sqrt(d),
             vacuous=(sig == 0))

    if "noise_inner" in groups:
        if sig == 0:
            event("inner_eps_eps", 0.0, vacuous=True)
        else:
            gram = E @ E.T
            off = gram[~np.eye(n * T, dtype=bool)]
            event("inner_eps_eps", float(np.max(np.abs(off))),
                  GOOD_RUN_INNER_C * sig * sig * math.sqrt(d) * log_term)

    need_W = init_state is not None and any(
        grp in groups for grp in ("init_norms", "init_inner"))
    if need_W:
        W0, p0 = init_state.W, init_state.p
        Wmu_p = W0 @ signals.mu_plus
        Wmu_m = W0 @ signals.mu_minus
        WE = E @ W0.T
        if "init_norms" in groups:
            band("norm_W_mu_plus", np.linalg.norm(Wmu_p),
                 sigma_w * mu * math.sqrt(d), vacuous=(sigma_w == 0))
            band("norm_W_mu_minus", np.linalg.norm(Wmu_m),
                 sigma_w * mu * math.sqrt(d), vacuous=(sigma_w == 0))
            band("norm_W_eps", np.linalg.norm(WE, axis=1), sigma_w * sig * d,
                 vacuous=(sigma_w == 0 or sig == 0))
            band("norm_p", np.linalg.norm(p0), sigma_p * math.sqrt(d),
                 vacuous=(sigma_p == 0))
        if "init_inner" in groups:
            sw2 = sigma_w * sigma_w
            vac_w = sigma_w == 0
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
                  max(abs(float(Wmu_p @ p0)), abs(float(Wmu_m @ p0))),
                  GOOD_RUN_INNER_C * sigma_w * sigma_p * mu * math.sqrt(d)
                  * log_term,
                  vacuous=vac_w or sigma_p == 0)
            event("inner_Weps_p",
                  float(np.max(np.abs(WE @ p0))) if sig > 0 else 0.0,
                  GOOD_RUN_INNER_C * sigma_w * sigma_p * sig * d * log_term,
                  vacuous=vac_w or sigma_p == 0 or sig == 0)

    if "signal_noise_inner" in groups:
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

    if "counts" in groups:
        eta = cfg.eta
        for name, count in (("count_clean_pos", len(dataset.clean_pos)),
                            ("count_clean_neg", len(dataset.clean_neg))):
            event(name, float(count), lo=(2 - 3 * eta) * n / 4,
                  hi=(2 - eta) * n / 4)
        for name, count in (("count_noisy_pos", len(dataset.noisy_pos)),
                            ("count_noisy_neg", len(dataset.noisy_neg))):
            event(name, float(count), lo=eta * n / 4, hi=3 * eta * n / 4)

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
    n_points: int
    window: tuple[int, int]


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
    other token), "Gamma" (token 2 against tokens 3..T), or
    "Gamma_relevant_shifted" (token 2 against token 1, shifted down by
    log(1/rho) so the comparison is on the weak-signal scale).

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
    elif quantity == "Gamma_relevant_shifted":
        rho = trace.meta["rho"]
        vals = trace.Gamma[np.ix_(mask, samples)][:, :, :1] - math.log(1.0 / rho)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    gv = g(vals, T)
    series = gv.reshape(len(x), -1)
    if series.shape[1] == 0:
        raise ValueError("no gap series selected (empty samples or T too small)")
    fits = [_ols(x, series[:, k]) for k in range(series.shape[1])]
    return GLinearityResult(pooled=_ols(x, series.mean(axis=1)),
                            per_series=fits,
                            n_points=int(mask.sum()), window=(lo, hi))


def pre_saturation_window(trace: TrainTrace) -> tuple[int, int]:
    """From the first logged step after 0 until the relevant-token softmax
    of any sample first exceeds ``SATURATION_LEVEL`` (the dynamics saturate
    beyond)."""
    s1_max = trace.probs[:, :, 0].max(axis=1)
    start = int(trace.steps[1]) if trace.n_logged > 1 else int(trace.steps[0])
    crossed = np.nonzero(s1_max > SATURATION_LEVEL)[0]
    end = int(trace.steps[crossed[0]]) if len(crossed) else int(trace.steps[-1])
    if end <= start:
        end = int(trace.steps[-1])
    return start, end


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

    takeover = []
    for j in range(len(noisy)):
        hit = np.nonzero(s2[:, j] >= NOISY_S2_TAKEOVER)[0]
        if len(hit):
            takeover.append(int(hit[0]))
    if takeover:
        late_start = min(max(takeover), L - 2)
        crossed = s2[:, [j for j in range(len(noisy))
                         if len(np.nonzero(s2[:, j] >= NOISY_S2_TAKEOVER)[0])]]
        sat = np.nonzero(crossed.min(axis=1) >= NOISY_S2_SATURATION)[0]
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


def classify_regime(config: DataConfig, n: int | None = None,
                    theta_benign: float = 1.0,
                    theta_harmful: float = 1.0) -> str:
    """Advisory regime from the signal-to-noise ratio.

    Harmful when SNR^2 sqrt(d) < theta_harmful (even noise-noise overlaps
    drown the signal); otherwise not-overfitting when n SNR^2 > theta_benign
    (signal learning dominates); benign in between.  The thresholds stand in
    for asymptotic constants and are deliberately exposed.
    """
    if n is None:
        n = config.n
    s2 = data_snr(config) ** 2
    if s2 * math.sqrt(config.d) < theta_harmful:
        return Regime.HARMFUL
    if n * s2 > theta_benign:
        return Regime.NOT_OVERFITTING
    return Regime.BENIGN


@dataclass(frozen=True)
class GrokkingTimes:
    tau_fit: int | None
    tau_gen: int | None


def measure_grokking(trace: TrainTrace, fit_threshold: float,
                     gen_threshold: float) -> GrokkingTimes:
    """First logged steps at which training accuracy (against the noisy
    labels) and test accuracy cross their thresholds; None if never."""
    for name, v in (("fit_threshold", fit_threshold),
                    ("gen_threshold", gen_threshold)):
        if not (0.0 < v <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1]")
    fit_hits = np.nonzero(trace.train_acc >= fit_threshold)[0]
    gen_hits = np.nonzero(trace.test_acc >= gen_threshold)[0]
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


def init_checks(state0: ModelState, dataset: Dataset, signals: SignalBasis,
                alpha: float) -> TheoryReport:
    """Near-uniform softmax and vanishing attention gaps at initialization,
    plus smallness of the first gradient step's attention drift."""
    T = dataset.T
    d0 = compute_diagnostics(state0, dataset, signals)
    probs = softmax(d0.attn_scores, axis=-1)
    s_dev = float(np.max(np.abs(probs - 1.0 / T)) * T)
    lam_gap = float(np.max(np.abs(d0.Lambda)))
    gam_gap = float(np.max(np.abs(d0.Gamma)))
    d1 = compute_diagnostics(gd_step(state0, dataset, alpha), dataset, signals)
    dlam = max(abs(d1.lambda_plus - d0.lambda_plus),
               abs(d1.lambda_minus - d0.lambda_minus))
    drho = float(np.max(np.abs(d1.rho_attn - d0.rho_attn)))
    report = TheoryReport()
    report.checks.append(CheckResult(
        "init_softmax_uniformity", s_dev <= INIT_S_UNIFORMITY,
        {"max_scaled_deviation": s_dev}, INIT_S_UNIFORMITY))
    report.checks.append(CheckResult(
        "init_lambda_gap", lam_gap <= INIT_LAMBDA_GAP,
        {"max_abs": lam_gap}, INIT_LAMBDA_GAP))
    report.checks.append(CheckResult(
        "init_gamma_gap", gam_gap <= INIT_GAMMA_GAP,
        {"max_abs": gam_gap}, INIT_GAMMA_GAP))
    report.checks.append(CheckResult(
        "init_first_step_drift", max(dlam, drho) <= INIT_FIRST_STEP_DRIFT,
        {"max_dlambda": float(dlam), "max_drho": drho},
        INIT_FIRST_STEP_DRIFT))
    return report


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
