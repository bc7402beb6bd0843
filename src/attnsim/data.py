"""Synthetic signal/noise sequence data with label flips.

Each sequence of T tokens carries one full-strength class signal (token 1),
one confusing weak signal aligned with the opposite class (token 2), a
configurable number of weak same-class tokens, and pure-noise tokens.
Training labels equal the true labels flipped independently with a fixed
probability.  Token indices are 1-based in all reports and docs; array row
``t - 1`` holds token ``t``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Role",
    "SignalBasis",
    "DataConfig",
    "Sample",
    "Dataset",
    "ConfigError",
    "make_signals",
    "sample_from_p_star",
    "generate_dataset",
    "snr",
    "a8_sigma",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
]


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


class Role(str, Enum):
    RELEVANT = "relevant"
    WEAK_SAME = "weak_same"
    WEAK_CONFUSING = "weak_confusing"
    IRRELEVANT = "irrelevant"


@dataclass(frozen=True)
class SignalBasis:
    """Fixed pair of equal-norm, orthogonal class signal vectors."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray

    @property
    def d(self) -> int:
        return self.mu_plus.shape[0]

    @property
    def mu_norm(self) -> float:
        return float(np.linalg.norm(self.mu_plus))

    def signal_for(self, label: int) -> np.ndarray:
        return self.mu_plus if label > 0 else self.mu_minus


def make_signals(d: int, mu_norm: float, mode: str = "random_orthogonal",
                 rng: np.random.Generator | None = None) -> SignalBasis:
    """Construct the two class signals, either axis-aligned or as a random
    orthonormal pair scaled to ``mu_norm``."""
    if d < 2:
        raise ValueError(f"signal construction needs d >= 2, got d={d}")
    if mu_norm <= 0:
        raise ValueError(f"mu_norm must be positive, got {mu_norm}")
    if mode == "axis_aligned":
        mu_plus = np.zeros(d)
        mu_minus = np.zeros(d)
        mu_plus[0] = mu_norm
        mu_minus[1] = mu_norm
    elif mode == "random_orthogonal":
        if rng is None:
            raise ValueError("random_orthogonal mode requires an rng")
        g = rng.normal(size=(2, d))
        u1 = g[0] / np.linalg.norm(g[0])
        v = g[1] - (g[1] @ u1) * u1
        u2 = v / np.linalg.norm(v)
        mu_plus = mu_norm * u1
        mu_minus = mu_norm * u2
    else:
        raise ValueError(f"unknown signal mode {mode!r}")
    return SignalBasis(mu_plus=mu_plus, mu_minus=mu_minus)


_DATA_FIELDS = ("n", "T", "d", "mu_norm", "sigma_eps", "eta", "rho", "n_weak_same")


@dataclass(frozen=True)
class DataConfig:
    """Scalar parameters of the data distribution.

    n: training samples; T: tokens per sequence; d: ambient dimension;
    mu_norm: signal norm; sigma_eps: noise std; eta: label-flip probability
    in [0, 1/2); rho: weak-signal scale in (0, 1); n_weak_same: weak tokens
    aligned with the true class (the confusing count is fixed at 1).
    """

    n: int
    T: int
    d: int
    mu_norm: float
    sigma_eps: float
    eta: float
    rho: float
    n_weak_same: int = 1

    def __post_init__(self):
        if self.n < 1 or self.T < 1:
            raise ConfigError("n and T must be positive")
        if self.d < 2:
            raise ConfigError(f"d must be >= 2 for the two class signals, "
                              f"got {self.d}")
        if self.n_weak_same < 0:
            raise ConfigError("n_weak_same must be >= 0")
        if self.T < 2 + self.n_weak_same:
            raise ConfigError(
                f"T={self.T} too small: need room for the relevant token, the "
                f"confusing token, and {self.n_weak_same} same-class weak tokens")
        if self.mu_norm <= 0:
            raise ConfigError("mu_norm must be positive")
        if self.sigma_eps < 0:
            raise ConfigError("sigma_eps must be >= 0")
        if not (0.0 <= self.eta < 0.5):
            raise ConfigError(f"eta must lie in [0, 0.5), got {self.eta}")
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _DATA_FIELDS}

    @classmethod
    def from_json(cls, obj: dict) -> "DataConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"data config must be an object, got {type(obj).__name__}")
        unknown = set(obj) - set(_DATA_FIELDS)
        if unknown:
            raise ConfigError(f"unknown data config keys: {sorted(unknown)}")
        missing = [k for k in _DATA_FIELDS if k not in obj and k != "n_weak_same"]
        if missing:
            raise ConfigError(f"missing data config keys: {missing}")
        return cls(**obj)


def roles_for(T: int, n_weak_same: int) -> tuple[Role, ...]:
    """Fixed per-token role layout: relevant, confusing, weak-same block,
    then irrelevant tokens."""
    roles = [Role.RELEVANT, Role.WEAK_CONFUSING]
    roles += [Role.WEAK_SAME] * n_weak_same
    roles += [Role.IRRELEVANT] * (T - 2 - n_weak_same)
    return tuple(roles)


@dataclass(frozen=True)
class Sample:
    """One token sequence with its labels, roles and retained noise."""

    tokens: np.ndarray          # (T, d); row t-1 holds token t
    y_train: int
    y_true: int
    roles: tuple[Role, ...]
    noise_vectors: np.ndarray   # (T, d); the epsilon drawn for each token


@dataclass(frozen=True)
class Dataset:
    config: DataConfig
    samples: list[Sample]
    X: np.ndarray               # (n, T, d) stacked tokens
    noise: np.ndarray           # (n, T, d)
    y_train: np.ndarray         # (n,) in {+1, -1}
    y_true: np.ndarray          # (n,)
    roles: tuple[Role, ...]
    clean_idx: np.ndarray = field(repr=False, default=None)
    noisy_idx: np.ndarray = field(repr=False, default=None)
    clean_pos: np.ndarray = field(repr=False, default=None)
    clean_neg: np.ndarray = field(repr=False, default=None)
    noisy_pos: np.ndarray = field(repr=False, default=None)
    noisy_neg: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def T(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.X.shape[2]


def _build_tokens(y_true: np.ndarray, noise: np.ndarray, signals: SignalBasis,
                  rho: float, n_weak_same: int) -> np.ndarray:
    """tokens = role signal + noise, vectorized over samples.

    Reconstruction is bit-exact: recomputing ``signal_part + noise`` with the
    same expressions reproduces the stored tokens.
    """
    X = noise.copy()
    sig = np.where((y_true > 0)[:, None], signals.mu_plus, signals.mu_minus)
    opp = np.where((y_true > 0)[:, None], signals.mu_minus, signals.mu_plus)
    X[:, 0, :] += sig
    X[:, 1, :] += rho * opp
    for j in range(n_weak_same):
        X[:, 2 + j, :] += rho * sig
    return X


def sample_from_p_star(config: DataConfig, signals: SignalBasis,
                       rng: np.random.Generator) -> Sample:
    """Draw one clean sample: uniform true label, Gaussian token noise,
    tokens assembled by role.  The training label equals the true label."""
    y = 1 if rng.random() < 0.5 else -1
    noise = rng.normal(0.0, config.sigma_eps, size=(config.T, config.d))
    X = _build_tokens(np.array([y]), noise[None], signals, config.rho,
                      config.n_weak_same)[0]
    return Sample(tokens=X, y_train=y, y_true=y,
                  roles=roles_for(config.T, config.n_weak_same),
                  noise_vectors=noise)


def generate_dataset(config: DataConfig, signals: SignalBasis,
                     rng: np.random.Generator) -> Dataset:
    """Draw n samples i.i.d., then flip each training label independently
    with probability eta.  Token draws and label flips use independent
    child streams, so the same tokens appear for any eta."""
    tok_rng, flip_rng = rng.spawn(2)
    n = config.n
    y_true = np.where(tok_rng.random(n) < 0.5, 1, -1).astype(np.int64)
    noise = tok_rng.normal(0.0, config.sigma_eps, size=(n, config.T, config.d))
    X = _build_tokens(y_true, noise, signals, config.rho, config.n_weak_same)
    flips = flip_rng.random(n) < config.eta
    y_train = np.where(flips, -y_true, y_true).astype(np.int64)

    roles = roles_for(config.T, config.n_weak_same)
    samples = [Sample(tokens=X[i], y_train=int(y_train[i]), y_true=int(y_true[i]),
                      roles=roles, noise_vectors=noise[i]) for i in range(n)]
    idx = np.arange(n)
    clean = y_train == y_true
    return Dataset(
        config=config,
        samples=samples, X=X, noise=noise, y_train=y_train, y_true=y_true,
        roles=roles,
        clean_idx=idx[clean], noisy_idx=idx[~clean],
        clean_pos=idx[clean & (y_train > 0)], clean_neg=idx[clean & (y_train < 0)],
        noisy_pos=idx[~clean & (y_train > 0)], noisy_neg=idx[~clean & (y_train < 0)],
    )


def snr(config: DataConfig) -> float:
    """Signal-to-noise ratio ||mu|| / (sigma_eps * sqrt(d))."""
    if config.sigma_eps <= 0:
        raise ValueError("snr undefined for sigma_eps = 0")
    return config.mu_norm / (config.sigma_eps * math.sqrt(config.d))


def a8_sigma(config: DataConfig, delta: float = 0.01, scale: float = 1.0) -> float:
    """Initialization std making the initial attention near-uniform:
    sigma^2 = scale / (max{||mu|| sqrt(d), sigma_eps d} * log^2(Tn/delta)).
    """
    log_term = math.log(config.T * config.n / delta)
    denom = max(config.mu_norm * math.sqrt(config.d),
                config.sigma_eps * config.d) * log_term ** 2
    return math.sqrt(scale / denom)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    value: float
    lower: float | None = None
    upper: float | None = None
    note: str = ""

    @property
    def holds(self) -> bool:
        if self.lower is not None and self.value < self.lower:
            return False
        if self.upper is not None and self.value > self.upper:
            return False
        return True

    @property
    def margin(self) -> float:
        """Distance to the nearest bound; positive means slack."""
        margins = []
        if self.lower is not None:
            margins.append(self.value - self.lower)
        if self.upper is not None:
            margins.append(self.upper - self.value)
        return min(margins) if margins else math.inf


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def holds_all(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> list[dict]:
        return [
            {"name": c.name, "value": c.value, "lower": c.lower,
             "upper": c.upper, "holds": c.holds, "margin": c.margin,
             "note": c.note}
            for c in self.checks
        ]


def check_assumptions(config: DataConfig, sigma_w: float, sigma_p: float,
                      alpha: float, C: float = 1.0, delta: float = 0.01,
                      a8_slack: float = 10.0) -> AssumptionReport:
    """Evaluate the eight scaling conditions A1-A8 relating d, ||mu||, n,
    rho, alpha, eta, T and the initialization variances.

    The universal constant C is a caller choice (default 1); per-inequality
    margins matter more than the aggregate verdict at desk scale.  A8 is a
    two-sided band around the target variance with slack ``a8_slack``.
    """
    if C <= 0 or delta <= 0 or a8_slack < 1:
        raise ValueError("C, delta must be positive and a8_slack >= 1")
    n, T, d = config.n, config.T, config.d
    mu, sig, eta, rho = config.mu_norm, config.sigma_eps, config.eta, config.rho
    log_term = math.log(T * n / delta)
    sig_hat = max(sig, 1.0 / sig) if sig > 0 else math.inf
    a8_target = 1.0 / (max(mu * math.sqrt(d), sig * d) * log_term ** 2)
    checks = (
        AssumptionCheck("A1_dimension", value=d,
                        lower=C * sig_hat * n * mu ** (4 / 3) * log_term ** 3),
        AssumptionCheck("A2_signal_norm", value=mu,
                        lower=C * sig * d ** (3 / 8) * log_term),
        AssumptionCheck("A3_weak_scale", value=rho,
                        lower=C * sig * log_term / mu, upper=1.0 / C),
        AssumptionCheck("A4_step_size", value=alpha,
                        upper=1.0 / (C * max(mu * math.sqrt(d), sig * d))),
        AssumptionCheck("A5_sample_count", value=n,
                        lower=C * math.log(d / delta)),
        AssumptionCheck("A6_noise_rate", value=eta, upper=1.0 / C),
        AssumptionCheck("A7_token_count", value=T,
                        note="constant-order by construction; no numeric bound"),
        AssumptionCheck("A8_init_variance_w", value=sigma_w ** 2,
                        lower=a8_target / a8_slack, upper=a8_target * a8_slack),
        AssumptionCheck("A8_init_variance_p", value=sigma_p ** 2,
                        lower=a8_target / a8_slack, upper=a8_target * a8_slack),
    )
    return AssumptionReport(checks=checks)
