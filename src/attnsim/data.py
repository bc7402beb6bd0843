"""Synthetic signal/noise sequence data with label flips.

Each sequence of T tokens carries one full-strength class signal (token 1),
one confusing weak signal aligned with the opposite class (token 2), a
configurable number of weak same-class tokens, and pure-noise tokens.
Training labels equal the true labels flipped independently with a fixed
probability.  Token indices are 1-based in all reports and docs; array row
``t - 1`` holds token ``t``.
"""
from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Role",
    "SignalBasis",
    "DataConfig",
    "Dataset",
    "ConfigError",
    "make_signals",
    "generate_dataset",
    "snr",
    "a8_sigma",
]


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


def _check_type(name: str, value, kind: type) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is an integer
    (``kind`` int; numpy integers included) or a real number (``kind``
    float).  bool is neither."""
    abc, what = ((numbers.Integral, "an integer") if kind is int
                 else (numbers.Real, "a real number"))
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


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


# field -> kind: counts are integers, scales and rates real numbers
_DATA_FIELDS = {"n": int, "T": int, "d": int, "mu_norm": float,
                "sigma_eps": float, "eta": float, "rho": float,
                "n_weak_same": int}


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
        for name, kind in _DATA_FIELDS.items():
            _check_type(name, getattr(self, name), kind)
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
class Dataset:
    """n token sequences.  ``X`` is the only copy of the tokens; ``noise``
    is redrawn on first read from ``noise_rng``, a snapshot of the token
    stream taken just before the noise draw, bit-identical to the noise in X."""

    config: DataConfig
    X: np.ndarray               # (n, T, d) stacked tokens
    y_train: np.ndarray         # (n,) in {+1, -1}
    y_true: np.ndarray          # (n,)
    roles: tuple[Role, ...]
    noise_rng: np.random.Generator | None = field(repr=False, default=None)
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

    @cached_property
    def noise(self) -> np.ndarray:
        """(n, T, d) the epsilon drawn for each token."""
        return _draw_noise(copy.deepcopy(self.noise_rng), self.config)


def _draw_noise(rng: np.random.Generator, config: DataConfig) -> np.ndarray:
    """Token noise of a whole dataset, i.i.d. N(0, sigma_eps^2), (n, T, d)."""
    return rng.normal(0.0, config.sigma_eps, (config.n, config.T, config.d))


def _build_tokens(y_true: np.ndarray, tokens: np.ndarray, signals: SignalBasis,
                  rho: float, n_weak_same: int) -> np.ndarray:
    """Add the role signals in place to ``tokens`` (n, T, d), which holds
    the noise on entry, one sample at a time (no temporaries); returns it.
    Reconstruction is bit-exact: adding the role signals to the noise with
    the same expressions reproduces the stored tokens."""
    plus, minus = signals.mu_plus, signals.mu_minus
    by_label = {1: (plus, rho * plus, rho * minus),
                -1: (minus, rho * minus, rho * plus)}
    for x, y in zip(tokens, y_true):
        sig, weak_sig, weak_opp = by_label[1 if y > 0 else -1]
        x[0] += sig
        x[1] += weak_opp
        x[2:2 + n_weak_same] += weak_sig
    return tokens


def generate_dataset(config: DataConfig, signals: SignalBasis,
                     rng: np.random.Generator) -> Dataset:
    """Draw n samples i.i.d., then flip each training label independently
    with probability eta.  Token draws and label flips use independent
    child streams, so the same tokens appear for any eta.  The noise is
    drawn into the token array itself and the signals are added in place."""
    tok_rng, flip_rng = rng.spawn(2)
    n = config.n
    y_true = np.where(tok_rng.random(n) < 0.5, 1, -1).astype(np.int64)
    noise_rng = copy.deepcopy(tok_rng)
    X = _build_tokens(y_true, _draw_noise(tok_rng, config), signals,
                      config.rho, config.n_weak_same)
    flips = flip_rng.random(n) < config.eta
    y_train = np.where(flips, -y_true, y_true).astype(np.int64)

    idx = np.arange(n)
    clean = y_train == y_true
    return Dataset(
        config=config, X=X, y_train=y_train, y_true=y_true,
        roles=roles_for(config.T, config.n_weak_same), noise_rng=noise_rng,
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
