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
import dataclasses
import functools
import math
import numbers
import sys
import typing
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import normal_fill

__all__ = [
    "SignalBasis",
    "DataConfig",
    "Dataset",
    "ConfigError",
    "make_signals",
    "generate_dataset",
    "snr",
    "a8_sigma",
]

# The failure probability delta inside every log(Tn/delta) term.
DELTA = 0.01


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


def _check_type(name: str, value, kind: type) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is an integer
    (``kind`` int; numpy integers included) or a finite real number
    (``kind`` float; JSON's NaN and Infinity are not).  bool is neither."""
    abc, what = ((numbers.Integral, "an integer") if kind is int
                 else (numbers.Real, "a real number"))
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    # NaN compares false, and an integer beyond any float fails too
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")


@functools.cache
def _layout(cls) -> tuple:
    """(key, kind, default) of each field of section ``cls``: the kind is
    the field's annotation, X for ``X | None``, and the default is
    ``dataclasses.MISSING`` for a required key."""
    hints = typing.get_type_hints(cls)
    layout = []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if typing.get_args(kind)[-1:] == (type(None),):
            kind = typing.get_args(kind)[0]
        layout.append((f.name, kind, f.default))
    return tuple(layout)


class _Section:
    """A config section: a frozen dataclass written to and read from a JSON
    object of its fields.  Keys are strict: an unknown key is an error, and
    a field without a default is required.  A field that is a section is
    written and read as one.  A field of kind int or float is type-checked
    by :func:`_check_type` on every construction, and one of kind
    ``tuple[X, ...]``, a JSON list, item by item; it is stored as a tuple
    of X and may not repeat a value, which would label two rows or columns
    alike.  A field may be None only when None is its default.  A section's
    ``__post_init__`` calls this one, then makes its own checks."""

    def __post_init__(self):
        for key, kind, default in _layout(type(self)):
            value = getattr(self, key)
            if value is None and default is None:
                continue
            if typing.get_origin(kind) is tuple:
                kind = typing.get_args(kind)[0]
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(f"{key} must be a list, got {value!r}")
                for v in value:
                    _check_type(key, v, kind)
                value = tuple(kind(v) for v in value)
                object.__setattr__(self, key, value)
                repeated = sorted({v for v in value if value.count(v) > 1})
                if repeated:
                    raise ConfigError(f"{key} repeats {repeated}")
            elif kind in (int, float):
                _check_type(key, value, kind)

    def to_json(self) -> dict:
        obj = {}
        for key, _, _ in _layout(type(self)):
            value = getattr(self, key)
            obj[key] = (value.to_json() if isinstance(value, _Section)
                        else list(value) if isinstance(value, tuple)
                        else value)
        return obj

    @classmethod
    def from_json(cls, obj):
        name = cls.__name__
        if not isinstance(obj, dict):
            raise ConfigError(f"{name} must be a JSON object, "
                              f"got {type(obj).__name__}")
        layout = _layout(cls)
        unknown = sorted(set(obj) - {key for key, _, _ in layout})
        if unknown:
            raise ConfigError(f"unknown {name} keys: {unknown}")
        missing = [key for key, _, default in layout
                   if default is dataclasses.MISSING and key not in obj]
        if missing:
            raise ConfigError(f"missing {name} keys: {missing}")
        return cls(**{
            key: (kind.from_json(obj[key])
                  if _Section in getattr(kind, "__mro__", ()) else obj[key])
            for key, kind, _ in layout if key in obj})


@dataclass(frozen=True)
class SignalBasis:
    """Fixed pair of equal-norm, orthogonal class signal vectors."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray

    @property
    def mu_norm(self) -> float:
        return float(np.linalg.norm(self.mu_plus))


def make_signals(d: int, mu_norm: float,
                 rng: np.random.Generator) -> SignalBasis:
    """Construct the two class signals: a random orthonormal pair scaled to
    ``mu_norm``."""
    if d < 2:
        raise ValueError(f"signal construction needs d >= 2, got d={d}")
    if mu_norm <= 0:
        raise ValueError(f"mu_norm must be positive, got {mu_norm}")
    g = rng.normal(size=(2, d))
    u1 = g[0] / np.linalg.norm(g[0])
    v = g[1] - (g[1] @ u1) * u1
    u2 = v / np.linalg.norm(v)
    return SignalBasis(mu_plus=mu_norm * u1, mu_minus=mu_norm * u2)


@dataclass(frozen=True)
class DataConfig(_Section):
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
        super().__post_init__()
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


@dataclass(frozen=True)
class Dataset:
    """n token sequences.  The tokens ``X`` are drawn from ``noise_rng``, a
    snapshot of the token stream taken just before the noise draw: the
    noise is drawn into the token array and the role signals are added in
    place.  ``X`` is held from the start unless the dataset was generated
    ``lazy``; then it is drawn whole on first read, and
    :meth:`token_chunks` reads it chunk by chunk without ever forming it.
    ``noise`` is redrawn on first read, bit-identical to the noise in X."""

    config: DataConfig
    y_train: np.ndarray         # (n,) in {+1, -1}
    y_true: np.ndarray          # (n,)
    signals: SignalBasis = field(repr=False)
    noise_rng: np.random.Generator = field(repr=False)
    clean_idx: np.ndarray = field(repr=False, default=None)
    noisy_idx: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.y_true)

    @property
    def T(self) -> int:
        return self.config.T

    @property
    def d(self) -> int:
        return self.config.d

    @cached_property
    def X(self) -> np.ndarray:
        """(n, T, d) stacked tokens."""
        return _draw_tokens(copy.deepcopy(self.noise_rng), self.config,
                            self.signals, self.y_true)

    @cached_property
    def noise(self) -> np.ndarray:
        """(n, T, d) the epsilon drawn for each token."""
        return _draw_noise(copy.deepcopy(self.noise_rng), self.config,
                           self.n)

    def token_chunks(self, size: int):
        """Yield the tokens of ``size`` consecutive samples at a time (the
        last chunk may be shorter).  When X is held these are views of it;
        otherwise each chunk is drawn from the token stream when it is
        asked for, bit-identical to the same rows of X, and X is never
        formed."""
        if "X" in self.__dict__:
            for lo in range(0, self.n, size):
                yield self.X[lo:lo + size]
            return
        rng = copy.deepcopy(self.noise_rng)
        for lo in range(0, self.n, size):
            yield _draw_tokens(rng, self.config, self.signals,
                               self.y_true[lo:lo + size])


def _draw_noise(rng: np.random.Generator, config: DataConfig,
                n: int) -> np.ndarray:
    """Token noise of n samples, i.i.d. N(0, sigma_eps^2), (n, T, d).
    Consecutive draws from one stream continue each other element by
    element, so drawing a dataset's noise in sample chunks gives the same
    bits as one draw."""
    return normal_fill(rng, np.empty((n, config.T, config.d)),
                       config.sigma_eps)


def _build_tokens(y_true: np.ndarray, tokens: np.ndarray, signals: SignalBasis,
                  rho: float, n_weak_same: int) -> np.ndarray:
    """Add the role signals in place to ``tokens`` (n, T, d), which holds
    the noise on entry; returns it.  Each (label, role) pair is one masked
    in-place add over all samples, so there are no temporaries and six
    numpy calls whatever n is (a thread drawing tokens beside a busy one
    waits for the interpreter lock once per call).  Reconstruction is
    bit-exact: adding the role signals to the noise with the same
    expressions reproduces the stored tokens."""
    plus, minus = signals.mu_plus, signals.mu_minus
    weak_plus, weak_minus = rho * plus, rho * minus
    pos = (y_true > 0)[:, None, None]
    for label, (sig, weak_sig, weak_opp) in (
            (pos, (plus, weak_plus, weak_minus)),
            (~pos, (minus, weak_minus, weak_plus))):
        for rows, vec in ((tokens[:, :1], sig), (tokens[:, 1:2], weak_opp),
                          (tokens[:, 2:2 + n_weak_same], weak_sig)):
            np.add(rows, vec, out=rows, where=label)
    return tokens


def _draw_tokens(rng: np.random.Generator, config: DataConfig,
                 signals: SignalBasis, y_true: np.ndarray) -> np.ndarray:
    """The next len(y_true) samples' tokens from the token stream ``rng``:
    their noise, with the role signals of their true labels added."""
    return _build_tokens(y_true, _draw_noise(rng, config, len(y_true)),
                         signals, config.rho, config.n_weak_same)


def generate_dataset(config: DataConfig, signals: SignalBasis,
                     rng: np.random.Generator, lazy: bool = False) -> Dataset:
    """Draw n samples i.i.d., then flip each training label independently
    with probability eta.  Token draws and label flips use independent
    child streams, so the same tokens appear for any eta.  The tokens are
    drawn here unless ``lazy``; a lazy dataset has the same labels and,
    whenever they are read, the same tokens."""
    tok_rng, flip_rng = rng.spawn(2)
    n = config.n
    y_true = np.where(tok_rng.random(n) < 0.5, 1, -1).astype(np.int64)
    flips = flip_rng.random(n) < config.eta
    y_train = np.where(flips, -y_true, y_true).astype(np.int64)

    idx = np.arange(n)
    clean = y_train == y_true
    ds = Dataset(
        config=config, y_train=y_train, y_true=y_true, signals=signals,
        noise_rng=copy.deepcopy(tok_rng),
        clean_idx=idx[clean], noisy_idx=idx[~clean],
    )
    if not lazy:
        # stored where the cached X lives: drawing it through the property
        # would hold cached_property's lock, which Python before 3.12
        # shares across instances, so concurrent sweep cells would draw
        # their tokens one after another
        ds.__dict__["X"] = _draw_tokens(tok_rng, config, signals, y_true)
    return ds


def snr(config: DataConfig) -> float:
    """Signal-to-noise ratio ||mu|| / (sigma_eps * sqrt(d))."""
    if config.sigma_eps <= 0:
        raise ValueError("snr undefined for sigma_eps = 0")
    return config.mu_norm / (config.sigma_eps * math.sqrt(config.d))


def a8_sigma(config: DataConfig) -> float:
    """Initialization std making the initial attention near-uniform:
    sigma^2 = 1 / (max{||mu|| sqrt(d), sigma_eps d} * log^2(Tn/delta)),
    with delta = :data:`DELTA`.
    """
    log_term = math.log(config.T * config.n / DELTA)
    denom = max(config.mu_norm * math.sqrt(config.d),
                config.sigma_eps * config.d) * log_term ** 2
    return math.sqrt(1.0 / denom)
