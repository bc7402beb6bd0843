"""K-class extension: cross-entropy over per-class heads.

The model is f(X) = W_V^T X^T softmax(X W^T p) with a fixed head matrix
W_V = (nu_1, ..., nu_K); only W and p train.  Data generalizes the binary
model: token 1 carries the true-class signal, each weak token aligns with a
class drawn uniformly from [K], the rest are noise, and a flipped label is
uniform over the other K-1 classes.  Classes are 0-based integers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConfigError, _check_type
from .model import softmax

__all__ = [
    "MulticlassConfig",
    "MulticlassDataset",
    "MulticlassState",
    "make_class_signals",
    "generate_multiclass_dataset",
    "multiclass_loss_and_grads",
    "grad_wv",
    "head_gradient_estimate",
]


@dataclass(frozen=True)
class MulticlassConfig:
    n: int
    T: int
    d: int
    K: int
    mu_norm: float
    sigma_eps: float
    eta: float
    rho: float
    n_weak: int = 2

    def __post_init__(self):
        for name in ("mu_norm", "sigma_eps", "eta", "rho"):
            _check_type(name, getattr(self, name), float)
        if self.K < 2:
            raise ConfigError("K must be >= 2")
        if self.n < 1 or self.T < 1 or self.d < 1:
            raise ConfigError("n, T, d must be positive")
        if self.n_weak < 0 or self.T < 1 + self.n_weak:
            raise ConfigError("need T >= 1 + n_weak")
        if self.mu_norm <= 0 or self.sigma_eps < 0:
            raise ConfigError("mu_norm must be > 0 and sigma_eps >= 0")
        if not (0.0 <= self.eta < 1.0):
            raise ConfigError("eta must lie in [0, 1)")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError("rho must lie in [0, 1)")


@dataclass(frozen=True)
class MulticlassDataset:
    X: np.ndarray            # (n, T, d)
    y_train: np.ndarray      # (n,) in [0, K)
    y_true: np.ndarray
    weak_classes: np.ndarray  # (n, n_weak)
    K: int

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class MulticlassState:
    W: np.ndarray    # (d, d)
    p: np.ndarray    # (d,)
    W_V: np.ndarray  # (d, K) fixed per-class heads

    def __post_init__(self):
        d = self.p.shape[0]
        if self.W.shape != (d, d) or self.W_V.shape[0] != d:
            raise ValueError("inconsistent multiclass state shapes")

    @property
    def K(self) -> int:
        return self.W_V.shape[1]


def make_class_signals(d: int, K: int, mu_norm: float,
                       mode: str = "random_orthogonal",
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """K orthogonal, equal-norm class signals, stacked as rows (K, d)."""
    if d < K:
        raise ValueError(f"need d >= K for orthogonal signals, got d={d}, K={K}")
    if mode == "axis_aligned":
        mus = np.zeros((K, d))
        mus[np.arange(K), np.arange(K)] = mu_norm
        return mus
    if mode == "random_orthogonal":
        if rng is None:
            raise ValueError("random_orthogonal mode requires an rng")
        q, _ = np.linalg.qr(rng.normal(size=(d, K)))
        return mu_norm * q.T
    raise ValueError(f"unknown signal mode {mode!r}")


def _draw_labels(n: int, config: MulticlassConfig,
                 rng: np.random.Generator):
    """Spawn a batch's token and flip streams and draw its n labels.
    Returns the token stream, positioned at the noise, with y_true, the
    weak classes and y_train."""
    K = config.K
    tok_rng, flip_rng = rng.spawn(2)
    y_true = tok_rng.integers(K, size=n)
    weak = tok_rng.integers(K, size=(n, config.n_weak))
    flips = flip_rng.random(n) < config.eta
    offset = flip_rng.integers(1, K, size=n)
    y_train = np.where(flips, (y_true + offset) % K, y_true)
    return tok_rng, y_true, weak, y_train


def _draw_tokens(config: MulticlassConfig, mus: np.ndarray,
                 tok_rng: np.random.Generator, y_true: np.ndarray,
                 weak: np.ndarray) -> np.ndarray:
    """Tokens (len(y_true), T, d) of the token stream's next samples: noise,
    then the true-class signal added to token 1 and each weak token's
    rho-scaled class signal.  Drawing a batch in consecutive slices gives
    the bits of one draw."""
    X = tok_rng.normal(0.0, config.sigma_eps,
                       size=(len(y_true), config.T, config.d))
    X[:, 0, :] += mus[y_true]
    for j in range(config.n_weak):
        X[:, 1 + j, :] += config.rho * mus[weak[:, j]]
    return X


def generate_multiclass_dataset(config: MulticlassConfig, mus: np.ndarray,
                                rng: np.random.Generator) -> MulticlassDataset:
    tok_rng, y_true, weak, y_train = _draw_labels(config.n, config, rng)
    X = _draw_tokens(config, mus, tok_rng, y_true, weak)
    return MulticlassDataset(X=X, y_train=y_train, y_true=y_true,
                             weak_classes=weak, K=config.K)


def _forward_multiclass(dataset: MulticlassDataset, state: MulticlassState):
    n, T, d = dataset.X.shape
    flat = dataset.X.reshape(n * T, d)
    attn = (flat @ (state.W.T @ state.p)).reshape(n, T)
    s = softmax(attn, axis=-1)
    pooled = np.einsum("it,itd->id", s, dataset.X)
    logits = pooled @ state.W_V          # (n, K)
    shift = logits - logits.max(axis=1, keepdims=True)
    logZ = np.log(np.exp(shift).sum(axis=1)) + logits.max(axis=1)
    q = softmax(logits, axis=-1)
    losses = logZ - logits[np.arange(n), dataset.y_train]
    return s, pooled, q, losses


def multiclass_loss_and_grads(dataset: MulticlassDataset,
                              state: MulticlassState):
    """Mean cross-entropy and its gradients in (W, p).

    With two classes and opposite heads nu_0 = -nu_1 = nu/2 this reproduces
    the binary logistic path exactly.
    """
    if state.K < 2:
        raise ValueError("multiclass path requires K >= 2")
    n, T, d = dataset.X.shape
    s, pooled, q, losses = _forward_multiclass(dataset, state)
    # h_i = sum_k q_k nu_k - nu_{y_i}: the loss gradient in the pooled token
    h = q @ state.W_V.T - state.W_V.T[dataset.y_train]      # (n, d)
    gamma = np.einsum("itd,id->it", dataset.X, h)
    omega = s * (gamma - np.einsum("it,it->i", s, gamma)[:, None])
    g = (omega.reshape(n * T) @ dataset.X.reshape(n * T, d)) / n
    return float(losses.mean()), np.outer(state.p, g), state.W @ g


def grad_wv(dataset: MulticlassDataset, state: MulticlassState) -> np.ndarray:
    """Gradient of the mean cross-entropy in the head matrix (d, K)."""
    n = dataset.n
    _, pooled, q, _ = _forward_multiclass(dataset, state)
    coeff = q.copy()
    coeff[np.arange(n), dataset.y_train] -= 1.0
    return pooled.T @ coeff / n


# Monte Carlo samples of one head_gradient_estimate batch.  Each batch
# spawns its own token and flip streams, so the batch size and the spawn
# order fix the sample: changing either changes the estimate, and neither
# can be tuned.
_ESTIMATE_BATCH = 4096
# Samples whose tokens are held at once; any size gives the same bits.
_ESTIMATE_CHUNK = 256


def head_gradient_estimate(config: MulticlassConfig, mus: np.ndarray,
                           mc_samples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the negative head gradient at the fully
    zero-initialized model, one column per class (d, K).

    At zero weights the attention is uniform and all class logits vanish,
    so each draw contributes (indicator(y = k) - 1/K) times its token mean;
    in expectation the class-k column is proportional to mu_k - mean(mu).

    Each batch's tokens are drawn and reduced to their token means
    _ESTIMATE_CHUNK samples at a time, with the bits of :func:`grad_wv`
    at the all-zero state over whole dataset batches.
    """
    if np.shape(mus) != (config.K, config.d):
        raise ValueError(f"mus must have shape (K, d) = "
                         f"{(config.K, config.d)}, got {np.shape(mus)}")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    d, K, T = config.d, config.K, config.T
    total = np.zeros((d, K))
    remaining = mc_samples
    while remaining > 0:
        m = min(_ESTIMATE_BATCH, remaining)
        tok_rng, y_true, weak, y_train = _draw_labels(m, config, rng)
        pooled = np.empty((m, d))
        for lo in range(0, m, _ESTIMATE_CHUNK):
            hi = min(lo + _ESTIMATE_CHUNK, m)
            # uniform attention: softmax of the zero scores is exactly 1/T
            s = np.full((hi - lo, T), 1.0 / T)
            pooled[lo:hi] = np.einsum(
                "it,itd->id", s,
                _draw_tokens(config, mus, tok_rng, y_true[lo:hi], weak[lo:hi]))
        # grad_wv at zero logits, where q = softmax(0) is exactly 1/K; its
        # mean is taken and scaled back by m, as the held path does
        coeff = np.full((m, K), 1.0 / K)
        coeff[np.arange(m), y_train] -= 1.0
        total += -(pooled.T @ coeff / m) * m
        remaining -= m
    return total / mc_samples
