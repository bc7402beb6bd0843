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

from .data import ConfigError
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


def generate_multiclass_dataset(config: MulticlassConfig, mus: np.ndarray,
                                rng: np.random.Generator) -> MulticlassDataset:
    n, T, d, K = config.n, config.T, config.d, config.K
    tok_rng, flip_rng = rng.spawn(2)
    y_true = tok_rng.integers(K, size=n)
    weak = tok_rng.integers(K, size=(n, config.n_weak))
    X = tok_rng.normal(0.0, config.sigma_eps, size=(n, T, d))
    X[:, 0, :] += mus[y_true]
    for j in range(config.n_weak):
        X[:, 1 + j, :] += config.rho * mus[weak[:, j]]
    flips = flip_rng.random(n) < config.eta
    offset = flip_rng.integers(1, K, size=n)
    y_train = np.where(flips, (y_true + offset) % K, y_true)
    return MulticlassDataset(X=X, y_train=y_train, y_true=y_true,
                             weak_classes=weak, K=K)


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


# Monte Carlo draws generated together by head_gradient_estimate.
_ESTIMATE_BATCH = 4096


def head_gradient_estimate(config: MulticlassConfig, mus: np.ndarray,
                           mc_samples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the negative head gradient at the fully
    zero-initialized model, one column per class (d, K).

    At zero weights the attention is uniform and all class logits vanish,
    so each draw contributes (indicator(y = k) - 1/K) times its token mean;
    in expectation the class-k column is proportional to mu_k - mean(mu).
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    d, K = config.d, config.K
    state = MulticlassState(W=np.zeros((d, d)), p=np.zeros(d),
                            W_V=np.zeros((d, K)))
    total = np.zeros((d, K))
    remaining = mc_samples
    while remaining > 0:
        m = min(_ESTIMATE_BATCH, remaining)
        ds = generate_multiclass_dataset(
            MulticlassConfig(n=m, T=config.T, d=d, K=K, mu_norm=config.mu_norm,
                             sigma_eps=config.sigma_eps, eta=config.eta,
                             rho=config.rho, n_weak=config.n_weak),
            mus, rng)
        total += -grad_wv(ds, state) * m
        remaining -= m
    return total / mc_samples
