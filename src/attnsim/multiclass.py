"""K-class extension: cross-entropy over per-class heads.

The model is f(X) = W_V^T X^T softmax(X W^T p) with a fixed head matrix
W_V = (nu_1, ..., nu_K); only W and p train.  Data generalizes the binary
model: token 1 carries the true-class signal, each weak token aligns with a
class drawn uniformly from [K], the rest are noise, and a flipped label is
uniform over the other K-1 classes.  Classes are 0-based integers.
"""
from __future__ import annotations

import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import ConfigError, _check_type, _Section
from .rng import normal_fill

__all__ = [
    "MulticlassConfig",
    "make_class_signals",
    "head_gradient_estimate",
]


@dataclass(frozen=True)
class MulticlassConfig(_Section):
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
        super().__post_init__()
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


def make_class_signals(d: int, K: int, mu_norm: float,
                       rng: np.random.Generator) -> np.ndarray:
    """K random orthogonal class signals of norm ``mu_norm``, stacked as
    rows (K, d)."""
    if d < K:
        raise ValueError(f"need d >= K for orthogonal signals, got d={d}, K={K}")
    q, _ = np.linalg.qr(rng.normal(size=(d, K)))
    return mu_norm * q.T


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
                 weak: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Tokens (len(y_true), T, d) of the token stream's next samples: noise,
    then the true-class signal added to token 1 and each weak token's
    rho-scaled class signal, written into the leading len(y_true) samples
    of ``out``; that view is returned.  Drawing a batch in consecutive
    slices gives the bits of one draw."""
    X = out[:len(y_true)]
    normal_fill(tok_rng, X, config.sigma_eps)
    X[:, 0, :] += mus[y_true]
    for j in range(config.n_weak):
        X[:, 1 + j, :] += config.rho * mus[weak[:, j]]
    return X


# Monte Carlo samples of one head_gradient_estimate batch.  Each batch
# spawns its own token and flip streams, so the batch size and the spawn
# order fix the sample: changing either changes the estimate, and neither
# can be tuned.
_ESTIMATE_BATCH = 4096
# Samples whose tokens are held at once; any size gives the same bits.
_ESTIMATE_CHUNK = 64
# Batches drawn at once, each on its own thread into its own buffers.
_ESTIMATE_THREADS = 2


def _check_mc_samples(mc_samples, least: int):
    """Raise ConfigError unless ``mc_samples`` is an integer, as
    :func:`~attnsim.data._check_type` takes one, of at least ``least``."""
    _check_type("mc_samples", mc_samples, int)
    if mc_samples < least:
        raise ConfigError(f"mc_samples must be >= {least}, "
                          f"got {mc_samples!r}")


def head_gradient_estimate(config: MulticlassConfig, mus: np.ndarray,
                           mc_samples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the negative head gradient at the fully
    zero-initialized model, one column per class (d, K).

    At zero weights the attention is uniform and all class logits vanish,
    so each draw contributes (indicator(y = k) - 1/K) times its token mean;
    in expectation the class-k column is proportional to mu_k - mean(mu).

    Every batch's streams are spawned and its labels drawn first, on this
    thread and in batch order.  The batches' tokens are then drawn
    ``_ESTIMATE_THREADS`` batches at a time, each batch on a pool thread
    into one free set of buffers: a (batch, d) array of token means and a
    (_ESTIMATE_CHUNK, T, d) token chunk.  numpy releases the GIL while it
    fills arrays, so the draws overlap on two cores.  The batch terms are
    added in batch order, with the bits of the dense cross-entropy head
    gradient, pooled^T (q - onehot(y)) / n, at the all-zero state over
    whole dataset batches.
    """
    if np.shape(mus) != (config.K, config.d):
        raise ValueError(f"mus must have shape (K, d) = "
                         f"{(config.K, config.d)}, got {np.shape(mus)}")
    _check_mc_samples(mc_samples, 1)
    d, K, T = config.d, config.K, config.T
    batches = [_draw_labels(min(_ESTIMATE_BATCH, mc_samples - lo), config, rng)
               for lo in range(0, mc_samples, _ESTIMATE_BATCH)]
    first = min(_ESTIMATE_BATCH, mc_samples)
    free = queue.SimpleQueue()
    threads = min(_ESTIMATE_THREADS, len(batches))
    for _ in range(threads):
        free.put((np.empty((first, d)),
                  np.empty((min(_ESTIMATE_CHUNK, first), T, d))))

    def batch_term(tok_rng, y_true, weak, y_train):
        pooled, chunk = free.get()
        try:
            m, step = len(y_true), len(chunk)
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                # uniform attention: softmax of the zero scores is exactly 1/T
                s = np.full((hi - lo, T), 1.0 / T)
                pooled[lo:hi] = np.einsum(
                    "it,itd->id", s,
                    _draw_tokens(config, mus, tok_rng, y_true[lo:hi],
                                 weak[lo:hi], out=chunk))
            # the head gradient at zero logits, where q = softmax(0) is
            # exactly 1/K; its mean is taken and scaled back by m, as the
            # dense gradient over a held batch does
            coeff = np.full((m, K), 1.0 / K)
            coeff[np.arange(m), y_train] -= 1.0
            return -(pooled[:m].T @ coeff / m) * m
        finally:
            free.put((pooled, chunk))

    total = np.zeros((d, K))
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        terms = [pool.submit(batch_term, *batch) for batch in batches]
        for term in terms:
            total += term.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return total / mc_samples
