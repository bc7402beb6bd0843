"""One-layer attention classifier with a fixed linear head.

The predictor is f(X) = nu^T X^T softmax(X W^T p): the softmax over
attention scores X W^T p selects tokens, and the output is the resulting
affine combination of per-token scores gamma_t = nu^T x_t.  Only W and p
are trainable; nu is fixed at construction.
"""
from __future__ import annotations

import copy

import numpy as np

from .data import SignalBasis

__all__ = [
    "ModelState",
    "InitDraw",
    "init_params",
    "make_head",
    "softmax",
    "batch_outputs",
]


def _check_finite(name: str, arr: np.ndarray):
    # min/max propagate NaN and expose +-inf without a temporary
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")


class ModelState:
    """Trainable key-query matrix W (d x d), tunable token p (d,), and the
    fixed head nu (d,).  The trainer replaces W and p; nu is frozen.

    Given an :class:`InitDraw` for W, the state keeps it as ``init`` and
    reads W through it: the drawn W(0) until :meth:`release`, and after
    that W(0) redrawn from the draw's stream on each read."""

    def __init__(self, W: np.ndarray | InitDraw, p: np.ndarray,
                 nu: np.ndarray):
        drawn = isinstance(W, InitDraw)
        d = p.shape[0]
        W_shape = (W.d, W.d) if drawn else W.shape
        if W_shape != (d, d) or nu.shape != (d,):
            raise ValueError(
                f"inconsistent shapes: W {W_shape}, p {p.shape}, "
                f"nu {nu.shape}")
        # a drawn W(0) was checked block by block as it was drawn
        for name, arr in (("W", None if drawn else W), ("p", p), ("nu", nu)):
            if arr is not None:
                _check_finite(name, arr)
        self._W, self.init = (None, W) if drawn else (W, None)
        self.p = p
        self.nu = nu.copy()
        self.nu.setflags(write=False)

    @property
    def W(self) -> np.ndarray:
        return self._W if self.init is None else self.init.array()

    @W.setter
    def W(self, value: np.ndarray):
        self._W, self.init = value, None

    def release(self):
        """Drop a drawn W(0): later reads redraw it.  A no-op for a state
        given its W."""
        if self.init is not None:
            self.init.W = None

    @property
    def d(self) -> int:
        return self.p.shape[0]


# Rows of W(0) drawn at a time.
INIT_ROWS = 256


def row_blocks(d: int) -> list[tuple[int, int]]:
    """The row ranges [lo, hi) in which :func:`init_params` draws W(0)."""
    return [(lo, min(lo + INIT_ROWS, d)) for lo in range(0, d, INIT_ROWS)]


def init_params(d: int, sigma_w: float, sigma_p: float,
                rng: np.random.Generator,
                on_rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian initialization: W_ij ~ N(0, sigma_w^2), p_i ~ N(0, sigma_p^2).

    W is drawn row block by row block (:func:`row_blocks`), then p; the
    stream continues element by element across blocks, so W has the bits
    of one (d, d) draw.  Each block is checked finite, and ``on_rows(W, lo,
    hi)`` is called once its rows are in W; an overflowing sigma_w raises
    at the first block.  With sigma_w = 0, W is zero and p is the stream's
    first draw."""
    if not (sigma_w >= 0 and sigma_p >= 0):     # NaN fails too
        raise ValueError("initialization scales must be >= 0")
    W = np.empty((d, d)) if sigma_w > 0 else np.zeros((d, d))
    for lo, hi in row_blocks(d):
        if sigma_w > 0:
            rows = W[lo:hi]
            # rng.normal(0.0, sigma_w) computes 0 + sigma_w z; drawn in
            # place, without a temporary; an overflow raises below
            rng.standard_normal(out=rows)
            with np.errstate(over="ignore"):
                np.multiply(rows, sigma_w, out=rows)
            np.add(rows, 0.0, out=rows)
            _check_finite("W", rows)
        if on_rows is not None:
            on_rows(W, lo, hi)
    p = rng.normal(0.0, sigma_p, size=d) if sigma_p > 0 else np.zeros(d)
    return W, p


class InitDraw:
    """W(0) of one :func:`init_params` draw from ``rng``: ``W`` holds the
    drawn array until it is released (set to None), and :meth:`array`
    then redraws it block by block from a snapshot of ``rng`` taken here,
    before the draw, bit-identical to the drawn one."""

    def __init__(self, d: int, sigma_w: float, rng: np.random.Generator):
        self.d, self.sigma_w = d, sigma_w
        self.rng = copy.deepcopy(rng)
        self.W = None

    def array(self) -> np.ndarray:
        if self.W is not None:
            return self.W
        return init_params(self.d, self.sigma_w, 0.0,
                           copy.deepcopy(self.rng))[0]


def make_head(signals: SignalBasis, scale="inverse_mu") -> np.ndarray:
    """Head aligned with the signal difference: nu = c (mu_+ - mu_-)/||.||.

    ``scale`` picks c: "inverse_mu" gives c = 1/||mu|| (keeps token scores
    order-one), "unit" gives c = 1, and a float gives that value.  The
    resulting head has cosine 1/sqrt(2) with either class signal.
    """
    diff = signals.mu_plus - signals.mu_minus
    nrm = float(np.linalg.norm(diff))
    if nrm == 0.0:
        raise ValueError("degenerate signals: mu_plus equals mu_minus")
    if scale == "inverse_mu":
        c = 1.0 / signals.mu_norm
    elif scale == "unit":
        c = 1.0
    elif isinstance(scale, (int, float)):
        c = float(scale)
    else:
        raise ValueError(f"unknown head scale {scale!r}")
    return c * diff / nrm


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax along ``axis``; rejects non-finite input."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be finite")
    return _softmax(v, axis)


# Above this many entries the softmax max runs over a token-major copy.
_TOKEN_MAJOR_MIN = 4096


def _softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`softmax` of finite float input, without the check."""
    if v.size >= _TOKEN_MAJOR_MIN:
        # a copy with ``axis`` leading reduces whole rows instead of many
        # short runs, which pays on the test-scoring blocks; the max is
        # exact either way
        m = (v.swapaxes(axis, 0).copy().max(axis=0, keepdims=True)
             .swapaxes(axis, 0))
    else:
        m = v.max(axis=axis, keepdims=True)
    e = np.exp(v - m)
    return e / e.sum(axis=axis, keepdims=True)


def loss_derivative(z):
    """l'(z) = -1/(1 + e^z) for l(z) = log(1 + exp(-z)); always in (-1, 0).

    Evaluated as -e/(1 + e) for z >= 0 and -1/(1 + e) for z < 0, with
    e = exp(-|z|), so the exponential never overflows."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, e, 1.0) / (-1.0 - e)
    return out if out.ndim else float(out)


def _fits(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Strict-sign match of outputs with labels: a zero output is a misfit
    against either label, so ties never inflate accuracy."""
    return (out != 0) & (np.sign(out) == y)


def _logistic_loss(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-output logistic loss log(1 + exp(-y f)), evaluated stably."""
    return np.logaddexp(0.0, -y * out)


def _token_scores(X: np.ndarray, q: np.ndarray, nu: np.ndarray):
    """Attention scores X q and token scores X nu of stacked X (n, T, d),
    both (n, T), given q = W^T p."""
    n, T, d = X.shape
    flat = X.reshape(n * T, d)
    return (flat @ q).reshape(n, T), (flat @ nu).reshape(n, T)


def _attend(u: np.ndarray, gamma: np.ndarray, y: np.ndarray | None = None,
            checked: bool = False):
    """Softmax of attention scores u (n, T) over tokens and the outputs
    f_i = <s_i, gamma_i>.  Given training labels y, also the token weights
    (1/n) l'(y_i f_i) y_i s_t (gamma_t - f_i), whose sum against the tokens
    is gbar; otherwise None in their place.  ``checked`` says the caller
    has already found u finite."""
    probs = _softmax(u) if checked else softmax(u, axis=-1)
    out = np.einsum("it,it->i", probs, gamma)
    if y is None:
        return probs, out, None
    lprime = loss_derivative(y * out)
    omega = probs * (gamma - out[:, None])
    return probs, out, (lprime * y / len(y))[:, None] * omega


def batch_outputs(X: np.ndarray, state: ModelState) -> np.ndarray:
    """Model outputs f(X_i) = nu^T X_i^T softmax(X_i W^T p) for stacked
    sequences X (n, T, d): the one dense forward pass."""
    return _attend(*_token_scores(X, state.W.T @ state.p, state.nu))[1]

