"""One-layer attention classifier with a fixed linear head.

The predictor is f(X) = nu^T X^T softmax(X W^T p): the softmax over
attention scores X W^T p selects tokens, and the output is the resulting
affine combination of per-token scores gamma_t = nu^T x_t.  Only W and p
are trainable; nu is fixed at construction.
"""
from __future__ import annotations

import copy
import threading

import numpy as np

from .data import Dataset, SignalBasis
from .rng import normal_fill

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
    first draw.  A W that cannot be allocated raises a MemoryError that
    names it and its size."""
    if not (sigma_w >= 0 and sigma_p >= 0):     # NaN fails too
        raise ValueError("initialization scales must be >= 0")
    try:
        W = np.empty((d, d)) if sigma_w > 0 else np.zeros((d, d))
    except MemoryError as exc:
        raise MemoryError(
            f"W(0): {d}x{d} float64, {8 * d * d} bytes") from exc
    for lo, hi in row_blocks(d):
        if sigma_w > 0:
            _check_finite("W", normal_fill(rng, W[lo:hi], sigma_w))
        if on_rows is not None:
            on_rows(W, lo, hi)
    p = rng.normal(0.0, sigma_p, size=d) if sigma_p > 0 else np.zeros(d)
    return W, p


class InitDraw:
    """W(0) of one :func:`init_params` draw from ``rng``, and the training
    engine's products of it.

    ``W`` holds the drawn array until it is released (set to None), and
    :meth:`array` then redraws it block by block from a snapshot of
    ``rng`` taken here, before the draw, bit-identical to the drawn one.

    The products are the basis B, the training tokens then the two class
    signals ((nT + 2) x d), and P = [p(0) | V] with V = W(0) B^T, formed
    one row block of W(0) at a time as :func:`init_params` draws them.
    :meth:`rows_drawn` (the draw's ``on_rows``) queues a drawn block and
    :meth:`set_basis` supplies B.  Each thread that calls :meth:`form`
    takes the next queued block once B is set, waiting for the draw when
    none is queued, and returns when every block is taken or :meth:`stop`
    is called.  Every block is formed by the same product, and a block's
    product does not depend on the thread that forms it, so P has the same
    bits under any schedule.  Column 0 is left to the engine, which writes
    p(0) into it.
    """

    def __init__(self, d: int, sigma_w: float | None = None,
                 rng: np.random.Generator | None = None):
        self.d, self.sigma_w, self.rng = d, sigma_w, copy.deepcopy(rng)
        self.W = self.B = self.P = None
        self._blocks = len(row_blocks(d))
        self._cond = threading.Condition()
        self._queued, self._taken, self._stopped = [], 0, False

    @classmethod
    def of(cls, W0: np.ndarray, dataset: Dataset, signals: SignalBasis):
        """The products of a held W(0), over the blocks of its draw; W(0)
        stays with its holder, so the result cannot redraw it."""
        draw = cls(W0.shape[0])
        draw.set_basis(dataset, signals)
        for lo, hi in row_blocks(draw.d):
            draw.rows_drawn(W0, lo, hi)
        draw.form()
        draw.W = None
        return draw

    def array(self) -> np.ndarray:
        if self.W is not None:
            return self.W
        return init_params(self.d, self.sigma_w, 0.0,
                           copy.deepcopy(self.rng))[0]

    def rows_drawn(self, W: np.ndarray, lo: int, hi: int):
        with self._cond:
            self.W = W
            self._queued.append((lo, hi))
            self._cond.notify_all()

    def set_basis(self, dataset: Dataset, signals: SignalBasis):
        """Stack B; the dataset's tokens become a view of B's token rows,
        so that one copy of them is held."""
        n, T, d = dataset.X.shape
        B = np.vstack([dataset.X.reshape(n * T, d), signals.mu_plus,
                       signals.mu_minus])
        # where generate_dataset stores X
        dataset.__dict__["X"] = B[:n * T].reshape(n, T, d)
        P = np.empty((d, len(B) + 1))
        with self._cond:
            self.B, self.P = B, P
            self._cond.notify_all()

    def stop(self):
        """Release every thread waiting in :meth:`form`, which then returns
        with blocks left; called when the draw or the caller fails."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def _ready(self) -> bool:
        return (self._stopped or self._taken == self._blocks
                or (self.B is not None and self._taken < len(self._queued)))

    def form(self):
        while True:
            with self._cond:
                self._cond.wait_for(self._ready)
                if self._stopped or self._taken == self._blocks:
                    return
                lo, hi = self._queued[self._taken]
                self._taken += 1
            self._multiply(lo, hi)

    def _multiply(self, lo: int, hi: int):
        np.matmul(self.W[lo:hi], self.B.T, out=self.P[lo:hi, 1:])


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


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; rejects non-finite
    input."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be finite")
    return _softmax(v)


# Above this many entries the softmax max runs over a token-major copy.
_TOKEN_MAJOR_MIN = 4096


def _softmax(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`softmax` of finite float input, without the check, written
    into ``out`` when it is given."""
    if v.size >= _TOKEN_MAJOR_MIN:
        # a copy with the token axis leading reduces whole rows instead of
        # many short runs, which pays on the test-scoring blocks; the max
        # is exact either way
        m = (v.swapaxes(-1, 0).copy().max(axis=0, keepdims=True)
             .swapaxes(-1, 0))
    else:
        m = v.max(axis=-1, keepdims=True)
    # exponentiated and normalized in place: the values of
    # exp(v - m) / sum, without two more temporaries of v's size
    e = np.subtract(v, m, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def loss_derivative(z):
    """l'(z) = -1/(1 + e^z) for l(z) = log(1 + exp(-z)); always in [-1, 0].

    Evaluated as -e/(1 + e) for z >= 0 and -1/(1 + e) for z < 0, with
    e = exp(-|z|), so the exponential never overflows; the numerator is
    exp(-max(z, 0)), which is e or 1.  The endpoints are reached in
    float64: the value rounds to -1.0 below about z = -37 and to -0.0
    above about z = 745."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-np.maximum(z, 0.0)) / (-1.0 - np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def _fits(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Strict-sign match of outputs with labels +-1, y f > 0: a zero output
    is a misfit against either label, so ties never inflate accuracy."""
    return y * out > 0


def _logistic_loss(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-output logistic loss log(1 + exp(-y f)), evaluated stably."""
    return np.logaddexp(0.0, -y * out)


def _fit_loss_means(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The means over the last axis of :func:`_fits` and
    :func:`_logistic_loss` of outputs (..., m) against labels y, stacked as
    (acc, loss): the margins y f are formed once (exactly, as y is +-1)
    and both metrics are reduced together, with the bits of two separate
    means."""
    z = out * y
    per = np.empty((2,) + z.shape)
    np.greater(z, 0.0, out=per[0])
    np.negative(z, out=per[1])
    np.logaddexp(0.0, per[1], out=per[1])
    return per.mean(axis=-1)


def _token_scores(X: np.ndarray, q: np.ndarray, nu: np.ndarray):
    """Attention scores X q and token scores X nu of stacked X (n, T, d),
    both (n, T), given q = W^T p."""
    n, T, d = X.shape
    flat = X.reshape(n * T, d)
    return (flat @ q).reshape(n, T), (flat @ nu).reshape(n, T)


def _attend_work(n: int, T: int) -> tuple[np.ndarray, ...]:
    """Buffers for :func:`_attend` on scores (n, T), for a caller that
    attends many times at that shape: the softmax, omega, the margins
    y f and their scale.  The caller adds the (n, T) row the weights go
    into."""
    return np.empty((n, T)), np.empty((n, T)), np.empty(n), np.empty(n)


def _attend(u: np.ndarray, gamma: np.ndarray, y: np.ndarray | None = None,
            work: tuple | None = None):
    """Softmax of attention scores u (n, T) over tokens and the outputs
    f_i = <s_i, gamma_i>.  Given training labels y, also the token weights
    (1/n) l'(y_i f_i) y_i s_t (gamma_t - f_i), whose sum against the tokens
    is gbar; otherwise None in their place.  ``work`` is the
    :func:`_attend_work` buffers followed by an (n, T) weights row; a
    caller passing it has already found u finite, and the softmax, the
    intermediates and the weights are written there, with the bits of the
    allocating call."""
    probs, omega, margins, scale, weights = work or (None,) * 5
    probs = softmax(u) if work is None else _softmax(u, out=probs)
    out = np.einsum("it,it->i", probs, gamma)
    if y is None:
        return probs, out, None
    lprime = loss_derivative(np.multiply(y, out, out=margins))
    omega = np.subtract(gamma, out[:, None], out=omega)
    omega *= probs
    scale = np.multiply(lprime, y, out=scale)
    scale /= len(y)
    return probs, out, np.multiply(scale[:, None], omega, out=weights)


def batch_outputs(X: np.ndarray, state: ModelState) -> np.ndarray:
    """Model outputs f(X_i) = nu^T X_i^T softmax(X_i W^T p) for stacked
    sequences X (n, T, d): the one dense forward pass."""
    return _attend(*_token_scores(X, state.W.T @ state.p, state.nu))[1]

