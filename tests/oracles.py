"""Reference paths that only the tests read: whole multiclass datasets,
the dense multiclass forward with its cross-entropy gradients, the
gradients of one binary output, the per-output logistic loss, the
attention of a dense state, the dense GD step on W and the exact changes
of one GD step.  The library's own paths are checked against them."""
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from attnsim.data import Dataset
from attnsim.model import ModelState, _attend, _token_scores, softmax
from attnsim.multiclass import MulticlassConfig, _draw_labels, _draw_tokens
from attnsim.theory import _tracked_rows
from attnsim.train import _score_dense


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


def generate_multiclass_dataset(config: MulticlassConfig, mus: np.ndarray,
                                n: int,
                                rng: np.random.Generator) -> MulticlassDataset:
    """n samples drawn whole, with the streams and bits of one
    ``head_gradient_estimate`` batch."""
    tok_rng, y_true, weak, y_train = _draw_labels(n, config, rng)
    X = _draw_tokens(config, mus, tok_rng, y_true, weak,
                     np.empty((n, config.T, config.d)))
    return MulticlassDataset(X=X, y_train=y_train, y_true=y_true,
                             weak_classes=weak, K=config.K)


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


def forward_multiclass(dataset: MulticlassDataset, state: MulticlassState):
    """Softmax, pooled tokens, class probabilities and per-sample losses."""
    n, T, d = dataset.X.shape
    flat = dataset.X.reshape(n * T, d)
    attn = (flat @ (state.W.T @ state.p)).reshape(n, T)
    s = softmax(attn)
    pooled = np.einsum("it,itd->id", s, dataset.X)
    logits = pooled @ state.W_V          # (n, K)
    shift = logits - logits.max(axis=1, keepdims=True)
    logZ = np.log(np.exp(shift).sum(axis=1)) + logits.max(axis=1)
    q = softmax(logits)
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
    s, pooled, q, losses = forward_multiclass(dataset, state)
    # h_i = sum_k q_k nu_k - nu_{y_i}: the loss gradient in the pooled token
    h = q @ state.W_V.T - state.W_V.T[dataset.y_train]      # (n, d)
    gamma = np.einsum("itd,id->it", dataset.X, h)
    omega = s * (gamma - np.einsum("it,it->i", s, gamma)[:, None])
    g = (omega.reshape(n * T) @ dataset.X.reshape(n * T, d)) / n
    return float(losses.mean()), np.outer(state.p, g), state.W @ g


def grad_wv(dataset: MulticlassDataset, state: MulticlassState) -> np.ndarray:
    """Gradient of the mean cross-entropy in the head matrix (d, K)."""
    n = dataset.n
    _, pooled, q, _ = forward_multiclass(dataset, state)
    coeff = q.copy()
    coeff[np.arange(n), dataset.y_train] -= 1.0
    return pooled.T @ coeff / n


def output_grads(X: np.ndarray, state: ModelState):
    """Gradients of the raw output f(X) for one sequence: (df/dW, df/dp).

    Both scale exactly linearly in the head: replacing nu by c*nu multiplies
    them by c (the softmax does not depend on nu).
    """
    u, gamma = _token_scores(X[None], state.W.T @ state.p, state.nu)
    probs, out, _ = _attend(u, gamma)
    c = (probs * (gamma - out[:, None]))[0] @ X
    return np.outer(state.p, c), state.W @ c


def logistic_loss(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-output logistic loss log(1 + exp(-y f)), evaluated stably."""
    return np.logaddexp(0.0, -y * out)


def dense_attention(state: ModelState, dataset: Dataset):
    """The attention scores X W^T p (n, T) of a dense state, and
    r = A W^T p over the tracked rows: lambda_+/- = r[:2], rho = r[2:]."""
    q = state.W.T @ state.p
    return (_token_scores(dataset.X, q, state.nu)[0],
            _tracked_rows(dataset) @ q)


def gd_step(state: ModelState, dataset: Dataset, alpha: float) -> ModelState:
    """One simultaneous update of (W, p) at step size alpha, dense in W:
    the recursion the training engine reparameterizes."""
    g = _score_dense(dataset, state)[2]
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite gradient")
    gw = np.outer(state.p, g)
    gp = state.W @ g
    new = ModelState.__new__(ModelState)
    new.W = state.W - alpha * gw
    new.p = state.p - alpha * gp
    new.nu = state.nu
    return new


def exact_update_changes(W0, p0, g, A, alpha):
    """Delta r = Delta(A W^T p), Delta G = Delta((A W^T)(A W^T)^T) and
    Delta ||p||^2 over one GD step in exact rational arithmetic: from the
    float W0, p0, g, A and alpha, through the unrounded step
    W1 = W0 - alpha p0 g^T, p1 = p0 - alpha W0 g.  Object arrays of
    Fractions (and a Fraction)."""
    W0, p0, g, A = (np.vectorize(Fraction, otypes=[object])(x)
                    for x in (W0, p0, g, A))
    alpha = Fraction(alpha)
    W1 = W0 - alpha * np.outer(p0, g)
    p1 = p0 - alpha * (W0 @ g)
    B0, B1 = A @ W0.T, A @ W1.T
    return B1 @ p1 - B0 @ p0, B1 @ B1.T - B0 @ B0.T, p1 @ p1 - p0 @ p0
