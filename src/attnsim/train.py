"""Full-batch gradient descent on the attention parameters (W, p).

Closed-form gradients: with per-sample softmax s, token scores gamma and
output f = <s, gamma>, define the aggregated token direction
c_i = sum_t s_t (gamma_t - f) x_t.  Then

    grad_W = p gbar^T,   grad_p = W gbar,
    gbar   = (1/n) sum_i l'(y_i f_i) y_i c_i,

where l(z) = log(1 + exp(-z)).  Both parameters are updated from the same
pre-step state (simultaneous update).

:func:`train` runs the recursion in one engine, an exact
reparameterization: every update lives in span{p(0)} + W(0) * span{tokens},
so the whole trajectory is advanced with Gram-matrix recursions whose cost
is independent of d.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import ConfigError, DataConfig, Dataset, SignalBasis, _Section
from .model import (InitDraw, ModelState, _attend, _attend_work,
                    _fit_loss_means, _fits, _token_scores, batch_outputs,
                    loss_derivative)

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "TrainResult",
    "DivergenceError",
    "loss_derivative",
    "grad_w",
    "grad_p",
    "train",
    "projects_test_set",
    "finite_diff_grad",
    "central_difference",
    "attention_gaps",
]


@dataclass(frozen=True)
class TrainConfig(_Section):
    alpha: float
    steps: int
    log_every: int = 10
    test_size: int = 1000

    def __post_init__(self):
        super().__post_init__()
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        if self.test_size < 0:
            raise ConfigError("test_size must be >= 0")


class DivergenceError(RuntimeError):
    """Raised when a gradient or score goes non-finite; carries the run's
    ``divergence`` record."""

    def __init__(self, record: dict):
        self.divergence = record
        if record["last_finite"] is None:       # step 0: no state was finite
            message = ("non-finite {quantity} at step {step}, before any "
                       "finite state".format(**record))
        else:
            message = ("non-finite {quantity} at step {step}; last finite "
                       "{last_finite}".format(**record))
        super().__init__(message)


def empirical_loss(dataset: Dataset, state: ModelState) -> float:
    """(1/n) sum_i log(1 + exp(-y_i f(X_i))), evaluated log1p-stably: the
    loss half of :func:`_fit_loss_means` of the dense outputs."""
    return float(_fit_loss_means(batch_outputs(dataset.X, state),
                                 dataset.y_train)[1])


def _score_dense(dataset: Dataset, state: ModelState):
    """The batch scored once at a dense ``state``: the scores u (n, T), the
    :func:`_attend` workspace they fill (:func:`_attend_work`, then the
    weights), and gbar, the weights summed against the tokens in a fixed
    order.  Non-finite scores raise the ValueError of ``softmax``."""
    n, T, d = dataset.X.shape
    u, gamma = _token_scores(dataset.X, state.W.T @ state.p, state.nu)
    if not np.isfinite(u).all():
        raise ValueError("softmax input must be finite")
    work = (*_attend_work(n, T), np.empty((n, T)))
    _attend(u, gamma, dataset.y_train, work)
    return u, work, work[-1].reshape(n * T) @ dataset.X.reshape(n * T, d)


def grad_w(dataset: Dataset, state: ModelState) -> np.ndarray:
    """Gradient of the empirical loss in W, oriented so that the update is
    W <- W - alpha * grad_w."""
    return np.outer(state.p, _score_dense(dataset, state)[2])


def grad_p(dataset: Dataset, state: ModelState) -> np.ndarray:
    return state.W @ _score_dense(dataset, state)[2]


def central_difference(f, x: float, h: float) -> float:
    """(f(x+h) - f(x-h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_diff_grad(dataset: Dataset, state: ModelState, h: float = 1e-5):
    """Central-difference gradients of the empirical loss in every W and p
    coordinate.  O(d^2) loss evaluations: an oracle for small instances."""
    if h <= 0:
        raise ValueError("h must be positive")
    d = state.d
    theta = np.concatenate([state.W.ravel(), state.p])
    probe = ModelState.__new__(ModelState)     # views of theta
    probe.W, probe.p, probe.nu = (theta[:d * d].reshape(d, d), theta[d * d:],
                                  state.nu)

    def loss_at(i, value):
        theta[i] = value
        return empirical_loss(dataset, probe)

    fd = np.empty_like(theta)
    for i, orig in enumerate(theta.copy()):
        fd[i] = central_difference(lambda v: loss_at(i, v), orig, h)
        theta[i] = orig
    return fd[:d * d].reshape(d, d), fd[d * d:]


# --------------------------------------------------------------------------
# Instrumented training
# --------------------------------------------------------------------------

def attention_gaps(scores: np.ndarray):
    """Both attention-gap families of attention scores (..., T).

    ``Lambda[..., j]`` is the gap of token 1 over token j + 2 (tokens
    2..T), ``Gamma[..., j]`` that of token 2 over token 1, then over tokens
    3..T.  ``Gamma[..., 0] == -Lambda[..., 0]`` exactly (both compare
    tokens 1 and 2).
    """
    return (scores[..., :1] - scores[..., 1:],
            scores[..., 1:2] - np.delete(scores, 1, axis=-1))


@dataclass
class TrainTrace:
    """Time-indexed instrumentation of one training run.

    Arrays are indexed by logged step; ``scores[k, i, t]`` is the attention
    score of token t + 1 of sample i at logged step k, from which
    ``Lambda`` and ``Gamma`` are derived by :func:`attention_gaps`.
    """

    steps: np.ndarray
    train_loss: np.ndarray
    train_acc: np.ndarray
    train_acc_true: np.ndarray
    test_acc: np.ndarray
    test_loss: np.ndarray
    outputs: np.ndarray        # (L, n)
    probs: np.ndarray          # (L, n, T)
    lambda_plus: np.ndarray    # (L,)
    lambda_minus: np.ndarray   # (L,)
    scores: np.ndarray         # (L, n, T)
    y_train: np.ndarray
    y_true: np.ndarray
    clean_idx: np.ndarray
    noisy_idx: np.ndarray
    meta: dict = field(default_factory=dict)
    divergence: dict | None = None     # _SubspaceEngine.divergence record

    @property
    def diverged_at(self) -> int | None:
        return self.divergence["step"] if self.divergence else None

    @property
    def n_logged(self) -> int:
        return len(self.steps)

    @property
    def T(self) -> int:
        return self.probs.shape[2]

    @property
    def Lambda(self) -> np.ndarray:
        """(L, n, T-1) gaps of token 1 over tokens 2..T."""
        return attention_gaps(self.scores)[0]

    @property
    def Gamma(self) -> np.ndarray:
        """(L, n, T-1) gaps of token 2 over token 1, then tokens 3..T."""
        return attention_gaps(self.scores)[1]


class TrainResult:
    """Trace plus deferred access to the final parameters."""

    def __init__(self, trace: TrainTrace, finalizer):
        self.trace = trace
        self._finalizer = finalizer
        self._state = None

    def final_state(self) -> ModelState:
        if self._state is None:
            self._state = self._finalizer()
        return self._state


class _Recorder:
    """Writes one row per logged step, the scores of every B row (training
    tokens, then the two class-signal probes), the softmax and the outputs,
    into arrays sized for the run's log points.  Test-set metrics are
    scored beside the loop and handed to :meth:`finish`."""

    def __init__(self, dataset: Dataset, n_log: int, n_rows: int, hooks=()):
        self.ds = dataset
        self.hooks = hooks
        n, T = dataset.n, dataset.T
        self.nT = n * T
        self.steps = np.empty(n_log, dtype=np.int64)
        self.scores = np.empty((n_log, n_rows))
        self.probs = np.empty((n_log, n, T))
        self.outputs = np.empty((n_log, n))

    def log(self, k: int, step: int, u_all: np.ndarray, probs: np.ndarray,
            out: np.ndarray):
        """Write logged row ``k``."""
        self.steps[k] = step
        self.scores[k] = u_all
        self.probs[k] = probs
        self.outputs[k] = out
        for hook in self.hooks:
            hook(step, {"probs": self.probs[k], "outputs": self.outputs[k],
                        "lambda_plus": float(u_all[self.nT]),
                        "lambda_minus": float(u_all[self.nT + 1])})

    def finish(self, logged: int, meta: dict, test,
               divergence=None) -> TrainTrace:
        """Assemble the trace of the first ``logged`` rows; ``test`` is
        (test_acc, test_loss) per logged step, or None without a test
        set."""
        ds, nT = self.ds, self.nT
        u, out = self.scores[:logged], self.outputs[:logged]
        probs = self.probs[:logged]
        if test is None:
            test = (np.full(logged, math.nan),) * 2
        train_acc, train_loss = _fit_loss_means(out, ds.y_train)
        return TrainTrace(
            steps=self.steps[:logged],
            train_loss=train_loss,
            train_acc=train_acc,
            train_acc_true=_fits(out, ds.y_true).mean(axis=1),
            test_acc=test[0],
            test_loss=test[1],
            outputs=out,
            probs=probs,
            lambda_plus=u[:, nT],
            lambda_minus=u[:, nT + 1],
            scores=u[:, :nT].reshape(probs.shape),
            y_train=ds.y_train.copy(),
            y_true=ds.y_true.copy(),
            clean_idx=ds.clean_idx.copy(),
            noisy_idx=ds.noisy_idx.copy(),
            meta=meta,
            divergence=divergence,
        )


# The scoring thread waits for the interpreter lock after each numpy call
# that released it, up to one switch interval (5 ms) while the loop thread
# holds it, so it scores and draws in few, large calls.
#
# Logged states scored together on the test set; bounds the (block, m*T)
# score temporaries.  A state's metrics can depend on the block size in
# their last bits, since OpenBLAS may round a row of a product differently
# for another row count: it did for single rows and for small direct-branch
# products.  Blocks of 32 and 128 gave the same bits at the acceptance
# points.
_TEST_BLOCK = 128
# The test set is read in this many chunks: see _test_chunk.
_TEST_CHUNKS = 6


def _test_chunk(m: int) -> int:
    """Test samples read, and on the projection branch drawn, at a time:
    m / ``_TEST_CHUNKS`` rounded up to a multiple of 8, so that about that
    share of the tokens is held at once and every chunk but a short last
    one has a multiple of 8 token rows.  Products over such chunks came out
    bit-equal to one product over all the tokens under OpenBLAS (which
    does not promise it)."""
    return 8 * -(-m // (8 * _TEST_CHUNKS))


class _TestScoring:
    """Test accuracy and mean logistic loss of every logged state, scored
    on a worker thread while the loop runs.

    The worker first forms the test scores gamma and the engine's
    ``test_scorer``, then scores each block of ``_TEST_BLOCK`` rows of
    ``coefs`` handed to :meth:`submit` once the loop has written them, in
    one product and a dozen passes over the block's scores.  Blocks are
    scored in order, with the expressions of a serial pass; a block whose
    setup or earlier block failed is not scored.
    """

    def __init__(self, eng, test_set: Dataset, coefs: np.ndarray,
                 projected: bool):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.stopped = threading.Event()
        self.coefs, self.y = coefs, test_set.y_true
        self.acc, self.loss = np.empty(len(coefs)), np.empty(len(coefs))
        self.submitted = 0
        self.jobs = [self.pool.submit(self._setup, eng, test_set, projected)]

    def _setup(self, eng, test_set, projected):
        gamma, self.to_scores = eng.test_scorer(test_set, projected,
                                                self.stopped)
        self.gamma = np.tile(gamma, (min(_TEST_BLOCK, len(self.coefs)), 1))

    def _block_after(self, prev, lo, hi):
        prev.result()
        self._block(lo, hi)

    def _block(self, lo, hi):
        m, b = len(self.y), hi - lo
        scores = self.to_scores(self.coefs[lo:hi])
        _, out, _ = _attend(scores.reshape(b * m, -1), self.gamma[:b * m])
        self.acc[lo:hi], self.loss[lo:hi] = _fit_loss_means(
            out.reshape(b, m), self.y)

    def submit(self, logged: int):
        """Queue rows up to ``logged`` for scoring; the error of a block
        that has already failed is raised here instead."""
        for job in self.jobs:
            if job.done():
                job.result()
        self.jobs.append(self.pool.submit(self._block_after, self.jobs[-1],
                                          self.submitted, logged))
        self.submitted = logged

    def result(self, logged: int) -> tuple[np.ndarray, np.ndarray]:
        """Score the rows left, wait for every block and return the metrics
        of the first ``logged`` states; a worker's error is raised here."""
        if logged > self.submitted:
            self.submit(logged)
        for job in self.jobs:
            job.result()
        return self.acc[:logged], self.loss[:logged]

    def close(self):
        """End the worker: a test draw still running stops at its next
        chunk, blocks not yet started are cancelled, and the thread is
        joined.  The scorer, which may hold W(0), is dropped."""
        self.stopped.set()
        self.pool.shutdown(cancel_futures=True)
        self.to_scores = None


def _log_points(steps: int, log_every: int):
    return set(range(0, steps + 1, log_every)) | {steps}


def projects_test_set(data: DataConfig, config: TrainConfig) -> bool:
    """Whether :func:`train` scores the held-out set through its projection
    onto the basis ``[W0^T P | B^T]``, reading the test tokens chunk by
    chunk on its scoring thread, rather than through each logged state's
    ``W^T p`` against test tokens held whole.  With N = nT + 2 basis rows
    and L logged states, the projection's one (N + 1) d^2 product
    ``P^T W0`` costs less than forming L states' ``W^T p`` at d^2 each
    once L > N + 1.  (Against the m T test tokens the projection costs
    (2N + 1) d m T and the direct branch L d m T; only the projection
    never holds the tokens.)"""
    logged = len(_log_points(config.steps, config.log_every))
    return logged > data.n * data.T + 3


# Number of steps whose rank-one terms wait beside L and Z before one GEMM
# folds them in.
_FOLD = 32


class _SubspaceEngine:
    """Exact reduced-coordinate form of the GD recursion.

    With B the (nT + 2) x d matrix stacking all training tokens plus the two
    class signals as probe rows, every gradient direction is B^T beta for
    coefficients beta supported on the token rows.  With P = [p0 | W0 B^T],

        p(t) = P x(t),   W(t) = W0 - alpha P Z(t) B,   x = [a; pi],

    each step adds x beta^T to Z = [r^T; S] and alpha^2 Z G beta -
    alpha [0; beta] to x, where G = B B^T.  The scores of the B rows are
    u = w - alpha M K x with K = P^T P, M = G Z^T and w = V^T p the last
    entries of K x.  Kept as L = J - alpha M, J = [0 | I], M gives u = L K x
    and, as Z G beta = M^T beta, the new x = x + L^T bt, bt = -alpha beta.
    So a step is three matrix-vector products whatever d is: bt against
    the token rows of [G | L], K x, and L K x.  L gains (G bt) x^T per step;
    the last few terms wait as columns G bt_j beside L and rows K x_j below
    K, where the same products pick them up, and one GEMM every ``_FOLD``
    steps folds them into L (and their x_j beta_j^T into Z).
    """

    def __init__(self, state0, dataset, signals, alpha):
        n, T, d = dataset.X.shape
        self.n, self.T, self.nT = n, T, n * T
        self.alpha = alpha
        # the products formed beside the draw of W(0), if they are of its
        # basis on this dataset; an unset B must not match tokens that own
        # their memory
        init = state0.init
        if init is None or init.B is None or dataset.X.base is not init.B:
            init = InitDraw.of(state0.W, dataset, signals)
        B, P = init.B, init.P
        tokens = dataset.X.reshape(n * T, d)
        N = self.N = B.shape[0]
        P[:, 0] = state0.p
        # [G | L | pending G bt_j] and [K; pending K x_j]
        self._GL = np.zeros((N, 2 * N + 1 + _FOLD))
        np.matmul(B, B.T, out=self._GL[:, :N])
        self._GL[:, N + 1:2 * N + 1] = np.eye(N)
        self._KP = np.empty((N + 1 + _FOLD, N + 1))
        self.gamma = (tokens @ state0.nu).reshape(n, T)
        # W(0) is read through state0, which may drop it (and redraw it)
        self._state0, self._B, self._P, self._nu = state0, B, P, state0.nu

        self.x = np.r_[1.0, np.zeros(N)]
        self.Z = np.zeros((N + 1, N))    # probe columns stay zero
        self._pending_x = np.empty((_FOLD, N + 1))
        self._pending_beta = np.empty((_FOLD, self.nT))
        self._pending = 0
        # a step and the loop's _attend write into buffers allocated here,
        # through views built here for each pending count k: g = [G bt;
        # L^T bt; (G bt_j . bt)_j], bt, Kx, the _attend workspace with
        # beta_k as its weights row, and two of u, each with its token
        # rows as ``scores`` (n, T), used in turn so that the previous
        # step's stay readable (divergence); x is updated in place
        nT, g = self.nT, np.empty(2 * N + 1 + _FOLD)
        self._bt, self._Kx = np.empty(nT), np.empty(N + 1 + _FOLD)
        self._G_bt, self._Lt_bt = g[:N], g[N:2 * N + 1]
        self._K_x, self._dots = self._Kx[:N + 1], np.empty(N + 1)
        u = np.empty((2, N))
        scores = u[:, :nT].reshape(2, n, T)
        self.u, self.scores = u[0], scores[0]
        self._spare = u[1], scores[1]
        self._step_at = [(
            self._GL[:nT, :2 * N + 1 + k], g[:2 * N + 1 + k],
            g[2 * N + 1:2 * N + 1 + k], self._pending_x[:k].T,
            self._pending_x[k], self._pending_beta[k],
            self._GL[:, 2 * N + 1 + k], self._KP[N + 1 + k])
            for k in range(_FOLD)]
        self._score_at = [(self._KP[:N + 1 + k], self._Kx[:N + 1 + k],
                           self._GL[:, N:2 * N + 1 + k])
                          for k in range(_FOLD)]
        attend = _attend_work(n, T)
        self._work_at = [(*attend, beta.reshape(n, T))
                         for beta in self._pending_beta]
        # an overflowing V gives non-finite step-0 scores, which train
        # reports as a divergence at step 0, as its loop does later ones
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(P.T, P, out=self._KP[:N + 1])
            self._score()

    def _score(self):
        """Scores ``u`` of every B row at the current state (token rows,
        then the two probes), and ``Kx`` = [K x; (K x_j . x)_j]."""
        KP, Kx, L = self._score_at[self._pending]
        self.Kx = np.matmul(KP, self.x, Kx)
        np.matmul(L, Kx, self.u)

    def _fold(self):
        k = self._pending
        if k:
            N, x = self.N, self._pending_x[:k]
            self._GL[:, N:2 * N + 1] += self._GL[:, 2 * N + 1:][:, :k] @ x
            self.Z[:, :self.nT] += x.T @ self._pending_beta[:k]
            self._pending = 0

    @property
    def work(self) -> tuple:
        """The :func:`_attend` workspace of the current state: the token
        weights (n, T) written into its last entry are those :meth:`step`
        reads."""
        return self._work_at[self._pending]

    def step(self):
        """Advance one GD step by the token weights written into
        :attr:`work`, then score the new state."""
        k = self._pending
        GL, g, g_dots, pending_xT, x_row, beta, G_col, K_row = \
            self._step_at[k]
        np.matmul(np.multiply(beta, -self.alpha, self._bt), GL, g)
        x_row[...] = self.x
        if k:
            dots = np.matmul(pending_xT, g_dots, self._dots)
            self.x += np.add(self._Lt_bt, dots, dots)
        else:
            self.x += self._Lt_bt
        G_col[...] = self._G_bt
        K_row[...] = self._K_x
        # the step before's x stays in its pending row, its u in the spare
        self._prev = x_row, beta
        (self.u, self.scores), self._spare = self._spare, (self.u,
                                                           self.scores)
        self._pending = k + 1
        if self._pending == _FOLD:
            self._fold()
        self._score()

    def divergence(self, step):
        """The record of non-finite scores at ``step``: the first of that
        step's weights beta, a, pi and scores u to go non-finite, and the
        last finite max|u|, a and ||pi||."""
        if step == 0:
            return {"step": 0, "quantity": "u", "last_finite": None}
        (x, beta), u = self._prev, self._spare[0]
        named = {"beta": beta, "a": self.x[:1], "pi": self.x[1:], "u": self.u}
        last = {"max_abs_u": float(np.abs(u).max()), "a": float(x[0]),
                "pi_norm": float(np.linalg.norm(x[1:]))}
        return {"step": step, "last_finite": last, "quantity": next(
            k for k, v in named.items() if not np.isfinite(v).all())}

    def coefficients(self, row):
        """Write the current state's row (x, -alpha c) with c = Z^T K x
        into ``row``: W^T p = [W0^T P | B^T] @ row."""
        N, nT, k = self.N, self.nT, self._pending
        c = self.Z.T @ self.Kx[:N + 1]
        if k:
            c[:nT] += self._pending_beta[:k].T @ self.Kx[N + 1:]
        row[:N + 1] = self.x
        np.multiply(c, -self.alpha, out=row[N + 1:])

    def test_scorer(self, test_set, projected, stopped):
        """The test tokens' head scores gamma (m, T), and a map from a block
        of coefficient rows to the flat test scores (block, m*T) of those
        states.

        ``projected``: the tokens are projected onto the basis once, by
        :meth:`test_projection`, and each block is one GEMM.  Otherwise the
        tokens are held, and each state's W^T p is formed in d dimensions
        and the tokens are multiplied by it, which never forms W0^T V.
        """
        if projected:
            gamma, proj = self.test_projection(test_set, stopped)
            return gamma, lambda rows: rows @ proj
        N, W0, P, B = self.N, self._state0.W, self._P, self._B
        flat_test = test_set.X.reshape(test_set.n * self.T, -1)
        gamma = (flat_test @ self._nu).reshape(test_set.n, self.T)

        def scores(rows):
            return ((rows[:, :N + 1] @ P.T) @ W0
                    + rows[:, N + 1:] @ B) @ flat_test.T
        return gamma, scores

    def test_projection(self, test_set, stopped):
        """The test tokens' head scores gamma (m, T) and their projection
        (2N + 1, m*T) onto ``[P^T W0; B]``, the rows that map a coefficient
        row to W^T p, formed by one product per chunk of
        :func:`_test_chunk` samples.  The chunks are drawn one by one when
        the test set does not hold them, and each is dropped once reduced.
        W(0) is released once ``P^T W0`` is formed, its last reader on this
        branch.  Once ``stopped`` is set, the draw ends at the next chunk
        with :class:`CancelledError`."""
        N, T, B = self.N, self.T, self._B
        basis = np.empty((2 * N + 1, B.shape[1]))
        np.matmul(self._P.T, self._state0.W, out=basis[:N + 1])
        self._state0.release()
        basis[N + 1:] = B     # after the release: W(0)'s peak stays
        gamma = np.empty(test_set.n * T)
        proj = np.empty((2 * N + 1, test_set.n * T))
        lo = 0
        for chunk in test_set.token_chunks(_test_chunk(test_set.n)):
            flat = chunk.reshape(len(chunk) * T, -1)
            hi = lo + len(flat)
            np.matmul(flat, self._nu, out=gamma[lo:hi])
            np.matmul(basis, flat.T, out=proj[:, lo:hi])
            lo = hi
            del chunk, flat     # before the next chunk is drawn
            if stopped.is_set():
                raise CancelledError("test draw stopped")
        return gamma.reshape(test_set.n, T), proj

    def materialize(self):
        self._fold()
        W = (self._P @ self.Z) @ self._B
        W *= -self.alpha
        W += self._state0.W
        final = ModelState.__new__(ModelState)
        final.W, final.p, final.nu = W, self._P @ self.x, self._nu
        return final


def train(state0: ModelState, dataset: Dataset, signals: SignalBasis,
          config: TrainConfig, test_set: Dataset | None = None,
          hooks=()) -> TrainResult:
    """Run ``config.steps`` full-batch GD iterations with instrumentation.

    Logs step 0, every ``log_every``-th step, and the final step: losses,
    accuracies (training labels, true labels, held-out clean set), outputs,
    softmax vectors, attention scores and the class-signal attention
    lambda_+-.  Hooks see each logged step as it happens, with its softmax,
    outputs and lambda_+-.  The held-out set is scored on a second thread
    while the loop runs, each block of logged states once the loop has
    logged it, so hooks see test metrics only in the finished trace; an
    error raised there stops the loop at the next block and is raised
    here.  When :func:`projects_test_set` holds, that thread reads the
    test tokens chunk by chunk, drawing them if ``test_set`` was generated
    lazy, and an error raised in the loop stops that draw at its next
    chunk.  When an update or the scores it leads to go non-finite,
    training stops and the partial trace is returned, its ``divergence``
    the engine's record of the step.  The engine's basis B and
    V = W(0) B^T are those ``state0``'s :class:`InitDraw` formed beside
    the draw when ``dataset``'s tokens are a view of its B; otherwise they
    are formed here, over the same row blocks.  A drawn W(0) is released
    at its last read: once V is formed without a test set, once the
    projection is formed on the projection branch, and after the last
    scored block on the direct branch.
    """
    eng = _SubspaceEngine(state0, dataset, signals, config.alpha)
    log_at = _log_points(config.steps, config.log_every)
    recorder = _Recorder(dataset, len(log_at), eng.N, hooks=hooks)
    y = dataset.y_train
    coefs = np.empty((len(log_at), 2 * eng.N + 1))
    logged = 0
    divergence = None

    # a scoring error stops the loop at the next block boundary; the
    # blocks still queued are then cancelled, not scored
    scoring = (_TestScoring(eng, test_set, coefs,
                            projects_test_set(dataset.config, config))
               if test_set is not None else None)
    if scoring is None:
        state0.release()
    zeros = np.zeros(eng.N)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(config.steps + 1):
                if step:
                    eng.step()
                u_all = eng.u
                # 0 u_i is NaN exactly where u_i is NaN or +-inf
                if math.isnan(np.dot(u_all, zeros)):
                    divergence = eng.divergence(step)
                    break
                probs, out, _ = _attend(eng.scores, eng.gamma, y, eng.work)
                if step in log_at:
                    eng.coefficients(coefs[logged])
                    recorder.log(logged, step, u_all, probs, out)
                    logged += 1
                    if scoring is not None and logged % _TEST_BLOCK == 0:
                        scoring.submit(logged)
        test = scoring.result(logged) if scoring is not None else None
    finally:
        if scoring is not None:
            scoring.close()
        state0.release()
    meta = {"alpha": config.alpha, "steps": config.steps,
            "log_every": config.log_every, "n": dataset.n, "T": dataset.T,
            "d": dataset.d, "rho": dataset.config.rho,
            "eta": dataset.config.eta, "mu_norm": dataset.config.mu_norm,
            "sigma_eps": dataset.config.sigma_eps}
    trace = recorder.finish(logged, meta, test, divergence=divergence)
    return TrainResult(trace, eng.materialize)
