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
is independent of d.  :func:`gd_step` keeps the dense recursion on W as the
oracle the engine is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ConfigError, Dataset, Role, SignalBasis, _check_type
from .model import (ModelState, _attend, _fits, _logistic_loss, _token_scores,
                    evaluate, forward, loss_derivative)

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "TrainResult",
    "DivergenceError",
    "empirical_loss",
    "loss_derivative",
    "grad_w",
    "grad_p",
    "output_grads",
    "gd_step",
    "train",
    "finite_diff_grad",
    "central_difference",
    "lambda_token_indices",
    "gamma_token_indices",
]

# field -> kind: counts are integers, the step size and thresholds reals
_TRAIN_FIELDS = {"alpha": float, "steps": int, "log_every": int,
                 "test_size": int, "fit_threshold": float,
                 "gen_threshold": float}


@dataclass(frozen=True)
class TrainConfig:
    alpha: float
    steps: int
    log_every: int = 10
    test_size: int = 1000
    fit_threshold: float = 1.0
    gen_threshold: float = 0.95

    def __post_init__(self):
        for name, kind in _TRAIN_FIELDS.items():
            _check_type(name, getattr(self, name), kind)
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        if self.test_size < 0:
            raise ConfigError("test_size must be >= 0")
        for name in ("fit_threshold", "gen_threshold"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1], got {v}")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _TRAIN_FIELDS}

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"train config must be an object, got {type(obj).__name__}")
        unknown = set(obj) - set(_TRAIN_FIELDS)
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        if "alpha" not in obj or "steps" not in obj:
            raise ConfigError("train config requires at least alpha and steps")
        return cls(**obj)


class DivergenceError(RuntimeError):
    """Raised when a gradient or score goes non-finite; carries the partial
    trace accumulated so far (may be None for single-step calls)."""

    def __init__(self, step: int, trace=None):
        super().__init__(f"non-finite update at step {step}")
        self.step = step
        self.trace = trace


def empirical_loss(dataset: Dataset, state: ModelState) -> float:
    """(1/n) sum_i log(1 + exp(-y_i f(X_i))), evaluated log1p-stably."""
    return evaluate(dataset, state).loss


def _gbar(dataset: Dataset, state: ModelState) -> np.ndarray:
    """(1/n) sum_i l'_i y_i sum_t s_t (gamma_t - f) x_t, accumulated in a
    fixed order (no per-sample d x d intermediates)."""
    n, T, d = dataset.X.shape
    u, gamma = _token_scores(dataset.X, state.W.T @ state.p, state.nu)
    _, _, weights = _attend(u, gamma, dataset.y_train)
    return weights.reshape(n * T) @ dataset.X.reshape(n * T, d)


def grad_w(dataset: Dataset, state: ModelState) -> np.ndarray:
    """Gradient of the empirical loss in W, oriented so that the update is
    W <- W - alpha * grad_w."""
    return np.outer(state.p, _gbar(dataset, state))


def grad_p(dataset: Dataset, state: ModelState) -> np.ndarray:
    return state.W @ _gbar(dataset, state)


def output_grads(X: np.ndarray, state: ModelState):
    """Gradients of the raw output f(X) for one sequence: (df/dW, df/dp).

    Both scale exactly linearly in the head: replacing nu by c*nu multiplies
    them by c (the softmax does not depend on nu).
    """
    fw = forward(X, state)
    c = (fw.probs * (fw.token_scores - fw.output)) @ X
    return np.outer(state.p, c), state.W @ c


def gd_step(state: ModelState, dataset: Dataset, alpha: float) -> ModelState:
    """One simultaneous update of (W, p) at step size alpha."""
    g = _gbar(dataset, state)
    if not np.all(np.isfinite(g)):
        raise DivergenceError(step=0)
    gw = np.outer(state.p, g)
    gp = state.W @ g
    new = ModelState.__new__(ModelState)
    new.W = state.W - alpha * gw
    new.p = state.p - alpha * gp
    new.nu = state.nu
    return new


def central_difference(f, x: float, h: float) -> float:
    """(f(x+h) - f(x-h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_diff_grad(dataset: Dataset, state: ModelState, h: float = 1e-5):
    """Central-difference gradients of the empirical loss in every W and p
    coordinate.  O(d^2) loss evaluations: an oracle for small instances."""
    if h <= 0:
        raise ValueError("h must be positive")
    d = state.d
    W = state.W.copy()
    p = state.p.copy()
    fd_w = np.zeros((d, d))
    fd_p = np.zeros(d)

    def loss_at(Wm, pm):
        probe = ModelState.__new__(ModelState)
        probe.W, probe.p, probe.nu = Wm, pm, state.nu
        return empirical_loss(dataset, probe)

    for a in range(d):
        for b in range(d):
            orig = W[a, b]
            W[a, b] = orig + h
            up = loss_at(W, p)
            W[a, b] = orig - h
            down = loss_at(W, p)
            W[a, b] = orig
            fd_w[a, b] = (up - down) / (2.0 * h)
    for a in range(d):
        orig = p[a]
        p[a] = orig + h
        up = loss_at(W, p)
        p[a] = orig - h
        down = loss_at(W, p)
        p[a] = orig
        fd_p[a] = (up - down) / (2.0 * h)
    return fd_w, fd_p


# --------------------------------------------------------------------------
# Instrumented training
# --------------------------------------------------------------------------

def lambda_token_indices(T: int) -> np.ndarray:
    """0-based rows compared against token 1 in the relevant-token gaps
    (tokens 2..T)."""
    return np.arange(1, T)


def gamma_token_indices(T: int) -> np.ndarray:
    """0-based rows compared against token 2 in the confusing-token gaps
    (token 1, then tokens 3..T)."""
    return np.concatenate(([0], np.arange(2, T)))


@dataclass
class TrainTrace:
    """Time-indexed instrumentation of one training run.

    Arrays are indexed by logged step; ``Lambda[k, i, j]`` is the attention
    gap between token 1 and token ``lambda_token_indices(T)[j] + 1`` of
    sample i at logged step k, and ``Gamma`` likewise for token 2 against
    ``gamma_token_indices(T)``.
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
    rho_attn: np.ndarray       # (L, n, T)
    Lambda: np.ndarray         # (L, n, T-1)
    Gamma: np.ndarray          # (L, n, T-1)
    y_train: np.ndarray
    y_true: np.ndarray
    clean_idx: np.ndarray
    noisy_idx: np.ndarray
    meta: dict = field(default_factory=dict)
    diverged_at: int | None = None

    @property
    def n_logged(self) -> int:
        return len(self.steps)

    @property
    def T(self) -> int:
        return self.probs.shape[2]

    def validate(self):
        if np.any(np.diff(self.steps) <= 0):
            raise ValueError("logged steps must be strictly increasing")
        for name in ("train_loss", "probs", "Lambda", "Gamma", "rho_attn"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"trace field {name} contains non-finite values")


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
    """Accumulates one row per logged step from the engine's role-resolved
    quantities.  Test-set metrics are scored after the loop and handed to
    :meth:`finish`."""

    def __init__(self, dataset: Dataset, rho: float, hooks=()):
        self.ds = dataset
        self.rho_scale = rho
        self.hooks = hooks
        self.rows = {k: [] for k in
                     ("steps", "train_loss", "train_acc", "train_acc_true",
                      "outputs", "probs", "lambda_plus", "lambda_minus",
                      "rho_attn", "Lambda", "Gamma")}
        T = dataset.T
        self._lam_cols = lambda_token_indices(T)
        self._gam_cols = gamma_token_indices(T)
        roles = dataset.roles
        self._weak_same_cols = np.array(
            [t for t, r in enumerate(roles) if r == Role.WEAK_SAME], dtype=int)

    def log(self, step: int, u: np.ndarray, probs: np.ndarray,
            out: np.ndarray, lam_plus: float, lam_minus: float):
        ds = self.ds
        fit_train = _fits(out, ds.y_train)
        fit_true = _fits(out, ds.y_true)
        loss = float(np.mean(_logistic_loss(out, ds.y_train)))

        # noise attention: subtract each token's signal contribution to the
        # score, using lambda for the sample's true class
        lam_own = np.where(ds.y_true > 0, lam_plus, lam_minus)
        lam_opp = np.where(ds.y_true > 0, lam_minus, lam_plus)
        rho_attn = u.copy()
        rho_attn[:, 0] -= lam_own
        rho_attn[:, 1] -= self.rho_scale * lam_opp
        for t in self._weak_same_cols:
            rho_attn[:, t] -= self.rho_scale * lam_own

        r = self.rows
        r["steps"].append(step)
        r["train_loss"].append(loss)
        r["train_acc"].append(float(fit_train.mean()))
        r["train_acc_true"].append(float(fit_true.mean()))
        r["outputs"].append(out)
        r["probs"].append(probs)
        r["lambda_plus"].append(lam_plus)
        r["lambda_minus"].append(lam_minus)
        r["rho_attn"].append(rho_attn)
        r["Lambda"].append(u[:, :1] - u[:, self._lam_cols])
        r["Gamma"].append(u[:, 1:2] - u[:, self._gam_cols])
        for hook in self.hooks:
            hook(step, {"probs": probs, "outputs": out, "loss": loss,
                        "lambda_plus": lam_plus, "lambda_minus": lam_minus})

    def finish(self, meta: dict, test, diverged_at=None) -> TrainTrace:
        """Assemble the trace; ``test`` is (test_acc, test_loss) per logged
        step, or None without a test set."""
        ds = self.ds
        r = self.rows
        if test is None:
            test = (np.full(len(r["steps"]), math.nan),) * 2
        return TrainTrace(
            steps=np.array(r["steps"], dtype=np.int64),
            train_loss=np.array(r["train_loss"]),
            train_acc=np.array(r["train_acc"]),
            train_acc_true=np.array(r["train_acc_true"]),
            test_acc=test[0],
            test_loss=test[1],
            outputs=np.array(r["outputs"]),
            probs=np.array(r["probs"]),
            lambda_plus=np.array(r["lambda_plus"]),
            lambda_minus=np.array(r["lambda_minus"]),
            rho_attn=np.array(r["rho_attn"]),
            Lambda=np.array(r["Lambda"]),
            Gamma=np.array(r["Gamma"]),
            y_train=ds.y_train.copy(),
            y_true=ds.y_true.copy(),
            clean_idx=ds.clean_idx.copy(),
            noisy_idx=ds.noisy_idx.copy(),
            meta=meta,
            diverged_at=diverged_at,
        )


# Logged states scored together on the test set after the loop: bounds the
# (block, m*T) score temporaries.
_TEST_BLOCK = 32


def _test_metrics(test_set: Dataset, nu: np.ndarray, rows: np.ndarray,
                  to_scores) -> tuple[np.ndarray, np.ndarray]:
    """Test accuracy and mean logistic loss of every logged state.

    ``rows`` holds one row per state; ``to_scores`` maps a block of rows to
    the flat test scores of those states, shape (block, m*T).
    """
    m, T, d = test_set.X.shape
    y = test_set.y_true
    gamma = np.tile((test_set.X.reshape(m * T, d) @ nu).reshape(m, T),
                    (min(_TEST_BLOCK, len(rows)), 1))
    acc, loss = np.empty(len(rows)), np.empty(len(rows))
    for lo in range(0, len(rows), _TEST_BLOCK):
        scores = to_scores(rows[lo:lo + _TEST_BLOCK])
        b = scores.shape[0]
        _, out, _ = _attend(scores.reshape(b * m, T), gamma[:b * m])
        out = out.reshape(b, m)
        acc[lo:lo + b] = _fits(out, y).mean(axis=1)
        loss[lo:lo + b] = _logistic_loss(out, y).mean(axis=1)
    return acc, loss


def _log_points(steps: int, log_every: int):
    pts = set(range(0, steps + 1, log_every))
    pts.add(steps)
    return pts


# Number of steps whose rank-one terms pi beta^T of S are applied as thin
# products before one GEMM folds them into S.
_FOLD = 32


class _SubspaceEngine:
    """Exact reduced-coordinate form of the GD recursion.

    With B the (nT + 2) x d matrix stacking all training tokens plus the two
    class signals as probe rows, every gradient direction is B^T beta for
    coefficients beta supported on the token rows.  Writing

        p(t) = a(t) p0 + V pi(t),            V = W0 B^T,
        W(t) = W0 - alpha p0 r(t)^T B - alpha V S(t) B,

    the updates close over (a, pi, r, S) with the Gram matrices G = B B^T
    and Q = V^T V as the only precomputation; the per-step cost does not
    depend on d.  The attention scores of the B rows, computed once per
    step, are

        u = w - alpha G c,     c = r pdot + S^T w,
        w = V^T p = a v0 + Q pi,   pdot = p0 . p = a |p0|^2 + v0 . pi,

    with v0 = V^T p0.  S gains pi beta^T each step;
    the last few pairs wait in two buffers, enter S^T w and S G beta as thin
    products, and are folded into S by one GEMM every ``_FOLD`` steps.
    """

    def __init__(self, state0, dataset, signals, alpha):
        n, T, d = dataset.X.shape
        self.n, self.T, self.nT = n, T, n * T
        self.alpha = alpha
        tokens = dataset.X.reshape(n * T, d)
        B = np.vstack([tokens, signals.mu_plus, signals.mu_minus])
        N = self.N = B.shape[0]
        W0, p0 = state0.W, state0.p
        V = W0 @ B.T                     # (d, N)
        self.G = B @ B.T
        self.Q = V.T @ V
        self.v0 = V.T @ p0
        self.pp0 = float(p0 @ p0)
        self.gamma = (tokens @ state0.nu).reshape(n, T)
        self._W0, self._p0, self._B, self._V = W0, p0, B, V
        self._nu = state0.nu

        self.a = 1.0
        self.pi = np.zeros(N)
        self.r = np.zeros(N)
        self.S = np.zeros((N, N))
        self._beta = np.zeros(N)         # probe rows stay zero
        self._pending_pi = np.empty((_FOLD, N))
        self._pending_beta = np.empty((_FOLD, self.nT))
        self._pending = 0
        self._score()

    def _score(self):
        """Scores ``u`` of every B row at the current state (token rows,
        then the two probes) and the correction ``c`` behind them."""
        a, pi, k = self.a, self.pi, self._pending
        pdot = a * self.pp0 + self.v0 @ pi
        w = a * self.v0 + self.Q @ pi
        c = self.r * pdot + self.S.T @ w
        if k:
            c[:self.nT] += self._pending_beta[:k].T @ (self._pending_pi[:k] @ w)
        self.c = c
        self.u = w - self.alpha * (self.G @ c)

    def _fold(self):
        k = self._pending
        if k:
            self.S[:, :self.nT] += (self._pending_pi[:k].T
                                    @ self._pending_beta[:k])
            self._pending = 0

    def step(self, weights):
        """Advance one GD step given the token weights of the current
        state, then score the new state."""
        alpha, nT, k = self.alpha, self.nT, self._pending
        beta = self._beta
        beta[:nT] = weights.reshape(nT)
        Gb = self.G @ beta
        SGb = self.S @ Gb
        if k:
            SGb += self._pending_pi[:k].T @ (self._pending_beta[:k] @ Gb[:nT])
        new_a = self.a + alpha * alpha * float(self.r @ Gb)
        new_pi = self.pi - alpha * beta + alpha * alpha * SGb
        self.r += self.a * beta
        self._pending_pi[k] = self.pi
        self._pending_beta[k] = beta[:nT]
        self._pending = k + 1
        if self._pending == _FOLD:
            self._fold()
        self.a, self.pi = new_a, new_pi
        self._score()

    def coefficients(self, row):
        """Write the current state's row (a, pi, -alpha c) into ``row``:
        W^T p = [W0^T p0 | W0^T V | B^T] @ row."""
        N = self.N
        row[0] = self.a
        row[1:N + 1] = self.pi
        np.multiply(self.c, -self.alpha, out=row[N + 1:])

    def test_scorer(self, test_set, L):
        """A map from a block of coefficient rows to the flat test scores
        (block, m*T) of those states, for L logged states.

        With more states than basis columns 2N + 1, the test tokens are
        projected onto the basis here, once, and each block is one GEMM.
        Otherwise each state's W^T p is formed in d dimensions and the
        tokens are multiplied by it, which never forms W0^T V.
        """
        N, W0, p0, V, B = self.N, self._W0, self._p0, self._V, self._B
        flat_test = test_set.X.reshape(test_set.n * self.T, -1)
        if L > 2 * N + 1:
            proj = np.empty((2 * N + 1, flat_test.shape[0]))
            np.matmul(p0 @ W0, flat_test.T, out=proj[0])
            np.matmul(V.T @ W0, flat_test.T, out=proj[1:N + 1])
            np.matmul(B, flat_test.T, out=proj[N + 1:])
            return lambda rows: rows @ proj

        def scores(rows):
            p = np.outer(rows[:, 0], p0) + rows[:, 1:N + 1] @ V.T
            return (p @ W0 + rows[:, N + 1:] @ B) @ flat_test.T
        return scores

    def materialize(self):
        self._fold()
        W = (self._W0
             - self.alpha * np.outer(self._p0, self._B.T @ self.r)
             - self.alpha * ((self._V @ self.S) @ self._B))
        p = self.a * self._p0 + self._V @ self.pi
        final = ModelState.__new__(ModelState)
        final.W, final.p, final.nu = W, p, self._nu
        return final


def train(state0: ModelState, dataset: Dataset, signals: SignalBasis,
          config: TrainConfig, test_set: Dataset | None = None,
          hooks=(), meta: dict | None = None,
          raise_on_divergence: bool = True) -> TrainResult:
    """Run ``config.steps`` full-batch GD iterations with instrumentation.

    Logs step 0, every ``log_every``-th step, and the final step: losses,
    accuracies (training labels, true labels, held-out clean set), softmax
    vectors, signal/noise attention and both attention-gap families.  Hooks
    see each logged step as it happens; the held-out set is scored for all
    logged steps after the loop.  When an update or the scores it leads to
    go non-finite, training stops; the partial trace is preserved and a
    :class:`DivergenceError` carrying it is raised unless
    ``raise_on_divergence`` is False.
    """
    recorder = _Recorder(dataset, dataset.config.rho, hooks=hooks)
    eng = _SubspaceEngine(state0, dataset, signals, config.alpha)
    n, T, nT = eng.n, eng.T, eng.nT
    log_at = _log_points(config.steps, config.log_every)
    y = dataset.y_train
    coefs = np.empty((len(log_at), 2 * eng.N + 1))
    scorer = (eng.test_scorer(test_set, len(coefs)) if test_set is not None
              else None)
    logged = 0
    diverged_at = None

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps + 1):
            if step:
                eng.step(weights)
            u_all = eng.u
            if not np.all(np.isfinite(u_all)):
                diverged_at = step
                break
            u = u_all[:nT].reshape(n, T)
            probs, out, weights = _attend(u, eng.gamma, y)
            if step in log_at:
                eng.coefficients(coefs[logged])
                logged += 1
                recorder.log(step, u, probs, out, float(u_all[nT]),
                             float(u_all[nT + 1]))

    test = (_test_metrics(test_set, state0.nu, coefs[:logged], scorer)
            if scorer is not None else None)
    full_meta = {"alpha": config.alpha, "steps": config.steps,
                 "log_every": config.log_every, "n": dataset.n, "T": dataset.T,
                 "d": dataset.d, "rho": dataset.config.rho,
                 "eta": dataset.config.eta, "mu_norm": dataset.config.mu_norm,
                 "sigma_eps": dataset.config.sigma_eps}
    if meta:
        full_meta.update(meta)
    trace = recorder.finish(full_meta, test, diverged_at=diverged_at)
    result = TrainResult(trace, eng.materialize)
    if diverged_at is not None and raise_on_divergence:
        raise DivergenceError(diverged_at, trace)
    return result
