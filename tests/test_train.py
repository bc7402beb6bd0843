import importlib
import math
import threading
import tracemalloc
from concurrent import futures
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnsim.data import (ConfigError, DataConfig, a8_sigma, generate_dataset,
                          make_signals)
from attnsim.model import (ModelState, _attend, _fits, batch_outputs,
                           init_params, make_head, softmax)
from attnsim.rng import stream
from attnsim.theory import rel_err
from attnsim.train import (_FOLD, _TEST_BLOCK, DivergenceError,
                           TrainConfig, _log_points, _SubspaceEngine,
                           _test_chunk, _TestScoring, attention_gaps,
                           central_difference, empirical_loss,
                           finite_diff_grad, grad_p, grad_w, loss_derivative,
                           projects_test_set, train)

from oracles import dense_attention, gd_step, logistic_loss, output_grads

train_mod = importlib.import_module("attnsim.train")


def make_instance(seed=0, n=4, T=3, d=8, sigma=0.5):
    cfg = DataConfig(n=n, T=T, d=d, mu_norm=2.0, sigma_eps=1.0, eta=0.25,
                     rho=0.3, n_weak_same=1)
    rng = stream(seed, "inst")
    sig = make_signals(d, cfg.mu_norm, rng)
    ds = generate_dataset(cfg, sig, rng)
    W = rng.normal(0.0, sigma, size=(d, d))
    p = rng.normal(0.0, sigma, size=d)
    nu = rng.normal(0.0, sigma, size=d)
    return ds, sig, ModelState(W=W, p=p, nu=nu)


def run_config(**kw):
    base = dict(alpha=0.05, steps=50, log_every=10, test_size=20)
    base.update(kw)
    return TrainConfig(**base)


class TestLoss:
    def test_all_zero_outputs(self):
        ds, _, state = make_instance()
        state.nu = np.zeros(8)
        assert empirical_loss(ds, state) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_large_margin_tail(self):
        # l(40) = log(1 + e^-40) < 1e-17
        assert float(np.logaddexp(0.0, -40.0)) < 1e-17

    def test_single_sample_closed_form(self):
        # l(1) = log(1 + e^-1)
        assert float(np.logaddexp(0.0, -1.0)) == pytest.approx(0.31326168751822286,
                                                               rel=1e-12)


class TestLossDerivative:
    def test_values(self):
        assert loss_derivative(0.0) == pytest.approx(-0.5, rel=1e-12)
        assert loss_derivative(math.log(3.0)) == pytest.approx(-0.25, rel=1e-12)

    def test_limit(self):
        # z -> +inf approaches zero from below; past float range only the
        # sign of the zero survives.  z -> -inf reaches the other endpoint,
        # -1.0, exactly
        assert loss_derivative(700.0) < 0.0
        assert math.copysign(1.0, loss_derivative(800.0)) == -1.0
        assert loss_derivative(-40.0) == -1.0
        assert loss_derivative(-800.0) == pytest.approx(-1.0, rel=1e-12)

    @given(st.floats(min_value=-36.0, max_value=700.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_range(self, z):
        # strictly inside (-1, 0) wherever float64 can represent the gap
        v = loss_derivative(z)
        assert -1.0 < v < 0.0

    def test_saturation_below(self):
        assert loss_derivative(-37.0) == -1.0

    @given(st.floats(allow_nan=False))
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(745.0)
    @example(-745.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_both_closed_forms(self, z):
        # scalar and array calls pick the branch whose exponential cannot
        # overflow, and match its closed form exactly: same value, same
        # sign of a zero, NaN for NaN
        with np.errstate(over="ignore"):
            want = (-1.0 / (1.0 + np.exp(z)) if z < 0
                    else -np.exp(-z) / (1.0 + np.exp(-z)))
        for got in (loss_derivative(z), loss_derivative(np.array([z, -z]))[0]):
            np.testing.assert_array_equal(got, want)
            assert math.isnan(want) or np.signbit(got) == np.signbit(want)


class TestGradients:
    def test_equal_scores_zero_gradient(self):
        ds, _, state = make_instance()
        state.nu = np.zeros(8)  # gamma identically zero: centered scores vanish
        assert not grad_w(ds, state).any()
        assert not grad_p(ds, state).any()

    def test_w_zero_gives_zero_grad_p(self):
        ds, _, state = make_instance()
        state.W = np.zeros((8, 8))
        assert not grad_p(ds, state).any()

    def test_finite_difference_oracle(self):
        # floor 3e-5 = the roundoff resolution of central differences at
        # h = 1e-5 in float64; entries above it must agree to 1e-6 relative
        worst_w = worst_p = 0.0
        for seed in range(5):
            ds, _, state = make_instance(seed=seed)
            fd_w, fd_p = finite_diff_grad(ds, state, h=1e-5)
            worst_w = max(worst_w, float(np.max(rel_err(grad_w(ds, state), fd_w,
                                                        floor=3e-5))))
            worst_p = max(worst_p, float(np.max(rel_err(grad_p(ds, state), fd_p,
                                                        floor=3e-5))))
        assert worst_w <= 1e-6
        assert worst_p <= 1e-6

    def test_output_grad_head_scaling_exact(self):
        # softmax ignores nu, so output gradients scale exactly linearly in
        # the head; a power-of-two factor keeps the float check bitwise
        ds, _, state = make_instance(seed=2)
        scaled = ModelState(W=state.W, p=state.p, nu=4.0 * state.nu)
        gw1, gp1 = output_grads(ds.X[0], state)
        gw4, gp4 = output_grads(ds.X[0], scaled)
        assert np.array_equal(gw4, 4.0 * gw1)
        assert np.array_equal(gp4, 4.0 * gp1)

    def test_output_grad_head_scaling_general(self):
        ds, _, state = make_instance(seed=2)
        scaled = ModelState(W=state.W, p=state.p, nu=3.0 * state.nu)
        gw1, gp1 = output_grads(ds.X[0], state)
        gw3, gp3 = output_grads(ds.X[0], scaled)
        np.testing.assert_allclose(gw3, 3.0 * gw1, rtol=1e-13)
        np.testing.assert_allclose(gp3, 3.0 * gp1, rtol=1e-13)

    def test_output_grad_finite_difference_oracle(self):
        # central differences of the dense forward in every W and p
        # coordinate; floor and bound as in the loss-gradient oracle
        worst_w = worst_p = 0.0
        for seed in range(5):
            ds, _, state = make_instance(seed=seed)
            X, d = ds.X[:1], state.d
            theta = np.concatenate([state.W.ravel(), state.p])

            def output_at(i, value):
                probe = theta.copy()
                probe[i] = value
                return batch_outputs(X, ModelState(
                    W=probe[:d * d].reshape(d, d), p=probe[d * d:],
                    nu=state.nu))[0]

            fd = np.array([
                central_difference(lambda v: output_at(i, v), theta[i], 1e-5)
                for i in range(len(theta))])
            gw, gp = output_grads(X[0], state)
            worst_w = max(worst_w, float(np.max(rel_err(
                gw, fd[:d * d].reshape(d, d), floor=3e-5))))
            worst_p = max(worst_p, float(np.max(rel_err(
                gp, fd[d * d:], floor=3e-5))))
        assert worst_w <= 1e-6
        assert worst_p <= 1e-6


class TestFiniteDiff:
    def test_quadratic_sanity(self):
        assert central_difference(lambda x: x * x, 3.0, 1e-5) == pytest.approx(
            6.0, abs=1e-8)

    def test_richardson_scaling(self):
        # central differences have O(h^2) error on smooth instances
        ds, _, state = make_instance(seed=3, n=2, T=3, d=4)
        gw = grad_w(ds, state)
        errs = []
        for h in (2e-4, 1e-4):
            fd_w, _ = finite_diff_grad(ds, state, h=h)
            errs.append(float(np.max(np.abs(fd_w - gw))))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0  # ~4 expected


class TestDirectionalGradientOracle:
    """The closed-form gradient at paper scale (d=2000, n=20, T=8), where
    ``finite_diff_grad``'s d^2 + d loss evaluations are out of reach:
    <grad_w, D> + <grad_p, e> against the central difference of
    ``empirical_loss`` along random directions (D, e).

    Each direction has the norms of (W, p) and the step t is measured in
    score units: h moves no training score by more than 1e-3 to first
    order.  Richardson's combination of the differences at h and h/2 has
    truncation error O(h^4), about 1e-12 of the derivative in those units.
    Rounding in the loss (|loss| <= 1, float64) adds about 3 eps / h.  So a
    right gradient meets |fd - an| <= 1e-6 |an| + 1e-12 / h with a wide
    margin, while a wrong term moves it by the order of |an|, which must
    itself lie well above the rounding floor."""

    @staticmethod
    def assert_directional_derivatives(ds, state, rng, directions=3):
        d = state.d
        flat = ds.X.reshape(ds.n * ds.T, d)
        gw, gp = grad_w(ds, state), grad_p(ds, state)
        for _ in range(directions):
            D = rng.normal(size=(d, d))
            D *= np.linalg.norm(state.W) / np.linalg.norm(D)
            e = rng.normal(size=d)
            e *= np.linalg.norm(state.p) / np.linalg.norm(e)
            h = 1e-3 / np.abs(flat @ (D.T @ state.p + state.W.T @ e)).max()

            def loss_at(t):
                return empirical_loss(ds, ModelState(
                    W=state.W + t * D, p=state.p + t * e, nu=state.nu))

            fd = (4 * central_difference(loss_at, 0.0, h / 2)
                  - central_difference(loss_at, 0.0, h)) / 3
            an = float(np.sum(gw * D) + gp @ e)
            assert abs(an) > 1e-9 / h
            assert abs(fd - an) <= 1e-6 * abs(an) + 1e-12 / h

    def paper_scale(self):
        d = 2000
        cfg = DataConfig(n=20, T=8, d=d, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        sig = make_signals(d, 20.0, stream(0, "s"))
        ds = generate_dataset(cfg, sig, stream(0, "d"))
        s = 3 * a8_sigma(cfg)
        W, p = init_params(d, s, s, stream(0, "i"))
        return ds, sig, ModelState(W=W, p=p, nu=make_head(sig))

    @pytest.mark.slow
    def test_at_init(self):
        ds, _, state = self.paper_scale()
        self.assert_directional_derivatives(ds, state, stream(0, "dir"))

    @pytest.mark.slow
    def test_after_5000_steps(self):
        ds, sig, state = self.paper_scale()
        res = train(state, ds, run_config(alpha=5e-3, steps=5000,
                                          log_every=5000, test_size=0))
        self.assert_directional_derivatives(ds, res.final_state(),
                                            stream(1, "dir"))


class TestGdStep:
    def test_alpha_zero_noop(self):
        ds, _, state = make_instance()
        new = gd_step(state, ds, 0.0)
        assert np.array_equal(new.W, state.W)
        assert np.array_equal(new.p, state.p)

    def test_zero_gradient_noop(self):
        ds, _, state = make_instance()
        state.nu = np.zeros(8)
        new = gd_step(state, ds, 0.5)
        assert np.array_equal(new.W, state.W)

    def test_descent_at_small_step(self):
        ds, _, state = make_instance(seed=1, n=2)
        before = empirical_loss(ds, state)
        after = empirical_loss(ds, gd_step(state, ds, 1e-6))
        assert after < before

    def test_simultaneity(self):
        # both updates use the pre-step state: recomputing either gradient
        # after the other update would change the result
        ds, _, state = make_instance(seed=4)
        alpha = 0.1
        new = gd_step(state, ds, alpha)
        gw = grad_w(ds, state)
        gp = grad_p(ds, state)
        np.testing.assert_array_equal(new.W, state.W - alpha * gw)
        np.testing.assert_array_equal(new.p, state.p - alpha * gp)
        sequential_p = state.p - alpha * grad_p(ds, replace_state(state, W=new.W))
        assert not np.allclose(sequential_p, new.p)


def replace_state(state, **kw):
    out = ModelState.__new__(ModelState)
    out.W = kw.get("W", state.W)
    out.p = kw.get("p", state.p)
    out.nu = kw.get("nu", state.nu)
    return out


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.0, steps=1)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.1, steps=-1)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.1, steps=1, log_every=0)

    def test_json_round_trip(self):
        cfg = run_config()
        assert TrainConfig.from_json(cfg.to_json()) == cfg
        with pytest.raises(ConfigError):
            TrainConfig.from_json({"alpha": 0.1, "steps": 5, "bogus": 1})


class TestTrainLoop:
    def setup_run(self, seed=0, **kw):
        cfg = DataConfig(n=6, T=4, d=24, mu_norm=4.0, sigma_eps=1.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(24, 4.0, stream(seed, "s"))
        ds = generate_dataset(cfg, sig, stream(seed, "d"))
        test = generate_dataset(replace(cfg, n=30, eta=0.0), sig,
                                stream(seed, "t"))
        W, p = init_params(24, 0.05, 0.05, stream(seed, "i"))
        state = ModelState(W=W, p=p, nu=make_head(sig))
        return state, ds, sig, test

    def test_zero_steps_single_row(self):
        state, ds, sig, test = self.setup_run()
        res = train(state, ds, run_config(steps=0), test_set=test)
        assert list(res.trace.steps) == [0]

    def test_log_cadence_and_final_step(self):
        state, ds, sig, test = self.setup_run()
        res = train(state, ds, run_config(steps=25, log_every=10),
                    test_set=test)
        assert list(res.trace.steps) == [0, 10, 20, 25]

    def test_trace_finite_and_increasing(self):
        state, ds, sig, test = self.setup_run()
        trace = train(state, ds, run_config(steps=40),
                      test_set=test).trace
        assert np.all(np.diff(trace.steps) > 0)
        for name in ("train_loss", "probs", "scores"):
            assert np.all(np.isfinite(getattr(trace, name))), name

    def test_hooks_called_at_log_points(self):
        state, ds, sig, test = self.setup_run()
        seen = []
        train(state, ds, run_config(steps=20, log_every=10),
              test_set=test, hooks=(lambda s, snap: seen.append(s),))
        assert seen == [0, 10, 20]

    def test_final_state_matches_gd_steps(self):
        state, ds, sig, _ = self.setup_run(seed=2)
        res = train(state, ds, run_config(steps=3, test_size=0))
        manual = state
        for _ in range(3):
            manual = gd_step(manual, ds, 0.05)
        final = res.final_state()
        np.testing.assert_allclose(final.W, manual.W, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(final.p, manual.p, rtol=1e-12, atol=1e-15)

    def test_divergence_aborts_with_partial_trace(self):
        # a step size near float max overflows the score products; moderate
        # "too large" steps merely saturate the softmax and freeze
        state, ds, sig, _ = self.setup_run(seed=3)
        huge = run_config(alpha=1e305, steps=50, log_every=1, test_size=0)
        trace = train(state, ds, huge).trace
        assert trace.n_logged >= 1
        assert trace.diverged_at == 1
        # the update itself stays finite; its scores overflow
        record = trace.divergence
        assert record["quantity"] == "u"
        assert record["last_finite"]["a"] == 1.0
        assert record["last_finite"]["pi_norm"] == 0.0
        err = DivergenceError(record)
        assert err.divergence is record
        assert str(err).startswith("non-finite u at step 1; last finite")


class TestTraceDiagnostics:
    def test_trace_matches_definitional_recomputation(self):
        # the trainer stores lambda and the attention scores, from which
        # Lambda and Gamma derive; they must match the definitions
        # recomputed from raw tensors
        cfg = DataConfig(n=6, T=5, d=48, mu_norm=5.0, sigma_eps=1.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(48, 5.0, stream(21, "s"))
        ds = generate_dataset(cfg, sig, stream(21, "d"))
        W, p = init_params(48, 0.05, 0.05, stream(21, "i"))
        state = ModelState(W=W, p=p, nu=make_head(sig))
        res = train(state, ds, run_config(steps=30, log_every=30,
                                          test_size=0))
        u, r = dense_attention(res.final_state(), ds)
        Lambda, Gamma = attention_gaps(u)
        tr = res.trace
        assert tr.lambda_plus[-1] == pytest.approx(r[0], rel=1e-10)
        assert tr.lambda_minus[-1] == pytest.approx(r[1], rel=1e-10)
        np.testing.assert_allclose(tr.Lambda[-1], Lambda, atol=1e-10)
        np.testing.assert_allclose(tr.Gamma[-1], Gamma, atol=1e-10)

    def test_derived_rows_equal_per_row_formulas(self, monkeypatch):
        # every step logged: the stored scores are the engine's, bit for
        # bit, and the gaps and training metrics derived from the stored
        # arrays equal the per-row formulas the recorder once applied
        engine_u = []
        exact_score = _SubspaceEngine._score

        def recording(eng):
            exact_score(eng)
            engine_u.append(eng.u.copy())

        monkeypatch.setattr(_SubspaceEngine, "_score", recording)
        state, ds, sig, _ = TestTrainLoop().setup_run(seed=4)
        tr = train(state, ds, run_config(steps=40, log_every=1,
                                         test_size=0)).trace
        n, T = ds.n, ds.T
        lam_cols = np.arange(1, T)
        gam_cols = np.concatenate(([0], np.arange(2, T)))
        assert tr.n_logged == len(engine_u) == 41
        for k, u_all in enumerate(engine_u):
            u = u_all[:n * T].reshape(n, T)
            lam, gam = u[:, :1] - u[:, lam_cols], u[:, 1:2] - u[:, gam_cols]
            out, y, y_true = tr.outputs[k], ds.y_train, ds.y_true
            assert tr.scores[k].tobytes() == u.tobytes()
            assert tr.lambda_plus[k] == u_all[n * T]
            assert tr.lambda_minus[k] == u_all[n * T + 1]
            assert tr.Lambda[k].tobytes() == lam.tobytes()
            assert tr.Gamma[k].tobytes() == gam.tobytes()
            assert tr.train_loss[k] == float(np.mean(logistic_loss(out, y)))
            assert tr.train_acc[k] == float(_fits(out, y).mean())
            assert tr.train_acc_true[k] == float(_fits(out, y_true).mean())
        np.testing.assert_array_equal(tr.Gamma[..., 0], -tr.Lambda[..., 0])


def gd_oracle(state, ds, alpha, steps, log_at):
    """A plain ``gd_step`` loop: the states at the steps in ``log_at`` (and
    step 0), keyed by step, and the step at which it diverged or None.  A
    step diverges when its gradient or the scores it leads to are
    non-finite."""
    n, T, d = ds.X.shape
    flat = ds.X.reshape(n * T, d)
    logged = {0: state}
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            try:
                state = gd_step(state, ds, alpha)
            except FloatingPointError:
                return logged, step
            if not np.all(np.isfinite(flat @ (state.W.T @ state.p))):
                return logged, step
            if step in log_at:
                logged[step] = state
    return logged, None


def assert_trace_matches(trace, logged, ds, sig, test):
    """Every logged row of ``trace`` against the quantities recomputed from
    the oracle's state at that step."""
    assert list(trace.steps) == sorted(logged)
    for k, step in enumerate(trace.steps):
        state = logged[step]
        u, r = dense_attention(state, ds)
        Lambda, Gamma = attention_gaps(u)
        assert rel_err(trace.train_loss[k], empirical_loss(ds, state)) < 1e-9
        assert np.max(np.abs(trace.probs[k] - softmax(u))) < 1e-9
        assert rel_err(trace.lambda_plus[k], r[0]) < 1e-9
        assert rel_err(trace.lambda_minus[k], r[1]) < 1e-9
        assert np.max(np.abs(trace.Lambda[k] - Lambda)) < 1e-8
        assert np.max(np.abs(trace.Gamma[k] - Gamma)) < 1e-8
        if test is not None:
            out = batch_outputs(test.X, state)
            assert trace.test_acc[k] == float(_fits(out, test.y_true).mean())
            assert rel_err(trace.test_loss[k], float(np.mean(
                logistic_loss(out, test.y_train)))) < 1e-9


def assert_matches_gd_oracle(state, ds, sig, test, tcfg):
    """Train, then check every logged row and the final state against a
    ``gd_step`` loop from the same initial state."""
    res = train(state, ds, tcfg, test_set=test)
    logged, diverged = gd_oracle(state, ds, tcfg.alpha, tcfg.steps,
                                 set(res.trace.steps))
    assert diverged is None and res.trace.diverged_at is None
    assert_trace_matches(res.trace, logged, ds, sig, test)
    final, manual = res.final_state(), logged[tcfg.steps]
    assert np.max(np.abs(final.W - manual.W)) < 1e-10
    assert np.max(np.abs(final.p - manual.p)) < 1e-10


class TestSubspaceAgainstGdStep:
    """The engine against a ``gd_step`` loop over horizons that cross
    several fold boundaries of its pending rank-one terms of S and end
    between two folds."""

    def setup_run(self, seed=11, d=64):
        cfg = DataConfig(n=6, T=4, d=d, mu_norm=4.0, sigma_eps=1.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(d, 4.0, stream(seed, "s"))
        ds = generate_dataset(cfg, sig, stream(seed, "d"))
        test = generate_dataset(replace(cfg, n=40, eta=0.0), sig,
                                stream(seed, "t"))
        W, p = init_params(d, 0.05, 0.05, stream(seed, "i"))
        return ModelState(W=W, p=p, nu=make_head(sig)), ds, sig, test

    # with N = nT + 2 = 26, cadences 1 and 10 log more than N + 1 states,
    # so the test set is scored through its projection onto the basis;
    # cadence 17 logs 10 states and scores it through each state's W^T p
    @pytest.mark.parametrize("steps, log_every", [
        pytest.param(4 * _FOLD + _FOLD // 2 + 3, 1, id="1"),
        pytest.param(4 * _FOLD + _FOLD // 2 + 3, _FOLD // 2 + 1,
                     id=str(_FOLD // 2 + 1)),
        pytest.param(300, 10, id="300-10"),
    ])
    def test_long_horizon_ends_mid_block(self, steps, log_every):
        state, ds, sig, test = self.setup_run()
        assert_matches_gd_oracle(
            state, ds, sig, test,
            run_config(alpha=0.05, steps=steps, log_every=log_every))

    def test_dimension_below_token_count(self):
        # d=8 < N = nT + 2 = 26: the Gram matrices are rank-deficient
        state, ds, sig, test = self.setup_run(d=8)
        assert_matches_gd_oracle(
            state, ds, sig, test,
            run_config(alpha=0.05, steps=2 * _FOLD + 5, log_every=1))

    @given(n=st.integers(1, 6), T=st.integers(2, 5), d=st.integers(2, 40),
           weak=st.integers(0, 3), eta=st.sampled_from([0.0, 0.2, 0.45]),
           sigma_eps=st.sampled_from([0.0, 0.5, 1.0]),
           steps=st.integers(0, 40), seed=st.integers(0, 2**16))
    @example(n=6, T=4, d=8, weak=1, eta=0.0, sigma_eps=0.0, steps=40, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_random_instances(self, n, T, d, weak, eta, sigma_eps, steps,
                              seed):
        cfg = DataConfig(n=n, T=T, d=d, mu_norm=4.0, sigma_eps=sigma_eps,
                         eta=eta, rho=0.2, n_weak_same=min(weak, T - 2))
        sig = make_signals(d, 4.0, stream(seed, "s"))
        ds = generate_dataset(cfg, sig, stream(seed, "d"))
        test = generate_dataset(replace(cfg, n=10, eta=0.0), sig,
                                stream(seed, "t"))
        W, p = init_params(d, 0.3, 0.3, stream(seed, "i"))
        assert_matches_gd_oracle(
            ModelState(W=W, p=p, nu=make_head(sig)), ds, sig, test,
            run_config(alpha=0.05, steps=steps, log_every=1))

    @pytest.mark.parametrize("fault_at", [_FOLD + _FOLD // 3, 2 * _FOLD + 1])
    def test_divergence_mid_block(self, monkeypatch, fault_at):
        # a NaN loss derivative at the gradient of step ``fault_at`` is a
        # non-finite update between two folds; the engine and the oracle
        # both compute one loss derivative per step, in step order
        model_mod = importlib.import_module("attnsim.model")
        calls = []
        exact = model_mod.loss_derivative

        def faulty(z):
            calls.append(None)
            out = exact(z)
            return out * np.nan if len(calls) == fault_at else out

        monkeypatch.setattr(model_mod, "loss_derivative", faulty)
        state, ds, sig, test = self.setup_run()
        tcfg = run_config(alpha=0.05, steps=3 * _FOLD, log_every=5)
        res = train(state, ds, tcfg, test_set=test)
        calls.clear()
        logged, diverged = gd_oracle(state, ds, 0.05, 3 * _FOLD,
                                     set(range(0, 3 * _FOLD + 1, 5)))
        assert diverged == fault_at
        assert res.trace.diverged_at == fault_at
        assert_trace_matches(res.trace, logged, ds, sig, test)
        record = res.trace.divergence
        assert record["step"] == fault_at and record["quantity"] == "beta"
        assert all(math.isfinite(v) for v in record["last_finite"].values())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("row", ["token", "probe+", "probe-"])
    @pytest.mark.parametrize("fault_at", [_FOLD + _FOLD // 3, 2 * _FOLD],
                             ids=["mid-fold", "after-fold"])
    def test_planted_score_divergence_record(self, monkeypatch, value, row,
                                             fault_at):
        # a non-finite score planted in one row of the step-``fault_at``
        # scores stops the run there: the rows before it are logged as
        # the engine scored them, and the record names u, with the last
        # finite max|u|, a and ||pi|| of the step before
        state, ds, sig, _ = self.setup_run()
        nT = ds.n * ds.T
        index = {"token": nT // 2, "probe+": nT, "probe-": nT + 1}[row]
        scored = []
        exact_score = _SubspaceEngine._score

        def planting(eng):
            exact_score(eng)
            if len(scored) == fault_at:
                eng.u[index] = value
            scored.append((eng.u.copy(), eng.x.copy()))

        monkeypatch.setattr(_SubspaceEngine, "_score", planting)
        res = train(state, ds, run_config(steps=3 * _FOLD, log_every=1,
                                          test_size=0))
        tr = res.trace
        assert len(scored) == fault_at + 1
        assert tr.diverged_at == fault_at and tr.n_logged == fault_at
        for k, (u, _) in enumerate(scored[:fault_at]):
            assert tr.scores[k].tobytes() == u[:nT].tobytes()
            assert (tr.lambda_plus[k], tr.lambda_minus[k]) == (u[nT],
                                                               u[nT + 1])
        u, x = scored[fault_at - 1]
        assert tr.divergence == {
            "step": fault_at, "quantity": "u",
            "last_finite": {"max_abs_u": float(np.abs(u).max()),
                            "a": float(x[0]),
                            "pi_norm": float(np.linalg.norm(x[1:]))}}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_planted_step_zero_divergence_record(self, monkeypatch, value):
        state, ds, sig, _ = self.setup_run()
        exact_score = _SubspaceEngine._score

        def planting(eng):
            exact_score(eng)
            eng.u[-1] = value

        monkeypatch.setattr(_SubspaceEngine, "_score", planting)
        trace = train(state, ds, run_config(steps=5, test_size=0)).trace
        assert trace.n_logged == 0
        assert trace.divergence == {"step": 0, "quantity": "u",
                                    "last_finite": None}
        assert "before any finite" in str(DivergenceError(trace.divergence))

    def test_kept_products_match_recomputed(self):
        # L = J - alpha G Z^T is kept by rank-one terms and folds; after
        # several folds, between two folds, and after folding the pending
        # terms, it must equal the product recomputed from Z, and Z the sum
        # of the x beta^T terms of the steps.  The tolerance is the float64
        # rounding of those sums: 4 (N + steps) eps times the sum of the
        # magnitudes of their terms.
        state, ds, sig, _ = self.setup_run()
        alpha, steps = 0.05, 3 * _FOLD + _FOLD // 2
        eng = _SubspaceEngine(state, ds, alpha)
        N, nT = eng.N, eng.nT
        xs, betas = [], []
        for _ in range(steps):
            weights = _attend(eng.scores, eng.gamma, ds.y_train, eng.work)[2]
            xs.append(eng.x.copy())
            betas.append(weights.reshape(nT).copy())
            eng.step()
        xs, betas = np.array(xs), np.array(betas)
        G = eng._GL[:, :N]
        J = np.eye(N, N + 1, k=1)
        Z_sum = np.zeros((N + 1, N))
        Z_sum[:, :nT] = xs.T @ betas
        Z_mag = np.zeros((N + 1, N))
        Z_mag[:, :nT] = np.abs(xs).T @ np.abs(betas)
        tol = 4 * (N + steps) * np.finfo(float).eps
        k = eng._pending
        assert k == _FOLD // 2
        for folded in (False, True):
            if folded:
                eng._fold()
                k = 0
            px = eng._pending_x[:k]
            Z = eng.Z.copy()
            Z[:, :nT] += px.T @ eng._pending_beta[:k]
            L = eng._GL[:, N:2 * N + 1] + eng._GL[:, 2 * N + 1:][:, :k] @ px
            assert np.all(np.abs(Z - Z_sum) <= tol * Z_mag)
            assert np.all(np.abs(L - (J - alpha * G @ Z.T))
                          <= tol * (J + alpha * np.abs(G) @ Z_mag.T))

    @pytest.mark.slow
    def test_harmful_point_drift(self):
        # the kept products over a 20000-step run at the harmful point
        # (d=5000, n=20, T=8): the trace's final probabilities and lambdas
        # against the scores recomputed from the materialized final state,
        # at the oracle tolerances of assert_trace_matches
        d = 5000
        cfg = DataConfig(n=20, T=8, d=d, mu_norm=5.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1, n_weak_same=1)
        sig = make_signals(d, 5.0, stream(0, "s"))
        ds = generate_dataset(cfg, sig, stream(0, "d"))
        s = 3 * a8_sigma(cfg)
        W, p = init_params(d, s, s, stream(0, "i"))
        state = ModelState(W=W, p=p, nu=make_head(sig))
        res = train(state, ds, run_config(alpha=5e-3, steps=20000,
                                          log_every=20000, test_size=0))
        u, r = dense_attention(res.final_state(), ds)
        tr = res.trace
        assert tr.steps[-1] == 20000
        assert np.max(np.abs(tr.probs[-1] - softmax(u))) < 1e-9
        assert rel_err(tr.lambda_plus[-1], r[0]) < 1e-9
        assert rel_err(tr.lambda_minus[-1], r[1]) < 1e-9

    @pytest.mark.slow
    def test_paper_scale(self):
        # d=1000, n=20, T=8 (N=162) over 5000 steps, the benign setting of
        # the acceptance suite
        d = 1000
        cfg = DataConfig(n=20, T=8, d=d, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        sig = make_signals(d, 20.0, stream(0, "s"))
        ds = generate_dataset(cfg, sig, stream(0, "d"))
        test = generate_dataset(replace(cfg, n=200, eta=0.0), sig,
                                stream(0, "t"))
        s = 3 * a8_sigma(cfg)
        W, p = init_params(d, s, s, stream(0, "i"))
        state = ModelState(W=W, p=p, nu=make_head(sig))
        assert_matches_gd_oracle(
            state, ds, sig, test,
            run_config(alpha=5e-3, steps=5000, log_every=500))


def serial_test_metrics(test_set, nu, rows, to_scores, block=_TEST_BLOCK):
    """The scoring of logged states as one serial pass after the loop, in
    blocks of ``block`` states: the reference the scoring beside the loop
    must match bit for bit."""
    m, T, d = test_set.X.shape
    y = test_set.y_true
    gamma = np.tile((test_set.X.reshape(m * T, d) @ nu).reshape(m, T),
                    (min(block, len(rows)), 1))
    acc, loss = np.empty(len(rows)), np.empty(len(rows))
    for lo in range(0, len(rows), block):
        scores = to_scores(rows[lo:lo + block])
        b = scores.shape[0]
        _, out, _ = _attend(scores.reshape(b * m, T), gamma[:b * m])
        out = out.reshape(b, m)
        acc[lo:lo + b] = _fits(out, y).mean(axis=1)
        loss[lo:lo + b] = logistic_loss(out, y).mean(axis=1)
    return acc, loss


class TestConcurrentTestScoring:
    """The held-out set is scored on a worker thread, block by block, while
    the loop runs; the metrics must equal a serial scoring of the same
    logged states."""

    def setup_run(self, seed=11, d=64):
        cfg = DataConfig(n=11, T=4, d=d, mu_norm=4.0, sigma_eps=1.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(d, 4.0, stream(seed, "s"))
        ds = generate_dataset(cfg, sig, stream(seed, "d"))
        test = generate_dataset(replace(cfg, n=40, eta=0.0), sig,
                                stream(seed, "t"))
        W, p = init_params(d, 0.05, 0.05, stream(seed, "i"))
        return ModelState(W=W, p=p, nu=make_head(sig)), ds, sig, test

    # N = nT + 2 = 46, so more than N + 1 = 47 logged states are scored
    # through the test set's projection onto the basis, fewer through each
    # state's W^T p; the fault diverges the run mid-block, after 40 rows.
    # Blocks of 32 make the loop hand over whole blocks.
    @pytest.mark.parametrize("steps, log_every, fault_at, projected, block", [
        pytest.param(100, 1, None, True, _TEST_BLOCK, id="101-rows-projected"),
        pytest.param(63, 1, None, True, 32, id="64-rows-whole-blocks"),
        pytest.param(90, 2, None, False, _TEST_BLOCK, id="46-rows-per-state"),
        pytest.param(96, 1, 40, True, 32, id="diverges-mid-block"),
    ])
    def test_equals_serial_scoring(self, monkeypatch, steps, log_every,
                                   fault_at, projected, block):
        monkeypatch.setattr(train_mod, "_TEST_BLOCK", block)
        rows, engines = [], []
        exact_coefficients = _SubspaceEngine.coefficients

        def recording(eng, row):
            exact_coefficients(eng, row)
            rows.append(row.copy())
            engines.append(eng)

        monkeypatch.setattr(_SubspaceEngine, "coefficients", recording)
        if fault_at is not None:
            model_mod = importlib.import_module("attnsim.model")
            calls = []
            exact = model_mod.loss_derivative

            def faulty(z):
                calls.append(None)
                out = exact(z)
                return out * np.nan if len(calls) == fault_at else out

            monkeypatch.setattr(model_mod, "loss_derivative", faulty)
        state, ds, sig, test = self.setup_run()
        tcfg = run_config(alpha=0.05, steps=steps, log_every=log_every)
        res = train(state, ds, tcfg, test_set=test)
        assert res.trace.diverged_at == fault_at
        assert res.trace.n_logged == len(rows)
        if fault_at is not None:
            assert len(rows) % block != 0
        eng = engines[0]
        L = len(_log_points(steps, log_every))
        assert (L > eng.N + 1) == projected
        assert projects_test_set(ds.config, tcfg) == projected
        _, to_scores = eng.test_scorer(test, projected, threading.Event())
        acc, loss = serial_test_metrics(test, state.nu, np.array(rows),
                                        to_scores, block)
        assert res.trace.test_acc.tobytes() == acc.tobytes()
        assert res.trace.test_loss.tobytes() == loss.tobytes()

    def test_worker_error_propagates_and_thread_ends(self, monkeypatch):
        # the first block fails only once the loop has queued the second,
        # which must then not be scored
        blocks, queued = [], threading.Event()

        def failing(self, lo, hi):
            blocks.append((lo, hi))
            assert queued.wait(timeout=30)
            raise RuntimeError("block scoring failed")

        def hook(step, _info):
            if step == 2 * _TEST_BLOCK:
                queued.set()

        monkeypatch.setattr(_TestScoring, "_block", failing)
        state, ds, sig, test = self.setup_run()
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="block scoring failed"):
            train(state, ds, run_config(steps=3 * _TEST_BLOCK,
                                        log_every=1),
                  test_set=test, hooks=(hook,))
        assert set(threading.enumerate()) <= before
        assert blocks == [(0, _TEST_BLOCK)]

    def test_worker_error_stops_loop_at_next_block(self, monkeypatch):
        # with the failed block finished before the next block boundary,
        # the loop stops there instead of running to its last step
        exact_submit = _TestScoring.submit

        def failing(self, lo, hi):
            raise RuntimeError("block scoring failed")

        def settled_submit(self, logged):
            futures.wait(self.jobs, timeout=30)
            exact_submit(self, logged)

        monkeypatch.setattr(_TestScoring, "_block", failing)
        monkeypatch.setattr(_TestScoring, "submit", settled_submit)
        state, ds, sig, test = self.setup_run()
        seen = []
        with pytest.raises(RuntimeError, match="block scoring failed"):
            train(state, ds, run_config(steps=3 * _TEST_BLOCK,
                                        log_every=1),
                  test_set=test, hooks=(lambda step, _: seen.append(step),))
        assert seen[-1] == 2 * _TEST_BLOCK - 1


class TestUntil:
    """A run that ``until`` stops is the whole run up to there: its rows
    carry the bits of the whole run's leading rows, test metrics included,
    and its final state is that of a run whose budget ends there."""

    FIELDS = ("steps", "scores", "probs", "outputs", "lambda_plus",
              "lambda_minus", "train_loss", "train_acc", "train_acc_true",
              "test_acc", "test_loss")

    # the rows of a stop before the last block end mid-block, and on the
    # direct branch BLAS rounds another row count differently
    @pytest.mark.parametrize("stop", [0, 1, 17, 40])
    @pytest.mark.parametrize("projected", [True, False],
                             ids=["projected", "direct"])
    def test_stopped_run_is_the_whole_runs_head(self, projected, stop):
        state, ds, sig, tcfg, test = TestScoringSizes.setup_run(projected)
        whole = train(state, ds, tcfg, test_set=test).trace
        seen = []

        def until(k, probs):
            seen.append(k)
            assert probs.tobytes() == whole.probs[k].tobytes()
            return k == stop

        res = train(state, ds, tcfg, test_set=test, until=until)
        assert seen == list(range(stop + 1))
        for name in self.FIELDS:
            assert (getattr(res.trace, name).tobytes()
                    == getattr(whole, name)[:stop + 1].tobytes()), name
        assert res.trace.meta == whole.meta
        budget = replace(tcfg, steps=int(whole.steps[stop]), test_size=0)
        ref = train(state, ds, budget).final_state()
        assert res.final_state().W.tobytes() == ref.W.tobytes()
        assert res.final_state().p.tobytes() == ref.p.tobytes()


class TestStreamedTestSet:
    """On the projection branch the scoring thread reads the test tokens
    in chunks, drawing them when the test set was generated lazy; the
    metrics must equal those of the same run given the tokens whole."""

    def setup_run(self, seed=11, n=6, T=4, d=64, m=150):
        cfg = DataConfig(n=n, T=T, d=d, mu_norm=4.0, sigma_eps=1.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(d, 4.0, stream(seed, "s"))
        ds = generate_dataset(cfg, sig, stream(seed, "d"))
        test_cfg = replace(cfg, n=m, eta=0.0)
        lazy = generate_dataset(test_cfg, sig, stream(seed, "t"), lazy=True)
        W, p = init_params(d, 0.05, 0.05, stream(seed, "i"))
        return ModelState(W=W, p=p, nu=make_head(sig)), ds, sig, lazy

    @staticmethod
    def whole(test_set, seed=11):
        """The same test set, drawn whole."""
        return generate_dataset(test_set.config, test_set.signals,
                                stream(seed, "t"))

    # (T, m): 200 samples are three chunks of 64 and one of 8, all with a
    # multiple of 8 token rows; at T=6, 203 samples end in a chunk of 66
    # rows, whose products need not carry the one-shot bits (under
    # OpenBLAS both gamma and the projection differ there in the last bits)
    @pytest.mark.parametrize("T, m, bitwise", [(6, 200, True),
                                               (8, 200, True),
                                               (6, 203, False)])
    def test_projection_equals_one_shot(self, T, m, bitwise):
        state, ds, sig, lazy = self.setup_run(n=16, T=T, d=800, m=m)
        eng = _SubspaceEngine(state, ds, 0.05)
        gamma, proj = eng.test_projection(lazy, threading.Event())
        assert "X" not in lazy.__dict__
        N, X = eng.N, self.whole(lazy).X.reshape(m * T, 800)
        PtW0 = eng._P.T @ state.W
        ref = np.empty((2 * N + 1, m * T))
        np.matmul(PtW0, X.T, out=ref[:N + 1])
        np.matmul(eng._B, X.T, out=ref[N + 1:])
        ref_gamma = (X @ state.nu).reshape(m, T)
        if bitwise:
            assert gamma.tobytes() == ref_gamma.tobytes()
            assert proj.tobytes() == ref.tobytes()
        else:
            # float64 rounding of d-term dot products
            tol = 2 * 800 * np.finfo(float).eps
            mag = np.abs(X) @ np.abs(state.nu)
            assert np.all(np.abs(gamma - ref_gamma) <= tol * mag.reshape(m, T))
            mag = np.abs(np.vstack([PtW0, eng._B])) @ np.abs(X).T
            assert np.all(np.abs(proj - ref) <= tol * mag)

    def test_streamed_run_equals_whole_test_set(self):
        state, ds, sig, lazy = self.setup_run()
        tcfg = run_config(alpha=0.05, steps=100, log_every=1)
        assert projects_test_set(ds.config, tcfg)
        streamed = train(state, ds, tcfg, test_set=lazy).trace
        assert "X" not in lazy.__dict__
        held = train(state, ds, tcfg, test_set=self.whole(lazy)).trace
        assert streamed.test_acc.tobytes() == held.test_acc.tobytes()
        assert streamed.test_loss.tobytes() == held.test_loss.tobytes()

    def test_test_tokens_never_held(self):
        # 400 test samples at T=8, d=1500 are 38.4 MB of tokens; a
        # projection-branch run draws and scores them holding one chunk of
        # 72 samples (18%) and the projection ((2N + 1)/d = 7%) at a time
        state, ds, sig, _ = self.setup_run(n=6, T=8, d=1500)
        tcfg = run_config(alpha=0.05, steps=60, log_every=1)
        assert projects_test_set(ds.config, tcfg)
        test_cfg = replace(ds.config, n=400, eta=0.0)
        tracemalloc.start()
        try:
            lazy = generate_dataset(test_cfg, sig, stream(11, "t"), lazy=True)
            train(state, ds, tcfg, test_set=lazy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "X" not in lazy.__dict__
        assert peak < 400 * 8 * 1500 * 8 / 3

    def test_loop_error_stops_test_draw(self, monkeypatch):
        # a hook that raises at step 0 ends the run while the worker draws
        # the first of five test chunks; it must draw no further chunk
        data_mod = importlib.import_module("attnsim.data")
        exact_draw, exact_close = data_mod._draw_tokens, _TestScoring.close
        drawn, closing, closed = [], [], threading.Event()

        def counting_draw(rng, config, signals, y_true):
            drawn.append(len(y_true))
            if len(drawn) == 1:
                assert closed.wait(timeout=30)
                assert closing[0].stopped.wait(timeout=30)
            return exact_draw(rng, config, signals, y_true)

        def recording_close(self):
            closing.append(self)
            closed.set()
            exact_close(self)

        def failing_hook(step, _info):
            raise RuntimeError("hook failed")

        state, ds, sig, lazy = self.setup_run()
        monkeypatch.setattr(data_mod, "_draw_tokens", counting_draw)
        monkeypatch.setattr(_TestScoring, "close", recording_close)
        with pytest.raises(RuntimeError, match="hook failed"):
            train(state, ds, run_config(steps=100, log_every=1),
                  test_set=lazy, hooks=(failing_hook,))
        assert drawn == [_test_chunk(150)]

    @pytest.mark.slow
    def test_harmful_point(self):
        # the harmful regime point of the acceptance suite over 20000 steps,
        # 201 logged states and 1000 test samples (N = 162)
        d = 5000
        cfg = DataConfig(n=20, T=8, d=d, mu_norm=5.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1, n_weak_same=1)
        sig = make_signals(d, 5.0, stream(0, "s"))
        ds = generate_dataset(cfg, sig, stream(0, "d"))
        test_cfg = replace(cfg, n=1000, eta=0.0)
        s = 3 * a8_sigma(cfg)
        W, p = init_params(d, s, s, stream(0, "i"))
        state = ModelState(W=W, p=p, nu=make_head(sig))
        tcfg = run_config(alpha=5e-3, steps=20000, log_every=100)
        assert projects_test_set(cfg, tcfg)
        lazy = generate_dataset(test_cfg, sig, stream(0, "t"), lazy=True)
        streamed = train(state, ds, tcfg, test_set=lazy).trace
        assert "X" not in lazy.__dict__
        held = train(state, ds, tcfg, test_set=generate_dataset(
            test_cfg, sig, stream(0, "t"))).trace
        assert streamed.test_acc.tobytes() == held.test_acc.tobytes()
        assert streamed.test_loss.tobytes() == held.test_loss.tobytes()


class TestScoringSizes:
    """The block and chunk sizes set how many numpy calls the scoring
    thread makes.  At any sizes the thread must give the bits of a serial
    pass in the same blocks.  Across sizes the bits held under OpenBLAS on
    the projection branch for chunks of a multiple of 8 samples and blocks
    of two or more states, and at the acceptance points between the
    default sizes and the earlier ones (blocks of 32, chunks of 64).  They
    need not hold for a block of one state, which numpy multiplies as a
    vector, nor for the direct branch's small products, which OpenBLAS
    rounds differently for different row counts (at d=64 every block size
    gave other bits)."""

    # 101 logged states (N = 38) over 150 lazy test samples at T=6, and 46
    # (N = 46) over 40 held ones; 7 divides neither, and 152 samples are
    # one chunk
    @staticmethod
    def setup_run(projected):
        if projected:
            state, ds, sig, test = TestStreamedTestSet().setup_run(T=6)
            tcfg = run_config(alpha=0.05, steps=100, log_every=1)
        else:
            state, ds, sig, test = TestConcurrentTestScoring().setup_run()
            tcfg = run_config(alpha=0.05, steps=90, log_every=2)
        assert projects_test_set(ds.config, tcfg) == projected
        return state, ds, sig, tcfg, test

    @staticmethod
    def run(monkeypatch, state, ds, sig, tcfg, test, block, chunk):
        """The trace of a run scored in blocks of ``block`` states and
        chunks of ``chunk`` samples (the defaults for None); the sizes
        stay set for the rest of the test."""
        if block is not None:
            monkeypatch.setattr(train_mod, "_TEST_BLOCK", block)
        if chunk is not None:
            monkeypatch.setattr(train_mod, "_test_chunk", lambda m: chunk)
        return train(state, ds, tcfg, test_set=test).trace

    @pytest.mark.parametrize("block, chunk", [(1, 8), (7, 24), (None, 152)])
    @pytest.mark.parametrize("projected", [True, False],
                             ids=["projected", "direct"])
    def test_equals_serial_scoring_at_any_size(self, monkeypatch, block,
                                               chunk, projected):
        rows = []
        exact_coefficients = _SubspaceEngine.coefficients

        def recording(eng, row):
            exact_coefficients(eng, row)
            rows.append(row.copy())

        state, ds, sig, tcfg, test = self.setup_run(projected)
        whole = (TestStreamedTestSet.whole(test) if projected else test)
        monkeypatch.setattr(_SubspaceEngine, "coefficients", recording)
        trace = self.run(monkeypatch, state, ds, sig, tcfg, test, block,
                         chunk)
        # the serial pass projects the tokens in the run's chunks
        eng = _SubspaceEngine(state, ds, tcfg.alpha)
        _, to_scores = eng.test_scorer(whole, projected, threading.Event())
        acc, loss = serial_test_metrics(whole, state.nu, np.array(rows),
                                        to_scores, block or _TEST_BLOCK)
        assert trace.test_acc.tobytes() == acc.tobytes()
        assert trace.test_loss.tobytes() == loss.tobytes()

    @pytest.mark.parametrize("block, chunk", [
        (7, 8), (32, 64), (None, 24), (7, 152)])
    def test_sizes_keep_the_projected_bits(self, monkeypatch, block, chunk):
        state, ds, sig, tcfg, test = self.setup_run(True)
        default = self.run(monkeypatch, state, ds, sig, tcfg, test, None,
                           None)
        got = self.run(monkeypatch, state, ds, sig, tcfg, test, block, chunk)
        assert got.test_acc.tobytes() == default.test_acc.tobytes()
        assert got.test_loss.tobytes() == default.test_loss.tobytes()

    # the benign point (2001 logged states, projection branch) and the
    # not-overfitting point (81, direct branch) of the acceptance suite,
    # scored in blocks of 32 and chunks of 64 samples against the defaults
    @pytest.mark.slow
    @pytest.mark.parametrize("d, mu_norm, steps, projected", [
        (2000, 20.0, 20000, True), (1000, 100.0, 800, False)],
        ids=["benign", "not-overfitting"])
    def test_paper_scale(self, monkeypatch, d, mu_norm, steps, projected):
        cfg = DataConfig(n=20, T=8, d=d, mu_norm=mu_norm, sigma_eps=1.0,
                         eta=0.2, rho=0.1, n_weak_same=1)
        sig = make_signals(d, mu_norm, stream(0, "s"))
        ds = generate_dataset(cfg, sig, stream(0, "d"))
        tcfg = run_config(alpha=5e-3, steps=steps, log_every=10)
        assert projects_test_set(cfg, tcfg) == projected
        test = generate_dataset(replace(cfg, n=1000, eta=0.0), sig,
                                stream(0, "t"), lazy=projected)
        s = 3 * a8_sigma(cfg)
        W, p = init_params(d, s, s, stream(0, "i"))
        state = ModelState(W=W, p=p, nu=make_head(sig))
        default = self.run(monkeypatch, state, ds, sig, tcfg, test, None,
                           None)
        old = self.run(monkeypatch, state, ds, sig, tcfg, test, 32, 64)
        assert old.test_acc.tobytes() == default.test_acc.tobytes()
        assert old.test_loss.tobytes() == default.test_loss.tobytes()
