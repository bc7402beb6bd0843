import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnsim.data import (DataConfig, SignalBasis, generate_dataset,
                          make_signals)
from attnsim.model import (_TOKEN_MAJOR_MIN, ModelState, _attend,
                           _attend_work, _fits, _softmax, batch_outputs,
                           init_params, loss_derivative, make_head, softmax)
from attnsim.rng import stream
from attnsim.train import empirical_loss

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


class TestInitParams:
    def test_zero_variance(self):
        W, p = init_params(8, 0.0, 0.0, stream(0, "i"))
        assert not W.any() and not p.any()

    def test_variance_moment(self):
        W, _ = init_params(2000, 0.3, 0.3, stream(1, "i"))
        assert W.var() == pytest.approx(0.09, rel=0.05)

    def test_same_seed_identical(self):
        a = init_params(32, 0.5, 0.2, stream(3, "i"))
        b = init_params(32, 0.5, 0.2, stream(3, "i"))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("sigma_w, sigma_p", [
        (-0.1, 0.1), (0.1, -0.1), (math.nan, 0.1), (0.1, math.nan)])
    def test_negative_or_nan_scale_rejected(self, sigma_w, sigma_p):
        with pytest.raises(ValueError, match="scales"):
            init_params(8, sigma_w, sigma_p, stream(0, "i"))


class TestMakeHead:
    def test_axis_aligned_closed_form(self):
        sig = SignalBasis(*(2.0 * np.eye(5)[:2]))
        nu = make_head(sig)  # (1/(2*sqrt(2))) * (1, -1, 0, ...)
        expected = np.zeros(5)
        expected[0] = 1.0 / (2.0 * math.sqrt(2.0))
        expected[1] = -expected[0]
        np.testing.assert_allclose(nu, expected, rtol=1e-12)

    def test_dot_product_oracle(self):
        # independent arithmetic: nu^T mu_+ = ||mu|| cos(pi/4) * (1/||mu||)
        sig = SignalBasis(*(2.0 * np.eye(6)[:2]))
        nu = make_head(sig)
        assert nu @ sig.mu_plus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert nu @ sig.mu_minus == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-12)
        assert np.linalg.norm(nu) == pytest.approx(0.5, rel=1e-12)

    def test_alignment_cosine(self):
        sig = make_signals(100, 3.0, stream(2, "s"))
        nu = make_head(sig)
        cos = nu @ sig.mu_plus / (np.linalg.norm(nu) * 3.0)
        assert cos == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_degenerate_signals(self):
        e = np.eye(4)[0]
        with pytest.raises(ValueError):
            make_head(SignalBasis(mu_plus=e, mu_minus=e))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_closed_form(self):
        np.testing.assert_allclose(softmax(np.array([math.log(3.0), 0.0])),
                                   [0.75, 0.25], rtol=1e-12)

    def test_overflow_stability(self):
        s = softmax(np.array([1000.0, 0.0]))
        assert s[0] == pytest.approx(1.0)
        assert np.isfinite(s).all()

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            softmax(np.array([1.0, math.inf]))

    @given(st.lists(finite_floats, min_size=2, max_size=8),
           st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, v, c):
        v = np.array(v)
        np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    @given(st.lists(finite_floats, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_simplex(self, v):
        s = softmax(np.array(v))
        assert abs(s.sum() - 1.0) < 1e-12
        assert ((s > 0) & (s < 1 + 1e-12)).all()

    @given(T=st.integers(2, 9), offset=st.integers(-4, 4),
           scale=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
           saturated=st.integers(0, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_rows_agree_across_token_major_threshold(self, T, offset, scale,
                                                     saturated, seed):
        # the loop's (n, T) scores stay below _TOKEN_MAJOR_MIN entries and
        # the test scorer's blocks reach past it: a row's softmax must
        # have the same bytes on either branch
        rows = -(-_TOKEN_MAJOR_MIN // T) + offset
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(rows, T)) * scale
        # a token 1000 above the rest gives a row of exact 0s and a 1
        picked = rng.choice(rows, size=saturated, replace=False)
        v[picked, rng.integers(0, T, size=saturated)] += 1000.0
        assert (v.size >= _TOKEN_MAJOR_MIN) == (offset >= 0)
        half = rows // 2
        assert v[half:].size < _TOKEN_MAJOR_MIN
        parts = np.vstack([_softmax(v[:half]), _softmax(v[half:])])
        assert _softmax(v).tobytes() == parts.tobytes()


def tiny_state(d=6, seed=0, sigma=0.4):
    rng = stream(seed, "state")
    W, p = init_params(d, sigma, sigma, rng)
    nu = rng.normal(size=d)
    return ModelState(W=W, p=p, nu=nu)


class TestModelState:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["W", "p", "nu"])
    def test_non_finite_rejected(self, name, bad):
        arrays = {"W": np.ones((4, 4)), "p": np.ones(4), "nu": np.ones(4)}
        arrays[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            ModelState(**arrays)

    def test_huge_finite_accepted(self):
        big = np.finfo(float).max
        ModelState(W=np.full((3, 3), -big), p=np.full(3, big),
                   nu=np.array([big, -big, 0.0]))


def make_dataset(seed=0, n=12):
    cfg = DataConfig(n=n, T=5, d=24, mu_norm=6.0, sigma_eps=0.5, eta=0.25,
                     rho=0.2)
    sig = make_signals(24, 6.0, stream(seed, "s"))
    return generate_dataset(cfg, sig, stream(seed, "d")), sig


class TestForward:
    """``batch_outputs``, the one dense forward, with ``_attend``'s softmax
    and ``_fits``'s strict-sign rule."""

    def test_zero_w_uniform(self):
        n, T, d = 3, 4, 6
        state = tiny_state(d)
        state.W = np.zeros((d, d))
        X = stream(1, "x").normal(size=(n, T, d))
        probs, _, _ = _attend(X @ (state.W.T @ state.p), X @ state.nu)
        np.testing.assert_allclose(probs, np.full((n, T), 0.25), atol=1e-12)
        np.testing.assert_allclose(batch_outputs(X, state),
                                   (X @ state.nu).mean(axis=1), rtol=1e-12)

    def test_zero_head(self):
        state = tiny_state()
        state.nu = np.zeros(6)
        X = stream(2, "x").normal(size=(2, 3, 6))
        assert not batch_outputs(X, state).any()

    def test_affine_combination(self):
        # token scores (1, -1), attention logits (log 3, 0) -> 3/4 - 1/4
        state = ModelState(W=np.eye(2), p=np.array([math.log(3.0), 0.0]),
                           nu=np.array([0.0, 1.0]))
        X = np.array([[[1.0, 1.0], [0.0, -1.0]]])
        assert batch_outputs(X, state)[0] == pytest.approx(0.5, rel=1e-12)

    def test_output_decomposition_invariant(self):
        # f = <s, gamma> with s from the checked public softmax
        state = tiny_state(seed=5)
        X = stream(6, "x").normal(size=(4, 5, 6))
        s = softmax(X @ (state.W.T @ state.p))
        np.testing.assert_allclose(batch_outputs(X, state),
                                   np.sum(s * (X @ state.nu), axis=1),
                                   rtol=1e-12)

    def test_pure_function(self):
        state = tiny_state(seed=7)
        X = stream(8, "x").normal(size=(3, 4, 6))
        assert (batch_outputs(X, state).tobytes()
                == batch_outputs(X, state).tobytes())

    def test_perfect_separation(self):
        # uniform attention with the aligned head classifies clean data
        ds, sig = make_dataset(seed=3)
        state = ModelState(W=np.zeros((24, 24)), p=np.zeros(24),
                           nu=make_head(sig))
        out = batch_outputs(ds.X, state)
        assert _fits(out, ds.y_true).all()
        assert _fits(out[ds.clean_idx], ds.y_train[ds.clean_idx]).all()
        assert not _fits(out[ds.noisy_idx], ds.y_train[ds.noisy_idx]).any()


class TestPredict:
    """The sign rule that turns an output into a label: ``_fits``."""

    def test_signs(self):
        out = np.array([0.5, -1e-300])
        np.testing.assert_array_equal(_fits(out, np.array([1, -1])),
                                      [True, True])
        np.testing.assert_array_equal(_fits(out, np.array([-1, 1])),
                                      [False, False])

    def test_tie_rule(self):
        # a zero output misfits either label, so ties never count as fits
        out = np.zeros(2)
        assert not _fits(out, np.array([1, -1])).any()


class TestEvaluate:
    def test_zero_head_zero_accuracy(self):
        ds, _ = make_dataset()
        state = ModelState(W=np.zeros((24, 24)), p=np.zeros(24),
                           nu=np.zeros(24))
        out = batch_outputs(ds.X, state)
        assert not _fits(out, ds.y_train).any()
        assert not _fits(out, ds.y_true).any()
        assert empirical_loss(ds, state) == pytest.approx(math.log(2.0),
                                                          rel=1e-12)


class TestAttendWork:
    """``_attend`` writing into a workspace, as the training loop calls
    it, against the allocating call: the same bytes, with the workspace
    reused across calls."""

    @staticmethod
    def attend_both(u, gamma, y, work):
        n, T = u.shape
        weights = np.full((n, T), np.nan)
        plain = _attend(u, gamma, y)
        kept = _attend(u, gamma, y, (*work, weights))
        assert kept[0] is work[0]
        assert kept[2] is (weights if y is not None else None)
        for a, b in zip(plain, kept):
            if a is None:
                assert b is None
            else:
                assert a.tobytes() == b.tobytes()
        return plain

    @given(n=st.integers(1, 20), T=st.integers(2, 9),
           score_scale=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
           head_scale=st.sampled_from([0.1, 1.0, 50.0, 1e3]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_allocating_call(self, n, T, score_scale,
                                           head_scale, seed):
        rng = np.random.default_rng(seed)
        work = _attend_work(n, T)
        for _ in range(2):       # the second call reuses every buffer
            u = rng.normal(size=(n, T)) * score_scale
            gamma = rng.normal(size=(n, T)) * head_scale
            y = rng.choice(np.array([-1, 1]), size=n)
            self.attend_both(u, gamma, y, work)
            self.attend_both(u, gamma, None, work)

    @given(data=st.data(), n=st.integers(1, 12), T=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_omega_and_scale_are_the_identity_factors(self, data, n, T):
        # the update identities read c = sum_t omega_t x_t and a = -scale
        # from this workspace in place of deriving them again: a reorder of
        # _attend's arithmetic that moves their bits fails here first
        wide = st.floats(-1e3, 1e3)
        u = data.draw(arrays(float, (n, T), elements=wide))
        gamma = data.draw(arrays(float, (n, T), elements=wide))
        y = data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
        work = (*_attend_work(n, T), np.empty((n, T)))
        probs, out, _ = _attend(u, gamma, y, work)
        _, omega, _, scale, _ = work
        assert omega.tobytes() == (probs * (gamma - out[:, None])).tobytes()
        assert (-scale).tobytes() == (
            (-loss_derivative(y * out)) * y / n).tobytes()

    def test_saturated_rows_and_margins_past_endpoints(self):
        # score gaps of 1000 give softmax rows of exact 0s and a 1, and a
        # head of +-800 on the selected token puts the margins y f beyond
        # both ends where loss_derivative rounds to -1.0 and -0.0
        n, T = 6, 5
        u = np.zeros((n, T))
        u[:, 0] = 1000.0
        gamma = np.zeros((n, T))
        gamma[:, 0] = [800.0, -800.0, 40.0, -40.0, 0.5, 800.0]
        y = np.array([1, 1, 1, 1, -1, -1])
        probs, out, weights = self.attend_both(u, gamma, y,
                                               _attend_work(n, T))
        assert (probs[:, 1:] == 0.0).all() and (probs[:, 0] == 1.0).all()
        margins = y * out
        assert margins.min() < -37 and margins.max() > 745
        assert loss_derivative(margins).tolist()[:2] == [-0.0, -1.0]
