import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsim.data import DataConfig, generate_dataset, make_signals
from attnsim.model import (ModelState, evaluate, forward, init_params,
                           make_head, predict, softmax)
from attnsim.rng import stream

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
        sig = make_signals(5, 2.0, "axis_aligned")
        nu = make_head(sig)  # (1/(2*sqrt(2))) * (1, -1, 0, ...)
        expected = np.zeros(5)
        expected[0] = 1.0 / (2.0 * math.sqrt(2.0))
        expected[1] = -expected[0]
        np.testing.assert_allclose(nu, expected, rtol=1e-12)

    def test_unit_rule_norm(self):
        sig = make_signals(64, 7.0, "random_orthogonal", stream(0, "s"))
        assert np.linalg.norm(make_head(sig, "unit")) == pytest.approx(1.0, rel=1e-12)

    def test_dot_product_oracle(self):
        # independent arithmetic: nu^T mu_+ = ||mu|| cos(pi/4) * (1/||mu||)
        sig = make_signals(6, 2.0, "axis_aligned")
        nu = make_head(sig, "inverse_mu")
        assert nu @ sig.mu_plus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert nu @ sig.mu_minus == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-12)
        assert np.linalg.norm(nu) == pytest.approx(0.5, rel=1e-12)

    def test_alignment_cosine(self):
        sig = make_signals(100, 3.0, "random_orthogonal", stream(2, "s"))
        nu = make_head(sig)
        cos = nu @ sig.mu_plus / (np.linalg.norm(nu) * 3.0)
        assert cos == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_degenerate_signals(self):
        sig = make_signals(4, 1.0, "axis_aligned")
        broken = type(sig)(mu_plus=sig.mu_plus, mu_minus=sig.mu_plus)
        with pytest.raises(ValueError):
            make_head(broken)


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


class TestForward:
    def test_zero_w_uniform(self):
        d, T = 6, 4
        state = tiny_state(d)
        state.W = np.zeros((d, d))
        X = stream(1, "x").normal(size=(T, d))
        res = forward(X, state)
        np.testing.assert_allclose(res.probs, np.full(T, 0.25), atol=1e-12)
        assert res.output == pytest.approx(res.token_scores.mean(), rel=1e-12)

    def test_zero_head(self):
        state = tiny_state()
        state.nu = np.zeros(6)
        X = stream(2, "x").normal(size=(3, 6))
        assert forward(X, state).output == 0.0

    def test_affine_combination(self):
        # T=2, token scores (1, -1), attention logits (log 3, 0) -> 0.5
        d = 2
        state = ModelState(W=np.eye(2), p=np.array([math.log(3.0), 0.0]),
                           nu=np.array([1.0, 0.0]))
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        # attn = X W^T p = (log3, -log3)... construct directly instead
        res = forward(X, state)
        assert res.output == pytest.approx(res.probs @ res.token_scores, rel=1e-12)
        assert res.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_output_decomposition_invariant(self):
        state = tiny_state(seed=5)
        X = stream(6, "x").normal(size=(5, 6))
        res = forward(X, state)
        assert res.output == pytest.approx(float(res.probs @ res.token_scores),
                                           abs=1e-12)

    def test_pure_function(self):
        state = tiny_state(seed=7)
        X = stream(8, "x").normal(size=(4, 6))
        a, b = forward(X, state), forward(X, state)
        assert a.output == b.output
        assert np.array_equal(a.probs, b.probs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(np.zeros((3, 5)), tiny_state(d=6))


class TestPredict:
    def test_signs(self):
        assert predict(0.5) == 1
        assert predict(-1e-300) == -1

    def test_tie_rule(self):
        assert predict(0.0) == -1

    @given(st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, x):
        assert predict(-x) == -predict(x)


class TestEvaluate:
    def make_dataset(self, seed=0, n=12):
        cfg = DataConfig(n=n, T=5, d=24, mu_norm=6.0, sigma_eps=0.5, eta=0.25,
                         rho=0.2)
        sig = make_signals(24, 6.0, "random_orthogonal", stream(seed, "s"))
        return generate_dataset(cfg, sig, stream(seed, "d")), sig

    def test_zero_head_zero_accuracy(self):
        ds, sig = self.make_dataset()
        state = ModelState(W=np.zeros((24, 24)), p=np.zeros(24),
                           nu=np.zeros(24))
        res = evaluate(ds, state)
        assert res.acc_train == 0.0 and res.acc_true == 0.0
        assert res.loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_separation(self):
        # uniform attention with the aligned head classifies clean data
        ds, sig = self.make_dataset(seed=3)
        state = ModelState(W=np.zeros((24, 24)), p=np.zeros(24),
                           nu=make_head(sig))
        res = evaluate(ds, state)
        assert res.acc_true == 1.0
        assert res.acc_train == pytest.approx(len(ds.clean_idx) / ds.n)
        np.testing.assert_array_equal(res.fit_true, np.ones(ds.n, dtype=bool))

    def test_empty_rejected(self):
        ds, sig = self.make_dataset()
        empty = replace(ds, y_train=np.zeros(0, dtype=int),
                        y_true=np.zeros(0, dtype=int))
        assert empty.X.shape == (0, 5, 24)
        state = ModelState(W=np.zeros((24, 24)), p=np.zeros(24), nu=np.zeros(24))
        with pytest.raises(ValueError):
            evaluate(empty, state)
