import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from attnsim import multiclass
from attnsim.data import (ConfigError, DataConfig, generate_dataset,
                          make_signals)
from attnsim.model import make_head
from attnsim.multiclass import (MulticlassConfig, head_gradient_estimate,
                                make_class_signals)
from attnsim.rng import stream
from attnsim.theory import etf_gradient_check, rel_err
from attnsim.train import empirical_loss

from oracles import (MulticlassDataset, MulticlassState,
                     generate_multiclass_dataset, grad_wv,
                     multiclass_loss_and_grads)


def kcfg(**kw):
    base = dict(n=8, T=4, d=12, K=3, mu_norm=3.0, sigma_eps=1.0, eta=0.2,
                rho=0.3, n_weak=2)
    base.update(kw)
    return MulticlassConfig(**base)


def random_kstate(cfg, seed=0, sigma=0.4):
    rng = stream(seed, "kstate")
    return MulticlassState(
        W=rng.normal(0.0, sigma, size=(cfg.d, cfg.d)),
        p=rng.normal(0.0, sigma, size=cfg.d),
        W_V=rng.normal(0.0, sigma, size=(cfg.d, cfg.K)),
    )


class TestClassSignals:
    def test_random_orthogonal(self):
        mus = make_class_signals(64, 4, 7.0, rng=stream(1, "k"))
        np.testing.assert_allclose(mus @ mus.T, 49.0 * np.eye(4), atol=1e-9)

    def test_needs_room(self):
        with pytest.raises(ValueError):
            make_class_signals(2, 3, 1.0, stream(1, "k"))


class TestMulticlassConfig:
    @pytest.mark.parametrize("key", ["mu_norm", "sigma_eps", "eta", "rho"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_real_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            kcfg(**{key: value})

    @pytest.mark.parametrize("key", ["n", "T", "d", "K", "n_weak"])
    @pytest.mark.parametrize("value", [2.0, True])
    def test_non_integer_count_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            kcfg(**{key: value})


class TestKDataset:
    def test_structure(self):
        cfg = kcfg(n=200)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(0, "k"))
        ds = generate_multiclass_dataset(cfg, mus, stream(0, "kd"))
        assert ds.X.shape == (200, 4, 12)
        assert set(np.unique(ds.y_true)) <= {0, 1, 2}
        flips = ds.y_train != ds.y_true
        assert 0.1 < flips.mean() < 0.3
        # flipped labels always land on a different class
        assert np.all(ds.y_train[flips] != ds.y_true[flips])

    def test_tokens_have_the_bits_of_a_normal_draw(self):
        # the in-place fill computes 0 + sigma_eps z, as normal(0, sigma_eps)
        cfg = kcfg(n=50, sigma_eps=0.7)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(0, "k"))
        ds = generate_multiclass_dataset(cfg, mus, stream(0, "kd"))
        tok_rng, _ = stream(0, "kd").spawn(2)
        y_true = tok_rng.integers(cfg.K, size=cfg.n)
        weak = tok_rng.integers(cfg.K, size=(cfg.n, cfg.n_weak))
        want = tok_rng.normal(0.0, cfg.sigma_eps, size=(cfg.n, cfg.T, cfg.d))
        want[:, 0, :] += mus[y_true]
        for j in range(cfg.n_weak):
            want[:, 1 + j, :] += cfg.rho * mus[weak[:, j]]
        assert ds.X.tobytes() == want.tobytes()


class TestMulticlassLoss:
    def test_zero_head_log_k(self):
        cfg = kcfg()
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(2, "k"))
        ds = generate_multiclass_dataset(cfg, mus, stream(2, "kd"))
        state = random_kstate(cfg, seed=3)
        state.W_V = np.zeros((cfg.d, cfg.K))
        loss, gw, gp = multiclass_loss_and_grads(ds, state)
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)
        assert not gw.any() and not gp.any()

    def test_rejects_single_class(self):
        cfg = kcfg()
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(2, "k"))
        ds = generate_multiclass_dataset(cfg, mus, stream(2, "kd"))
        state = random_kstate(cfg)
        state.W_V = state.W_V[:, :1]
        with pytest.raises(ValueError):
            multiclass_loss_and_grads(ds, state)

    def test_finite_difference_oracle(self):
        cfg = kcfg(n=4, T=3, d=8, K=3, n_weak=1)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(4, "k"))
        ds = generate_multiclass_dataset(cfg, mus, stream(4, "kd"))
        state = random_kstate(cfg, seed=5)
        _, gw, gp = multiclass_loss_and_grads(ds, state)
        h = 1e-5
        fd_w = np.zeros_like(gw)
        for a in range(cfg.d):
            for b in range(cfg.d):
                for sgn, acc in ((1, 1.0), (-1, -1.0)):
                    pert = state.W.copy()
                    pert[a, b] += sgn * h
                    probe = MulticlassState(W=pert, p=state.p, W_V=state.W_V)
                    fd_w[a, b] += acc * multiclass_loss_and_grads(ds, probe)[0]
        fd_w /= 2 * h
        fd_p = np.zeros_like(gp)
        for a in range(cfg.d):
            for sgn, acc in ((1, 1.0), (-1, -1.0)):
                pert = state.p.copy()
                pert[a] += sgn * h
                probe = MulticlassState(W=state.W, p=pert, W_V=state.W_V)
                fd_p[a] += acc * multiclass_loss_and_grads(ds, probe)[0]
        fd_p /= 2 * h
        assert np.max(rel_err(gw, fd_w, floor=3e-5)) <= 1e-6
        assert np.max(rel_err(gp, fd_p, floor=3e-5)) <= 1e-6

    def test_binary_reduction(self):
        # K = 2 with nu_0 = -nu_1 = nu/2 reproduces the logistic path exactly
        cfg = DataConfig(n=10, T=5, d=16, mu_norm=4.0, sigma_eps=1.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(16, 4.0, stream(6, "s"))
        ds = generate_dataset(cfg, sig, stream(6, "d"))
        rng = stream(7, "w")
        W = rng.normal(0.0, 0.3, size=(16, 16))
        p = rng.normal(0.0, 0.3, size=16)
        nu = make_head(sig)

        from attnsim.model import ModelState
        from attnsim.train import grad_p, grad_w
        bstate = ModelState(W=W, p=p, nu=nu)
        bloss = empirical_loss(ds, bstate)
        bgw, bgp = grad_w(ds, bstate), grad_p(ds, bstate)

        kds = MulticlassDataset(
            X=ds.X, y_train=((1 - ds.y_train) // 2).astype(int),
            y_true=((1 - ds.y_true) // 2).astype(int),
            weak_classes=np.zeros((10, 0), dtype=int), K=2)
        kstate = MulticlassState(W=W, p=p,
                                 W_V=np.stack([nu / 2, -nu / 2], axis=1))
        kloss, kgw, kgp = multiclass_loss_and_grads(kds, kstate)
        assert kloss == pytest.approx(bloss, rel=1e-12)
        np.testing.assert_allclose(kgw, bgw, rtol=1e-10, atol=1e-16)
        np.testing.assert_allclose(kgp, bgp, rtol=1e-10, atol=1e-16)


class TestHeadGradientGeometry:
    def test_k2_target_algebra(self):
        # with two classes the centered signals are +-(mu_0 - mu_1)/2
        mus = 2.0 * np.eye(2, 6)
        centered = mus - mus.mean(axis=0)
        np.testing.assert_allclose(centered[0], (mus[0] - mus[1]) / 2.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(centered[1], -(mus[0] - mus[1]) / 2.0,
                                   rtol=1e-12)

    def test_noise_free_directions(self):
        # sigma=0, eta=0, rho=0: gradient directions are exact up to class
        # sampling fluctuations
        cfg = kcfg(T=4, d=24, K=3, sigma_eps=0.0, eta=0.0, rho=0.0, n_weak=2)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(8, "k"))
        est = head_gradient_estimate(cfg, mus, 100_000, stream(8, "mc"))
        target = mus - mus.mean(axis=0)
        for k in range(3):
            cos = est[:, k] @ target[k] / (
                np.linalg.norm(est[:, k]) * np.linalg.norm(target[k]))
            assert cos >= 0.999

    def test_label_noise_rescales_not_rotates(self):
        cfg = kcfg(T=4, d=24, K=2, sigma_eps=0.0, eta=0.4, rho=0.0, n_weak=2)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(9, "k"))
        est = head_gradient_estimate(cfg, mus, 100_000, stream(9, "mc"))
        target = mus - mus.mean(axis=0)
        for k in range(2):
            cos = est[:, k] @ target[k] / (
                np.linalg.norm(est[:, k]) * np.linalg.norm(target[k]))
            assert cos >= 0.99

    def test_grad_wv_at_zero_matches_closed_form(self):
        cfg = kcfg(n=64)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(10, "k"))
        ds = generate_multiclass_dataset(cfg, mus, stream(10, "kd"))
        state = MulticlassState(W=np.zeros((cfg.d, cfg.d)), p=np.zeros(cfg.d),
                                W_V=np.zeros((cfg.d, cfg.K)))
        got = grad_wv(ds, state)
        token_means = ds.X.mean(axis=1)                      # uniform attention
        coeff = np.full((ds.n, cfg.K), 1.0 / cfg.K)
        coeff[np.arange(ds.n), ds.y_train] -= 1.0
        expected = token_means.T @ coeff / ds.n
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def held_batch_estimate(cfg, mus, mc_samples, rng):
    """Reference for head_gradient_estimate: each batch drawn whole and run
    through grad_wv at the all-zero state."""
    zero = MulticlassState(W=np.zeros((cfg.d, cfg.d)), p=np.zeros(cfg.d),
                           W_V=np.zeros((cfg.d, cfg.K)))
    total = np.zeros((cfg.d, cfg.K))
    remaining = mc_samples
    while remaining > 0:
        m = min(multiclass._ESTIMATE_BATCH, remaining)
        ds = generate_multiclass_dataset(replace(cfg, n=m), mus, rng)
        total += -grad_wv(ds, zero) * m
        remaining -= m
    return total / mc_samples


class TestStreamedHeadGradient:
    @pytest.mark.parametrize("chunk, mc_samples, kw", [
        (512, 4096 + 700, {}),                          # ragged batch and chunk
        (300, 2 * 4096, {}),                            # ragged last chunk
        (512, 1500, dict(n_weak=0, K=2)),
        (512, 1500, dict(sigma_eps=0.0, eta=0.0)),
        (1, 37, dict(T=3, n_weak=1)),
        (64, 3 * 4096, {}),                             # three whole batches
        (64, 3 * 4096 + 1, {}),                         # one-sample batch
        (100, 4 * 4096 - 1, {}),                        # ragged last batch
    ], ids=["ragged-batch", "ragged-chunk", "no-weak", "noise-free",
            "one-sample-chunks", "three-batches", "one-sample-batch",
            "ragged-fourth-batch"])
    def test_equals_held_batch_path_bytes(self, monkeypatch, chunk,
                                          mc_samples, kw):
        monkeypatch.setattr(multiclass, "_ESTIMATE_CHUNK", chunk)
        cfg = kcfg(**{"n": 1, "T": 5, "d": 16, **kw})
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(11, "k"))
        got = head_gradient_estimate(cfg, mus, mc_samples, stream(11, "mc"))
        want = held_batch_estimate(cfg, mus, mc_samples, stream(11, "mc"))
        assert got.tobytes() == want.tobytes()

    def test_bits_hold_under_thread_contention(self, monkeypatch):
        # more threads than cores, switching often: a buffer set written by
        # two batches at once would change the bits
        monkeypatch.setattr(multiclass, "_ESTIMATE_THREADS", 4)
        monkeypatch.setattr(multiclass, "_ESTIMATE_CHUNK", 7)
        cfg = kcfg(n=1, T=5, d=16)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(16, "k"))
        mc_samples = 6 * multiclass._ESTIMATE_BATCH + 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = head_gradient_estimate(cfg, mus, mc_samples, stream(16, "mc"))
        finally:
            sys.setswitchinterval(interval)
        want = held_batch_estimate(cfg, mus, mc_samples, stream(16, "mc"))
        assert got.tobytes() == want.tobytes()

    def test_multi_batch_holds_two_buffer_sets(self):
        cfg = kcfg(n=1, T=6, d=256, K=3)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(12, "k"))
        batch_bytes = multiclass._ESTIMATE_BATCH * cfg.T * cfg.d * 8
        buffer_set = (multiclass._ESTIMATE_BATCH * cfg.d
                      + multiclass._ESTIMATE_CHUNK * cfg.T * cfg.d) * 8
        tracemalloc.start()
        try:
            head_gradient_estimate(cfg, mus, 3 * multiclass._ESTIMATE_BATCH
                                   + 100, stream(12, "mc"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * buffer_set <= peak < batch_bytes / 2

    def test_failing_batch_raises_and_joins(self, monkeypatch):
        calls = itertools.count()
        draw = multiclass._draw_tokens

        def failing(*args, **kw):
            if next(calls) == 100:          # partway through the draws
                raise RuntimeError("batch draw failed")
            return draw(*args, **kw)

        monkeypatch.setattr(multiclass, "_draw_tokens", failing)
        cfg = kcfg(n=1, T=4, d=16)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(15, "k"))
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="batch draw failed"):
            head_gradient_estimate(cfg, mus, 5 * multiclass._ESTIMATE_BATCH,
                                   stream(15, "mc"))
        assert set(threading.enumerate()) <= before

    def test_never_holds_a_batch(self):
        cfg = kcfg(n=1, T=6, d=256, K=3)
        mus = make_class_signals(cfg.d, cfg.K, cfg.mu_norm, rng=stream(12, "k"))
        batch_bytes = multiclass._ESTIMATE_BATCH * cfg.T * cfg.d * 8
        tracemalloc.start()
        try:
            head_gradient_estimate(cfg, mus, multiclass._ESTIMATE_BATCH,
                                   stream(12, "mc"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < batch_bytes / 3

    @pytest.mark.parametrize("rows", [2, 4])
    def test_signal_shape_checked(self, rows):
        cfg = kcfg(d=32, K=3)
        mus = cfg.mu_norm * np.eye(rows, cfg.d)
        with pytest.raises(ValueError, match="shape"):
            head_gradient_estimate(cfg, mus, 1000, stream(13, "mc"))
        with pytest.raises(ValueError, match="shape"):
            etf_gradient_check(cfg, mus, 1000, stream(13, "mc"))

    @pytest.mark.parametrize("mc_samples", [2000.0, True, np.bool_(True), 0,
                                            -3, "2000"])
    def test_mc_samples_checked(self, mc_samples):
        cfg = kcfg(d=32, K=3)
        mus = cfg.mu_norm * np.eye(cfg.K, cfg.d)
        with pytest.raises(ValueError, match="mc_samples"):
            head_gradient_estimate(cfg, mus, mc_samples, stream(13, "mc"))
        with pytest.raises(ValueError, match="mc_samples"):
            etf_gradient_check(cfg, mus, mc_samples, stream(13, "mc"))

    def test_numpy_integer_mc_samples_accepted(self):
        cfg = kcfg(d=32, K=3)
        mus = cfg.mu_norm * np.eye(cfg.K, cfg.d)
        got = head_gradient_estimate(cfg, mus, np.int64(300), stream(13, "mc"))
        want = head_gradient_estimate(cfg, mus, 300, stream(13, "mc"))
        assert got.tobytes() == want.tobytes()
