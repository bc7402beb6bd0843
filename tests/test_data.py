import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from attnsim.data import (ConfigError, DataConfig, _build_tokens, a8_sigma,
                          generate_dataset, make_signals, snr)
from attnsim.rng import normal_fill, stream


def signal_for(signals, label):
    """The class signal of ``label``."""
    return signals.mu_plus if label > 0 else signals.mu_minus


def small_config(**kw):
    base = dict(n=16, T=6, d=32, mu_norm=4.0, sigma_eps=1.0, eta=0.25,
                rho=0.2, n_weak_same=1)
    base.update(kw)
    return DataConfig(**base)


class TestSignals:
    def test_axis_aligned_closed_form(self):
        sig = make_signals(3, 2.0, "axis_aligned")
        assert np.array_equal(sig.mu_plus, [2.0, 0.0, 0.0])
        assert np.array_equal(sig.mu_minus, [0.0, 2.0, 0.0])

    def test_random_orthogonal_invariants(self):
        sig = make_signals(2000, 20.0, "random_orthogonal", stream(7, "sig"))
        assert np.linalg.norm(sig.mu_plus) == pytest.approx(20.0, rel=1e-12)
        assert np.linalg.norm(sig.mu_minus) == pytest.approx(20.0, rel=1e-12)
        assert abs(sig.mu_plus @ sig.mu_minus) <= 1e-9 * 400.0

    def test_same_seed_bit_identical(self):
        a = make_signals(64, 3.0, "random_orthogonal", stream(5, "sig"))
        b = make_signals(64, 3.0, "random_orthogonal", stream(5, "sig"))
        assert np.array_equal(a.mu_plus, b.mu_plus)
        assert np.array_equal(a.mu_minus, b.mu_minus)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            make_signals(1, 1.0, "axis_aligned")


@pytest.mark.parametrize("sigma", [0.0, 1.0, 1.7, 3e-3])
def test_normal_fill_has_the_bits_of_a_normal_draw(sigma):
    # filled in chunks of 32, 32 and 22 samples, the draw has the bytes of
    # one rng.normal(0, sigma) call (+0.0, not -0.0, at sigma 0) and leaves
    # the stream where that call does
    ref_rng, rng = stream(9, "fill"), stream(9, "fill")
    want = ref_rng.normal(0.0, sigma, (86, 5, 7))
    got = np.empty_like(want)
    for lo, hi in ((0, 32), (32, 64), (64, 86)):
        rows = got[lo:hi]
        assert normal_fill(rng, rows, sigma) is rows
    assert got.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()


class TestConfigValidation:
    def test_rejects_bad_eta(self):
        with pytest.raises(ConfigError):
            small_config(eta=0.5)

    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigError):
            small_config(rho=1.0)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigError, match="n and T"):
            small_config(n=0)

    def test_rejects_too_few_tokens(self):
        with pytest.raises(ConfigError):
            small_config(T=3, n_weak_same=2)

    def test_json_round_trip(self):
        cfg = small_config()
        assert DataConfig.from_json(cfg.to_json()) == cfg

    def test_json_unknown_key_rejected(self):
        obj = small_config().to_json()
        obj["sigma"] = 1.0
        with pytest.raises(ConfigError, match="unknown"):
            DataConfig.from_json(obj)


class TestSampleFromPStar:
    """Draws from the clean distribution p*: the token layout at zero noise
    and, at eta = 0, training labels equal to the true labels."""

    def test_zero_noise_degenerate(self):
        cfg = small_config(T=4, d=8, sigma_eps=0.0, n_weak_same=1, rho=0.2)
        sig = make_signals(8, 4.0, "axis_aligned")
        ds = generate_dataset(cfg, sig, stream(0, "x"))
        for tokens, y in zip(ds.X, ds.y_true):
            own = signal_for(sig, y)
            opp = signal_for(sig, -y)
            assert np.array_equal(tokens[0], own)
            assert np.array_equal(tokens[1], 0.2 * opp)
            assert np.array_equal(tokens[2], 0.2 * own)
            assert np.array_equal(tokens[3], np.zeros(8))

    def test_train_label_equals_true_label(self):
        cfg = small_config(eta=0.0)
        sig = make_signals(cfg.d, cfg.mu_norm, "axis_aligned")
        for k in range(10):
            ds = generate_dataset(cfg, sig, stream(k, "x"))
            assert np.array_equal(ds.y_train, ds.y_true)
            assert len(ds.noisy_idx) == 0

    def test_noise_norm_concentration(self):
        # ||eps||_2 within 5% of sigma*sqrt(d) in >= 99% of 1000 draws
        d = 5000
        rng = stream(11, "norms")
        eps = rng.normal(0.0, 1.0, size=(1000, d))
        norms = np.linalg.norm(eps, axis=1)
        frac = np.mean(np.abs(norms / math.sqrt(d) - 1.0) < 0.05)
        assert frac >= 0.99


class TestGenerateDataset:
    def test_shapes_paper_scale(self):
        cfg = DataConfig(n=20, T=8, d=2000, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        sig = make_signals(2000, 20.0, "random_orthogonal", stream(1, "s"))
        ds = generate_dataset(cfg, sig, stream(1, "d"))
        assert ds.X.shape == (20, 8, 2000)
        assert ds.noise.shape == (20, 8, 2000)

    def test_token_reconstruction_bitwise(self):
        cfg = small_config()
        sig = make_signals(cfg.d, cfg.mu_norm, "random_orthogonal",
                           stream(3, "s"))
        ds = generate_dataset(cfg, sig, stream(3, "d"))
        for x, eps, y in zip(ds.X, ds.noise, ds.y_true):
            own = signal_for(sig, y)
            opp = signal_for(sig, -y)
            assert np.array_equal(x[0], eps[0] + own)
            assert np.array_equal(x[1], eps[1] + cfg.rho * opp)
            assert np.array_equal(x[2], eps[2] + cfg.rho * own)
            for t in range(3, cfg.T):
                assert np.array_equal(x[t], eps[t])

    @pytest.mark.parametrize("n_weak_same", [0, 1, 2])
    def test_build_tokens_matches_vectorized_formula(self, n_weak_same):
        sig = make_signals(40, 5.0, "random_orthogonal", stream(6, "s"))
        rng = stream(6, "d")
        y = np.array([1, -1, -1, 1, 1, -1])
        noise = rng.normal(size=(len(y), 5, 40))
        rho = 0.3
        own = np.where((y > 0)[:, None], sig.mu_plus, sig.mu_minus)
        opp = np.where((y > 0)[:, None], sig.mu_minus, sig.mu_plus)
        ref = noise.copy()
        ref[:, 0, :] += own
        ref[:, 1, :] += rho * opp
        for j in range(n_weak_same):
            ref[:, 2 + j, :] += rho * own
        X = _build_tokens(y, noise, sig, rho, n_weak_same)
        assert np.array_equal(X, ref)
        assert X is noise   # the signals are added in place

    @pytest.mark.parametrize("sigma_eps", [1.0, 0.0])
    def test_noise_regenerated_from_stream(self, sigma_eps):
        # the noise is the same draw as an eager one from the token stream,
        # made only when first read, and reading it leaves X alone
        cfg = small_config(sigma_eps=sigma_eps)
        sig = make_signals(cfg.d, cfg.mu_norm, "random_orthogonal",
                           stream(4, "s"))
        ds = generate_dataset(cfg, sig, stream(4, "d"))
        tok_rng, _ = stream(4, "d").spawn(2)
        tok_rng.random(cfg.n)
        eager = tok_rng.normal(0.0, sigma_eps, size=(cfg.n, cfg.T, cfg.d))
        X = ds.X.copy()
        assert "noise" not in ds.__dict__
        assert np.array_equal(ds.noise, eager)
        assert ds.noise is ds.noise
        assert np.array_equal(ds.X, X)
        ref = _build_tokens(ds.y_true, eager.copy(), sig, cfg.rho,
                            cfg.n_weak_same)
        assert np.array_equal(ds.X, ref)

    @pytest.mark.parametrize("T", [6, 8])
    def test_token_chunks_equal_eager_draw(self, T):
        # 21 samples in chunks of 8: two whole chunks and a partial one
        cfg = small_config(n=21, T=T, d=40)
        sig = make_signals(cfg.d, cfg.mu_norm, "random_orthogonal",
                           stream(8, "s"))
        eager = generate_dataset(cfg, sig, stream(8, "d"))
        lazy = generate_dataset(cfg, sig, stream(8, "d"), lazy=True)
        assert np.array_equal(lazy.y_true, eager.y_true)
        assert np.array_equal(lazy.y_train, eager.y_train)
        assert np.array_equal(lazy.noisy_idx, eager.noisy_idx)
        chunks = list(lazy.token_chunks(8))
        assert [len(c) for c in chunks] == [8, 8, 5]
        assert "X" not in lazy.__dict__
        assert np.concatenate(chunks).tobytes() == eager.X.tobytes()
        # a held X is read through views, and a lazy X drawn whole on read
        assert all(np.shares_memory(c, eager.X)
                   for c in eager.token_chunks(8))
        assert lazy.X.tobytes() == eager.X.tobytes()

    def test_one_token_array_in_memory(self):
        cfg = DataConfig(n=300, T=8, d=1500, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        sig = make_signals(cfg.d, cfg.mu_norm, "random_orthogonal",
                           stream(5, "s"))
        tracemalloc.start()
        try:
            ds = generate_dataset(cfg, sig, stream(5, "d"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * ds.X.nbytes

    def test_partition_invariants(self):
        cfg = small_config(n=50)
        sig = make_signals(cfg.d, cfg.mu_norm, "axis_aligned")
        ds = generate_dataset(cfg, sig, stream(9, "d"))
        assert sorted(np.concatenate([ds.clean_idx, ds.noisy_idx])) == list(range(50))
        assert set(ds.clean_idx) & set(ds.noisy_idx) == set()
        np.testing.assert_array_equal(
            ds.noisy_idx, np.nonzero(ds.y_train != ds.y_true)[0])

    def test_eta_zero_no_flips(self):
        cfg = small_config(eta=0.0)
        sig = make_signals(cfg.d, cfg.mu_norm, "axis_aligned")
        ds = generate_dataset(cfg, sig, stream(2, "d"))
        assert len(ds.noisy_idx) == 0

    def test_determinism(self):
        cfg = small_config()
        sig = make_signals(cfg.d, cfg.mu_norm, "random_orthogonal", stream(4, "s"))
        a = generate_dataset(cfg, sig, stream(4, "d"))
        b = generate_dataset(cfg, sig, stream(4, "d"))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y_train, b.y_train)

    def test_flip_rate_binomial(self):
        # oracle: Bin(10^4, 0.2)/n lies in [0.18, 0.22] with prob >= 0.99,
        # so a fixed-seed draw falling inside is the expected outcome
        n, eta = 10_000, 0.2
        mass = stats.binom.cdf(0.22 * n, n, eta) - stats.binom.cdf(0.18 * n - 1, n, eta)
        assert mass >= 0.99
        cfg = DataConfig(n=n, T=3, d=2, mu_norm=1.0, sigma_eps=1.0, eta=eta,
                         rho=0.5, n_weak_same=1)
        sig = make_signals(2, 1.0, "axis_aligned")
        ds = generate_dataset(cfg, sig, stream(123, "d"))
        assert 0.18 <= len(ds.noisy_idx) / n <= 0.22


class TestSnr:
    def test_fig3c_value(self):
        cfg = DataConfig(n=20, T=8, d=1000, mu_norm=100.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        assert snr(cfg) == pytest.approx(100.0 / math.sqrt(1000.0), rel=1e-12)
        assert 20 * snr(cfg) ** 2 == pytest.approx(200.0, rel=1e-12)

    def test_fig3a_value(self):
        cfg = DataConfig(n=20, T=8, d=5000, mu_norm=5.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        assert snr(cfg) ** 2 == pytest.approx(0.005, rel=1e-12)

    def test_identity_case(self):
        cfg = small_config(mu_norm=math.sqrt(32.0), sigma_eps=1.0, d=32)
        assert snr(cfg) == pytest.approx(1.0, rel=1e-12)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            snr(small_config(sigma_eps=0.0))

    @pytest.mark.parametrize("delta", [0.0, 1.0, 16 * 6, 5000.0, math.nan])
    def test_a8_sigma_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            a8_sigma(small_config(), delta)
