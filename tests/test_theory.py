import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from attnsim.data import DataConfig, generate_dataset, make_signals
from attnsim.experiments import (ModelParams, _build_train_inputs,
                                 _random_instance, default_config,
                                 run_check_suites)
from attnsim.model import ModelState, loss_derivative, make_head, softmax
from attnsim.rng import stream
from attnsim.theory import (NORM_W_EPS_HOLD_RATE, SOFTMAX_IDENTITY_TOL,
                            UPDATE_IDENTITY_TOL, Regime,
                            _tracked_rows, _update_changes, classify_regime,
                            g, g_linearity, good_run_check, init_checks,
                            loss_derivative_balance, measure_grokking,
                            noisy_stage_windows, rel_err, softmax_bound_check, softmax_bound_scan,
                            verify_update_identity)
from attnsim.train import (TrainConfig, TrainTrace, _score_dense,
                           attention_gaps, train)
from oracles import dense_attention, exact_update_changes, gd_step


def make_instance(seed=0, n=4, T=3, d=8, sigma=0.5, eta=0.25):
    cfg = DataConfig(n=n, T=T, d=d, mu_norm=2.0, sigma_eps=1.0, eta=eta,
                     rho=0.3, n_weak_same=1)
    rng = stream(seed, "theory-inst")
    sig = make_signals(d, cfg.mu_norm, rng)
    ds = generate_dataset(cfg, sig, rng)
    W = rng.normal(0.0, sigma, size=(d, d))
    p = rng.normal(0.0, sigma, size=d)
    nu = rng.normal(0.0, sigma, size=d)
    return ds, sig, ModelState(W=W, p=p, nu=nu)


class TestG:
    def test_fixed_points(self):
        for T in (2, 8, 16):
            assert g(math.log(T), T) == pytest.approx(2 * math.log(T), rel=1e-12)
            assert g(0.0, T) == pytest.approx(1.0 / T - T, rel=1e-12)

    def test_strict_monotonicity_grid(self):
        x = np.linspace(-6.0, 6.0, 1000)
        assert np.all(np.diff(g(x, 8)) > 0)

    @given(st.floats(min_value=-20, max_value=20),
           st.floats(min_value=1e-6, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_increasing_pairs(self, x, dx):
        assert g(x + dx, 8) > g(x, 8)


class TestDiagnostics:
    def test_zero_state_all_zero(self):
        ds, sig, state = make_instance()
        state.W = np.zeros((8, 8))
        u, r = dense_attention(state, ds, sig)
        assert not r.any() and not attention_gaps(u)[0].any()

    def test_gamma_lambda_antisymmetry_exact(self):
        for seed in range(5):
            ds, sig, state = make_instance(seed=seed)
            Lambda, Gamma = attention_gaps(dense_attention(state, ds, sig)[0])
            np.testing.assert_array_equal(Gamma[:, 0], -Lambda[:, 0])

    def test_role_decomposition_identity(self):
        # Lambda splits into class-signal attention plus noise attention
        # according to each token's role, fixed by its row: 0 relevant,
        # 1 confusing, 2 .. 1 + n_weak_same weak-same, the rest irrelevant
        ds, sig, state = make_instance(seed=2, n=6, T=5)
        weak_same = range(2, 2 + ds.config.n_weak_same)
        rho = ds.config.rho
        u, r = dense_attention(state, ds, sig)
        Lambda, _ = attention_gaps(u)
        lam, rho_attn = {1: r[0], -1: r[1]}, r[2:].reshape(ds.n, ds.T)
        for i in range(ds.n):
            own = lam[int(ds.y_true[i])]
            opp = lam[-int(ds.y_true[i])]
            for col, t in enumerate(range(1, ds.T)):
                base = rho_attn[i, 0] - rho_attn[i, t]
                if t == 1:
                    expected = own - rho * opp + base
                elif t in weak_same:
                    expected = (1 - rho) * own + base
                else:
                    expected = own + base
                assert Lambda[i, col] == pytest.approx(expected, abs=1e-10)

    def test_interactions_match_defining_sums(self):
        # the right-hand sides of _update_changes against the interaction
        # terms summed token by token: with omega_it = s_t (gamma_t - f_i)
        # and a_i = -l'(y_i f_i) y_i / n, gbar = -sum_it a_i omega_it x_it
        # and s(v) = sum_it a_i omega_it <x_it, v> for a tracked row v
        ds, sig, state = make_instance(seed=3)
        alpha = 0.05
        _, (r, G, pp) = _update_changes(state, ds, sig, alpha)
        W, p = state.W, state.p
        s_all = softmax(ds.X @ (W.T @ p))
        gam = ds.X @ state.nu
        terms = []                              # (a_i omega_it, x_it)
        for i in range(ds.n):
            s, gm, y = s_all[i], gam[i], ds.y_train[i]
            f = s @ gm
            a = -loss_derivative(y * f) * y / ds.n
            terms += [(a * s[t] * (gm[t] - f), ds.X[i, t])
                      for t in range(ds.T)]
        gbar = -sum(w * x for w, x in terms)
        A = [sig.mu_plus, sig.mu_minus, *ds.noise.reshape(ds.n * ds.T, ds.d)]

        def s_of(v):
            return sum(w * (x @ v) for w, x in terms)

        def ws_of(v):                           # sum a_i omega_it <W x, W v>
            return sum(w * ((W @ x) @ (W @ v)) for w, x in terms)

        # rows mu_+, mu_- and the noise vector (j, u) = (1, 1)
        rows = (0, 1, 2 + ds.T + 1)
        for k in rows:
            v = A[k]
            assert r[k] == pytest.approx(
                alpha * (ws_of(v) + (p @ p) * s_of(v))
                + alpha ** 2 * (p @ (W @ gbar)) * (v @ gbar), rel=1e-10)
        for k in rows:
            for m in rows:
                assert G[k, m] == pytest.approx(
                    alpha * ((W @ A[k]) @ p * s_of(A[m])
                             + s_of(A[k]) * (W @ A[m]) @ p)
                    + alpha ** 2 * (p @ p) * (A[k] @ gbar) * (A[m] @ gbar),
                    rel=1e-10)
        assert pp == pytest.approx(
            2 * alpha * sum(w * ((W @ x) @ p) for w, x in terms)
            + alpha ** 2 * (W @ gbar) @ (W @ gbar), rel=1e-10)


class TestUpdateIdentities:
    def test_random_instances(self):
        for seed in range(10):
            ds, sig, state = make_instance(seed=seed)
            rep = verify_update_identity(state, ds, sig, alpha=0.05)
            worst = max(c.measured["max_rel_err"] for c in rep.checks)
            assert rep.passed_all, f"seed {seed}: worst rel err {worst}"

    def test_row_names_in_order(self):
        # `check` and the stored benchmark references key on these names
        ds, sig, state = make_instance(seed=0)
        rep = verify_update_identity(state, ds, sig, alpha=0.05)
        assert [c.name for c in rep.checks] == [
            "update_lambda_plus", "update_lambda_minus", "update_rho",
            "update_p_norm", "update_w_norm_mu_+", "update_w_norm_mu_-",
            "update_w_norm_eps", "update_w_cross_mu",
            "update_w_cross_mu_+_eps", "update_w_cross_mu_-_eps",
            "update_w_cross_eps_pairs"]

    @pytest.mark.parametrize("seed", [10, 22])
    def test_rhs_matches_exact_lhs(self, seed):
        # the identities suite's instances at the two config seeds where
        # the check fails: the stacked right-hand sides meet the bound
        # against the exact change of the unrounded step, so the failures
        # come from rounding in the float left-hand side
        rng = stream(seed, "check-identities")
        for _ in range(3):
            ds, sig, state = _random_instance(rng)
            exact = exact_update_changes(state.W, state.p,
                                         _score_dense(ds, state)[2],
                                         _tracked_rows(ds, sig), 0.05)
            _, rhs = _update_changes(state, ds, sig, 0.05)
            for want, got in zip(exact, rhs):
                assert np.max(rel_err(want, got)) <= UPDATE_IDENTITY_TOL

    def test_alpha_zero_trivial(self):
        ds, sig, state = make_instance(seed=1)
        rep = verify_update_identity(state, ds, sig, alpha=0.0)
        assert rep.passed_all

    def test_zero_head_trivial(self):
        ds, sig, state = make_instance(seed=2)
        state.nu = np.zeros(8)
        rep = verify_update_identity(state, ds, sig, alpha=0.1)
        assert rep.passed_all


class TestTokenScore:
    def test_noise_free_exact(self):
        # at sigma_eps = 0 each token score carries its role's sign against
        # the true label: relevant and weak-same agree, confusing opposes,
        # irrelevant tokens score zero
        cfg = DataConfig(n=12, T=5, d=16, mu_norm=4.0, sigma_eps=0.0, eta=0.3,
                         rho=0.2)
        sig = make_signals(16, 4.0, stream(0, "s"))
        ds = generate_dataset(cfg, sig, stream(0, "d"))
        gamma = ds.X @ make_head(sig)
        # rows 0 relevant, 1 confusing, 2 .. 1 + n_weak_same weak-same, the
        # rest irrelevant
        n_same = cfg.n_weak_same
        signs = [1, -1] + [1] * n_same + [0] * (cfg.T - 2 - n_same)
        for t, sign in enumerate(signs):
            np.testing.assert_array_equal(np.sign(gamma[:, t]),
                                          sign * ds.y_true)

    def test_benign_scale_margins(self):
        # frozen-seed check of Y*gamma_1 concentration around the clean
        # relevant-token score ||nu|| ||mu|| / sqrt(2)
        cfg = DataConfig(n=20, T=8, d=2000, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        sig = make_signals(2000, 20.0, stream(5, "s"))
        ds = generate_dataset(cfg, sig, stream(5, "d"))
        nu = make_head(sig)
        clean = ds.clean_idx
        target = np.linalg.norm(nu) * 20.0 / math.sqrt(2.0)
        scores = ds.y_train[clean] * (ds.X[clean, 0, :] @ nu)
        frac = np.mean(np.abs(scores / target - 1.0) <= 0.2)
        assert frac >= 0.95

    def test_flipped_sample_sign(self):
        cfg = DataConfig(n=40, T=5, d=64, mu_norm=8.0, sigma_eps=0.5, eta=0.4,
                         rho=0.2)
        sig = make_signals(64, 8.0, stream(7, "s"))
        ds = generate_dataset(cfg, sig, stream(7, "d"))
        nu = make_head(sig)
        gam1 = ds.X[:, 0, :] @ nu
        assert np.all(ds.y_train[ds.noisy_idx] * gam1[ds.noisy_idx] < 0)


class TestSoftmaxBounds:
    def test_uniform_case(self):
        T = 8
        probs = np.full((1, T), 1.0 / T)
        Lam = np.zeros((1, T - 1))
        rep = softmax_bound_check(probs, Lam)
        assert rep.passed_all
        lhs = probs[0, 0] * probs[0, 1:].sum()
        assert lhs == pytest.approx((1 / T) * (1 - 1 / T), rel=1e-12)
        bound = 1.0 / (2 + 2 * math.cosh(-math.log(T)))
        c = T / (T - 1)
        assert bound / c <= lhs <= c * bound

    def test_best_token_inequality_arithmetic(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        sq = probs * (1 - probs)
        assert sq[0, 1] == pytest.approx(0.16, rel=1e-12)
        assert sq[0, 0] == pytest.approx(0.21, rel=1e-12)
        assert sq[0, 1] <= sq[0, 0]

    def test_random_states(self):
        for seed in range(8):
            ds, sig, state = make_instance(seed=seed, n=6, T=5)
            u = dense_attention(state, ds, sig)[0]
            rep = softmax_bound_check(softmax(u), attention_gaps(u)[0])
            assert rep.passed_all, f"seed {seed}"

    def test_identity_precision(self):
        ds, sig, state = make_instance(seed=3, n=6, T=5)
        u = dense_attention(state, ds, sig)[0]
        rep = softmax_bound_check(softmax(u), attention_gaps(u)[0])
        assert rep.checks[0].measured["max_rel_err"] <= 1e-12

    def test_live_row_past_overflow_is_bracketed(self):
        # gap range 300: c = c'^3 T/(T-1) = e^900 T/(T-1) exceeds float
        # range, so c and the bracket are formed in log space.  A softmax
        # row that gives token 1 no mass must fail the lower bound, and the
        # consistent row must pass.
        u = np.array([[0.0, 0.0, -150.0, -300.0]])
        Lam = u[:, :1] - u[:, 1:]
        with np.errstate(all="raise"):
            good = softmax_bound_check(softmax(u), Lam)
            bad = softmax_bound_check(np.array([[0.0, 0.5, 0.3, 0.2]]), Lam)
        assert good["softmax_bracket"].passed
        assert good["softmax_bracket"].measured["skipped_saturated_rows"] == 0
        assert not bad["softmax_bracket"].passed
        assert bad["softmax_bracket"].measured["skipped_saturated_rows"] == 0

    @staticmethod
    def scan_per_step(trace):
        """The scan as one check per logged step, aggregated afterwards."""
        worst_id, bracket_all, d2_all, skipped = 0.0, True, True, 0
        for k in range(trace.n_logged):
            rep = softmax_bound_check(trace.probs[k], trace.Lambda[k])
            worst_id = max(worst_id, rep.checks[0].measured["max_rel_err"])
            bracket_all &= rep.checks[1].passed
            skipped += rep.checks[1].measured["skipped_saturated_rows"]
            d2_all &= rep.checks[2].passed
        return [
            {"name": "softmax_identity_full_trace",
             "pass": worst_id <= SOFTMAX_IDENTITY_TOL,
             "measured": {"max_rel_err": worst_id},
             "threshold": SOFTMAX_IDENTITY_TOL, "note": ""},
            {"name": "softmax_bracket_full_trace", "pass": bracket_all,
             "measured": {"skipped_saturated_rows": skipped},
             "threshold": None, "note": ""},
            {"name": "softmax_best_token_full_trace", "pass": d2_all,
             "measured": {}, "threshold": None, "note": ""},
        ]

    def test_scan_matches_per_step_loop(self):
        # planted scores with two saturated rows (|Lambda| > 500), once
        # consistent and once with one step's softmax row replaced by a row
        # off the simplex that gives token 1 no mass and whose best token
        # does not dominate, so that all three checks fail there.  The
        # saturated rows pass the best-token check (their top probability
        # rounds to 1) and are skipped by the bracket without overflow.
        L, n, T = 6, 5, 4
        u = stream(0, "scan").normal(0.0, 2.0, (L, n, T))
        u[2, 1, 0] += 600.0
        u[4, 3, 2] += 700.0
        probs = softmax(u)
        broken = probs.copy()
        broken[3, 0] = [0.0, 0.5, 0.3, 0.0]
        passed = []
        for p in (probs, broken):
            tr = planted_trace(np.arange(L), p, scores=u)
            with np.errstate(all="raise"):
                got = [{k: v for k, v in row.items()
                        if k not in ("config_hash", "seed")}
                       for row in softmax_bound_scan(tr).to_json()]
                ref = self.scan_per_step(tr)
            assert got == ref
            assert ref[1]["measured"]["skipped_saturated_rows"] == 2
            passed.append([row["pass"] for row in ref])
        assert passed == [[True, True, True], [False, False, False]]


class TestGoodRun:
    def run_check(self, seed=0, d=2000, sigma_eps=1.0, sigma=0.02):
        # the +-10% norm band needs d large enough that sqrt-d concentration
        # bites
        cfg = DataConfig(n=10, T=4, d=d, mu_norm=5.0, sigma_eps=sigma_eps,
                         eta=0.2, rho=0.2)
        rng = stream(seed, "gr")
        sig = make_signals(d, 5.0, rng)
        ds = generate_dataset(cfg, sig, rng)
        W = rng.normal(0.0, sigma, size=(d, d))
        p = rng.normal(0.0, sigma, size=d)
        state = ModelState(W=W, p=p, nu=make_head(sig))
        return good_run_check(ds, state, sig, sigma_w=sigma, sigma_p=sigma)

    def test_typical_draw_holds(self):
        rep = self.run_check()
        assert rep.passed_all, rep.failing

    def test_sigma_zero_vacuous(self):
        rep = self.run_check(sigma_eps=0.0)
        assert rep["good_run_norm_eps"].measured["vacuous"]
        assert rep["good_run_inner_eps_eps"].measured["vacuous"]
        assert rep.passed_all

    def test_norm_event_frequency(self):
        # 50 fresh draws at d = 2000: the +-10% band essentially always holds
        cfg = DataConfig(n=8, T=4, d=2000, mu_norm=5.0, sigma_eps=1.0,
                         eta=0.2, rho=0.2)
        sig = make_signals(2000, 5.0, stream(1, "s"))
        hold = 0
        for k in range(50):
            ds = generate_dataset(cfg, sig, stream(k, "grm"))
            rep = good_run_check(ds, None, sig)
            hold += (rep["good_run_norm_eps"].passed
                     and rep["good_run_inner_eps_eps"].passed)
        assert hold >= 49

    # The hold rate of good_run_norm_W_eps that its note states,
    # theory.NORM_W_EPS_HOLD_RATE, measured over config seeds 10000-14999:
    # 3205 of 5000 held.  At d = 800 the worst of the n T = 96 row norms of
    # E W(0)^T leaves the +-10% band at about a third of the seeds, so a
    # failing row is the event, not a defect.
    def test_norm_w_eps_note_states_hold_rate(self):
        report = run_check_suites(default_config(), ["goodrun"])
        assert "0.641 of config seeds" in report["good_run_norm_W_eps"].note
        assert all(c.note == "" for c in report.checks
                   if c.name != "good_run_norm_W_eps")

    @pytest.mark.slow
    def test_norm_w_eps_hold_rate(self):
        seeds = 300
        held = sum(run_check_suites(replace(default_config(), seed=s),
                                    ["goodrun"])["good_run_norm_W_eps"].passed
                   for s in range(seeds))
        rate = NORM_W_EPS_HOLD_RATE
        assert rate == 0.641
        se = math.sqrt(rate * (1.0 - rate) / seeds)
        assert abs(held / seeds - rate) <= 4.0 * se, held


def planted_trace(steps, probs, test_acc=None, scores=None,
                  train_acc=None, outputs=None, y_train=None,
                  noisy=()):
    L = len(steps)
    n, T = probs.shape[1], probs.shape[2]
    idx = np.arange(n)
    noisy = np.asarray(noisy, dtype=int)
    clean = np.setdiff1d(idx, noisy)
    z = np.zeros(L)
    return TrainTrace(
        steps=np.asarray(steps), train_loss=z.copy(),
        train_acc=np.asarray(train_acc) if train_acc is not None else z.copy(),
        train_acc_true=z.copy(),
        test_acc=np.asarray(test_acc) if test_acc is not None else z.copy(),
        test_loss=z.copy(),
        outputs=outputs if outputs is not None else np.zeros((L, n)),
        probs=probs,
        lambda_plus=z.copy(), lambda_minus=z.copy(),
        scores=scores if scores is not None else np.zeros((L, n, T)),
        y_train=y_train if y_train is not None else np.ones(n, dtype=int),
        y_true=np.ones(n, dtype=int),
        clean_idx=clean, noisy_idx=noisy,
    )


class TestGLinearity:
    def g_inverse(self, y, T):
        return optimize.brentq(lambda x: g(x, T) - y, -60.0, 60.0)

    def test_planted_line_r2_one(self):
        # plant Lambda so that g(Lambda) is exactly linear in the step index
        T, L, n = 4, 30, 2
        steps = np.arange(0, 10 * L, 10)
        Lam = np.zeros((L, n, T - 1))
        for k, s in enumerate(steps):
            val = self.g_inverse(-3.0 + 0.05 * s, T)
            Lam[k, :, :] = val
        # scores [0 | -Lambda] give back Lambda exactly
        tr = planted_trace(steps, np.full((L, n, T), 1.0 / T),
                           scores=np.concatenate([np.zeros((L, n, 1)), -Lam],
                                                 axis=-1))
        fit = g_linearity(tr, [0, 1], "Lambda", (0, int(steps[-1])))
        assert fit.pooled.r2 == pytest.approx(1.0, abs=1e-9)
        assert fit.pooled.slope == pytest.approx(0.05, rel=1e-6)

    def test_constant_series_degenerate(self):
        T, L = 4, 12
        steps = np.arange(L)
        tr = planted_trace(steps, np.full((L, 3, T), 1.0 / T))
        fit = g_linearity(tr, [0, 1, 2], "Lambda", (0, L - 1))
        assert fit.pooled.degenerate
        assert fit.pooled.slope == 0.0
        assert math.isnan(fit.pooled.r2)

    def test_too_few_points(self):
        T, L = 4, 5
        tr = planted_trace(np.arange(L), np.full((L, 2, T), 1.0 / T))
        with pytest.raises(ValueError):
            g_linearity(tr, [0], "Lambda", (100, 200))


class TestGrokking:
    def test_never_fits(self):
        L, n, T = 10, 4, 3
        tr = planted_trace(np.arange(L), np.full((L, n, T), 1 / T),
                           train_acc=np.full(L, 0.5),
                           test_acc=np.full(L, 0.5))
        times = measure_grokking(tr)
        assert times.tau_fit is None and times.tau_gen is None

    def test_planted_crossings(self):
        steps = np.arange(0, 1000, 100)
        train = np.where(steps >= 100, 1.0, 0.6)
        test = np.where(steps >= 500, 0.99, 0.5)
        tr = planted_trace(steps, np.full((10, 2, 3), 1 / 3.0),
                           train_acc=train, test_acc=test)
        times = measure_grokking(tr)
        assert times.tau_fit == 100 and times.tau_gen == 500


class TestNoisyStageWindows:
    # s_1 of every noisy sample: mean peak at index 2, below
    # NOISY_S1_FLOOR from index 5
    S1 = [0.30, 0.40, 0.45, 0.20, 0.05, 0.01, 0.005, 0.001, 0.001, 0.001]
    # s_2 that crosses NOISY_S2_TAKEOVER at index 4 and saturates at 6
    TAKES_OVER = [0.3, 0.3, 0.3, 0.4, 0.6, 0.9, 0.995, 0.998, 0.998, 0.998]
    STEPS = np.arange(0, 100, 10)

    def trace(self, s2_rows, n_clean=2):
        """A trace whose noisy samples follow S1 and the given s_2 rows,
        after ``n_clean`` clean samples at the uniform softmax."""
        L, T = len(self.STEPS), 3
        probs = np.full((L, n_clean + len(s2_rows), T), 1.0 / T)
        for j, s2 in enumerate(s2_rows, start=n_clean):
            probs[:, j, 0] = self.S1
            probs[:, j, 1] = s2
            probs[:, j, 2] = 1.0 - probs[:, j, 0] - probs[:, j, 1]
        return planted_trace(self.STEPS, probs, noisy=range(
            n_clean, n_clean + len(s2_rows)))

    def test_sample_that_never_crosses_is_left_out(self):
        # the sample held at s_2 = 0.3 neither starts stage 2 nor holds
        # back its saturation
        early, late = noisy_stage_windows(
            self.trace([self.TAKES_OVER, [0.3] * 10]))
        assert early == (20, 50)
        assert late == (40, 60)

    def test_saturation_never_reached(self):
        # stage 2 starts at the last crossing (index 5) and, with one
        # crossing sample capped at s_2 = 0.9, runs to the last log point
        capped = [0.3, 0.3, 0.3, 0.3, 0.4, 0.6, 0.8, 0.9, 0.9, 0.9]
        early, late = noisy_stage_windows(
            self.trace([self.TAKES_OVER, capped]))
        assert early == (20, 50)
        assert late == (50, 90)

    def test_single_noisy_sample(self):
        early, late = noisy_stage_windows(
            self.trace([self.TAKES_OVER], n_clean=1))
        assert early == (20, 50)
        assert late == (40, 60)


class TestClassifyRegime:
    def cfg(self, d, mu):
        return DataConfig(n=20, T=8, d=d, mu_norm=mu, sigma_eps=1.0, eta=0.2,
                          rho=0.1)

    def test_fig3_extremes(self):
        assert classify_regime(self.cfg(1000, 100.0)) == Regime.NOT_OVERFITTING
        assert classify_regime(self.cfg(5000, 5.0)) == Regime.HARMFUL

    def test_threshold_sensitivity(self):
        # the benign point has n SNR^2 = 4 at n=20, beyond THETA_BENIGN;
        # at n=4 it is 0.8, below it
        mid = self.cfg(2000, 20.0)
        assert classify_regime(mid) == Regime.NOT_OVERFITTING
        assert classify_regime(replace(mid, n=4)) == Regime.BENIGN

    def test_scale_invariance(self):
        for d, mu in ((1000, 100.0), (2000, 20.0), (5000, 5.0)):
            base = self.cfg(d, mu)
            for c in (0.5, 3.0, 10.0):
                scaled = replace(base, mu_norm=c * mu, sigma_eps=c)
                assert classify_regime(scaled) == classify_regime(base)


class TestInitChecks:
    def test_overflowing_drift_fails_unwarned(self):
        # a huge W(0) against a tiny p(0) keeps the scores near uniform, but
        # W1^T p1 of the first step overflows: the drift is NaN and fails,
        # and nothing warns (a RuntimeWarning is an error under pytest)
        config = replace(default_config(),
                         model=ModelParams(sigma_w=1e155, sigma_p=1e-160))
        sig, ds, _, state = _build_train_inputs(config)
        rep = init_checks(state, ds, sig, config.train.alpha)
        assert rep.failing == ["init_first_step_drift"]
        assert math.isnan(rep["init_first_step_drift"].measured["max_drho"])

    def test_degenerate_zero_init(self):
        ds, sig, state = make_instance(seed=0)
        state.W = np.zeros((8, 8))
        state.p = np.zeros(8)
        rep = init_checks(state, ds, sig, alpha=1e-3)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["init_softmax_uniformity"].measured[
            "max_scaled_deviation"] == 0.0
        assert by_name["init_lambda_gap"].measured["max_abs"] == 0.0
        assert rep.passed_all

    def test_a8_scaled_init_uniform(self):
        from attnsim.data import a8_sigma
        cfg = DataConfig(n=20, T=8, d=2000, mu_norm=20.0, sigma_eps=1.0,
                         eta=0.2, rho=0.1)
        s = a8_sigma(cfg)
        rng = stream(3, "ic")
        sig = make_signals(2000, 20.0, rng)
        ds = generate_dataset(cfg, sig, rng)
        W = rng.normal(0.0, s, size=(2000, 2000))
        p = rng.normal(0.0, s, size=2000)
        state = ModelState(W=W, p=p, nu=make_head(sig))
        rep = init_checks(state, ds, sig, alpha=5e-3)
        assert rep.passed_all

    @pytest.mark.parametrize("seed", range(6))
    def test_drift_matches_dense_step(self, seed):
        # the drift read from Delta r against the attention of W(0) and of
        # the dense step's W(1), on the init suite's inputs
        config = replace(default_config(), seed=seed)
        sig, ds, _, state = _build_train_inputs(config)
        alpha = config.train.alpha
        got = init_checks(state, ds, sig, alpha)[
            "init_first_step_drift"].measured
        dr = (dense_attention(gd_step(state, ds, alpha), ds, sig)[1]
              - dense_attention(state, ds, sig)[1])
        dlam, drho = np.max(np.abs(dr[:2])), np.max(np.abs(dr[2:]))
        assert rel_err(got["max_dlambda"], dlam) <= 1e-12
        assert rel_err(got["max_drho"], drho) <= 1e-12


class TestSignalGrowth:
    def short_run(self, d, mu, steps, seed=0, sigma=None):
        from attnsim.data import a8_sigma
        from attnsim.model import init_params
        cfg = DataConfig(n=16, T=6, d=d, mu_norm=mu, sigma_eps=1.0, eta=0.2,
                         rho=0.1)
        s = sigma if sigma is not None else 3.0 * a8_sigma(cfg)
        rng = stream(seed, "sg")
        sig = make_signals(d, mu, rng)
        ds = generate_dataset(cfg, sig, rng)
        W, p = init_params(d, s, s, rng)
        state = ModelState(W=W, p=p, nu=make_head(sig))
        res = train(state, ds, sig, TrainConfig(alpha=5e-3, steps=steps,
                                                log_every=10, test_size=0))
        return res.trace

    def test_zero_head_constant(self):
        from attnsim.train import TrainConfig as TC
        cfg = DataConfig(n=8, T=4, d=64, mu_norm=4.0, sigma_eps=1.0, eta=0.25,
                         rho=0.2)
        rng = stream(1, "sg0")
        sig = make_signals(64, 4.0, rng)
        ds = generate_dataset(cfg, sig, rng)
        state = ModelState(W=rng.normal(0, 0.1, (64, 64)),
                           p=rng.normal(0, 0.1, 64), nu=np.zeros(64))
        res = train(state, ds, sig, TC(alpha=5e-3, steps=50, log_every=10,
                                       test_size=0))
        assert np.ptp(res.trace.lambda_plus) == 0.0
        assert np.ptp(res.trace.lambda_minus) == 0.0

    def test_strong_signal_growth(self):
        # the dominant-class attention always ends in the top half of its
        # observed range
        for seed in (0, 1, 2):
            tr = self.short_run(d=1000, mu=100.0, steps=600, seed=seed)
            lam = tr.lambda_plus
            assert lam[-1] >= lam[0] + 0.5 * np.ptp(lam)


class TestLossDerivativeBalance:
    def test_short_run_bound(self):
        cfg = DataConfig(n=8, T=4, d=32, mu_norm=4.0, sigma_eps=1.0, eta=0.25,
                         rho=0.2)
        rng = stream(4, "bal")
        sig = make_signals(32, 4.0, rng)
        ds = generate_dataset(cfg, sig, rng)
        from attnsim.model import init_params
        W, p = init_params(32, 0.05, 0.05, rng)
        state = ModelState(W=W, p=p, nu=make_head(sig))
        res = train(state, ds, sig, TrainConfig(alpha=0.05, steps=100,
                                                log_every=10, test_size=0))
        check = loss_derivative_balance(res.trace)
        assert check.passed
        assert check.measured["max_log_ratio"] <= check.threshold + 1e-12

    def test_outputs_past_exp_overflow(self):
        # e^800 overflows and l'(800) underflows to zero; in log space the
        # ratio of a row holding f = 800 and f = -800 is the bound itself
        trace = SimpleNamespace(y_train=np.array([1.0, 1.0, -1.0]),
                                outputs=np.array([[800.0, -800.0, 3.0],
                                                  [1.0, 0.0, -2.0]]))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            check = loss_derivative_balance(trace)
        assert check.passed
        assert check.threshold == 800.0
        assert check.measured["max_log_ratio"] == pytest.approx(800.0,
                                                                rel=1e-15)
