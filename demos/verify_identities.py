#!/usr/bin/env python3
"""Exactness checks on a random small instance.

1. Closed-form gradients against central finite differences.
2. One-step update identities: the change of every bilinear attention
   quantity (lambda_k, rho_{j,u}, ||p||^2, norms and inner products through
   W) equals its interaction-term expression plus the exact alpha^2 term.
3. The softmax rewrite s_1 (1 - s_1) in terms of attention gaps, and the
   cosh bracket with the measured gap-ratio constant.
"""
import numpy as np

from attnsim.data import DataConfig, generate_dataset, make_signals
from attnsim.model import ModelState, softmax
from attnsim.rng import stream
from attnsim.theory import rel_err, softmax_bound_check, verify_update_identity
from attnsim.train import attention_gaps, finite_diff_grad, grad_p, grad_w

rng = stream(7, "demo-identities")
cfg = DataConfig(n=4, T=3, d=8, mu_norm=2.0, sigma_eps=1.0, eta=0.25, rho=0.3)
sig = make_signals(8, 2.0, rng)
ds = generate_dataset(cfg, sig, rng)
state = ModelState(W=rng.normal(0, 0.5, (8, 8)), p=rng.normal(0, 0.5, 8),
                   nu=rng.normal(0, 0.5, 8))

print("1. gradient oracle (central differences, h = 1e-5)")
fd_w, fd_p = finite_diff_grad(ds, state, h=1e-5)
err_w = float(np.max(rel_err(grad_w(ds, state), fd_w, 3e-5)))
err_p = float(np.max(rel_err(grad_p(ds, state), fd_p, 3e-5)))
print(f"   max relative error: W {err_w:.2e}, p {err_p:.2e}")

print("2. one-step update identities at alpha = 0.05")
report = verify_update_identity(state, ds, alpha=0.05)
for check in report.checks:
    mark = "ok " if check.passed else "BAD"
    print(f"   {mark} {check.name:28s} rel err {check.measured['max_rel_err']:.2e}")

print("3. softmax gap identity and cosh bracket")
scores = (ds.X.reshape(-1, ds.d) @ (state.W.T @ state.p)).reshape(ds.n, ds.T)
Lambda, _ = attention_gaps(scores)
rep = softmax_bound_check(softmax(scores), Lambda)
for check in rep.checks:
    mark = "ok " if check.passed else "BAD"
    print(f"   {mark} {check.name:28s} {check.measured}")
