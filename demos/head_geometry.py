#!/usr/bin/env python3
"""Head-gradient geometry at zero initialization.

With W, p and the per-class heads all initialized to zero, the expected
negative gradient of the cross-entropy in each head nu_k points along the
centered class signal mu_k - mean(mu): the class directions form an
equiangular tight frame.  Label noise shrinks the gradient by
(1 - K eta / (K - 1)) but does not rotate it.
"""
import numpy as np

from attnsim.multiclass import MulticlassConfig, make_class_signals
from attnsim.rng import stream
from attnsim.theory import etf_gradient_check

for K in (2, 3, 5):
    for eta in (0.0, 0.1, 0.4):
        cfg = MulticlassConfig(T=8, d=64, K=K, sigma_eps=0.1, eta=eta,
                               rho=0.1, n_weak=2)
        mus = make_class_signals(64, K, 1.0, rng=stream(K, "demo-etf"))
        cos = etf_gradient_check(cfg, mus, mc_samples=50_000,
                                 rng=stream(K, "demo-etf-mc", int(eta * 10)))
        print(f"K={K} eta={eta:.1f}: cosine(-grad_k, mu_k - mean) = "
              + " ".join(f"{c:.4f}" for c in cos))

print("\nPairwise cosines of the centered signals (ETF structure: "
      "-1/(K-1) off the diagonal):")
K = 5
mus = make_class_signals(64, K, 1.0, rng=stream(K, "demo-etf"))
centered = mus - mus.mean(axis=0)
norm = centered / np.linalg.norm(centered, axis=1, keepdims=True)
gram = norm @ norm.T
print(np.array2string(gram, precision=3, suppress_small=True))
