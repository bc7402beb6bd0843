"""Named, counter-based random streams.

Every stochastic quantity in the library (signal directions, token noise,
label flips, weight initialization, test draws) pulls from its own Philox
stream keyed by ``(base_seed, *tags)``.  Streams with different tags are
mutually independent, and any one of them can be regenerated in isolation.
"""
from __future__ import annotations

import numpy as np


def _tag_entropy(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if isinstance(tag, str):
        # stable across platforms and sessions, unlike hash()
        return int.from_bytes(tag.encode("utf-8"), "little")
    raise TypeError(f"stream tag must be int or str, got {type(tag).__name__}")


def stream(base_seed: int, *tags) -> np.random.Generator:
    """Independent Philox generator for the key ``(base_seed, *tags)``."""
    entropy = [int(base_seed)] + [_tag_entropy(t) for t in tags]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def normal_fill(rng: np.random.Generator, out: np.ndarray,
                sigma: float) -> np.ndarray:
    """Fill ``out`` with N(0, sigma^2) draws in place and return it.

    ``rng.normal(0.0, sigma, out.shape)`` computes 0 + sigma z from one
    standard normal z per element; the same three operations here give
    its bits and leave ``rng`` at the same point, without a temporary.
    An overflow to inf is not reported, as it is not by ``rng.normal``."""
    rng.standard_normal(out=out)
    with np.errstate(over="ignore"):
        np.multiply(out, sigma, out=out)
    np.add(out, 0.0, out=out)
    return out


def cell_seed(base_seed: int, *indices: int) -> int:
    """Deterministic per-cell seed for grid sweeps.

    Thread-count invariant: the seed depends only on the cell's indices,
    never on scheduling order.
    """
    ss = np.random.SeedSequence([int(base_seed)] + [int(i) for i in indices])
    return int(ss.generate_state(1, np.uint64)[0])
