"""Deterministic 64-bit random number generation.

Every random quantity in the library (fold shuffles, bootstrap draws) comes
from a SplitMix64 stream (Steele, Lea and Flood's mixing constants), so
results are reproducible bit-for-bit across platforms and Python versions.
``SplitMix64(seed)`` names the stream of seed ``seed``.  It is counter-based,
so :func:`draws_below` computes a prefix of it at once in numpy;
``tests/oracles.py`` holds the one-draw-at-a-time generator it is checked
against.  One finalizer, :func:`_finalize`, mixes both the stream's states
and the sub-stream seeds derived with ``mix_seed``; in particular
bootstrap ``i`` of a run is seeded with ``mix_seed(base_seed, i)``, which is
what lets the eager, lazy, and batched algorithms consume identical
bootstrap samples.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # 2**64 / golden ratio
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of ``uint64`` states, wrapping modulo 2**64."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def mix_seed(base_seed: int, index: int) -> int:
    """Seed of sub-stream ``index`` of the stream rooted at ``base_seed``."""
    return int(_finalize(np.uint64((base_seed + (index + 1) * _GAMMA) & _MASK64)))


def draws_below(seed: int, count: int, n: int | np.ndarray) -> np.ndarray:
    """The first ``count`` draws of ``SplitMix64(seed)``, each reduced by a bound.

    ``n`` is one bound for every draw or an array of ``count`` bounds, one
    per draw; each draw is reduced by plain modulo, whose bias of at most
    ``n / 2**64`` is irrelevant at the sample sizes used here.
    Draw ``i`` (from 1) finalizes state ``seed + i * GAMMA``, computed on
    ``uint64`` arrays, where it wraps modulo 2**64.
    """
    bounds = np.asarray(n)
    if (bounds <= 0).any():
        raise ValueError("bound must be positive")
    states = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    states += np.uint64(seed & _MASK64)
    return _finalize(states) % bounds.astype(np.uint64)
