"""Deterministic sampling primitives used by every module that draws randomly.

The generator is the stock Mersenne Twister (`random.Random`) and selection is
a partial Fisher-Yates shuffle, so a (seed, n, size) triple always maps to the
same index sequence.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def derive_seed(seed: int, key: str) -> int:
    """Derive a per-item seed from a run seed and a stable string key."""
    digest = hashlib.sha256(f"{seed}\x1f{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def draw(rng: random.Random, pool: Sequence[T], k: int) -> list[T]:
    """`k` distinct items of `pool` in sampled order, consuming `rng`'s state.

    Partial Fisher-Yates: position i swaps with a uniform j in [i, len(pool)).
    """
    items = list(pool)
    for i in range(k):
        j = rng.randrange(i, len(items))
        items[i], items[j] = items[j], items[i]
    return items[:k]


def sample_indices(n: int, size: int, seed: int) -> list[int]:
    """Draw `size` distinct indices from range(n), uniformly, in sampled order."""
    if size < 0:
        raise ValueError(f"sample size must be >= 0, got {size}")
    if size > n:
        raise ValueError(f"cannot sample {size} items from a population of {n}")
    return draw(random.Random(seed), range(n), size)


def shuffle_indices(n: int, seed: int) -> list[int]:
    """Full deterministic permutation of range(n)."""
    return sample_indices(n, n, seed)
