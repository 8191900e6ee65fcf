"""Static feature hashing (the baseline the paper improves upon).

Feature hashing maps ids into a fixed number of buckets with a hash function.
It is memory-bounded but collides: distinct features share embedding rows,
degrading quality, and the bucket count must be chosen upfront.  The paper's
Table V footnote applies exactly this to run Mult-VAE at KD/QB scale (20-bit
space); we reproduce that configuration for the speed and ablation benches.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

__all__ = ["FeatureHasher"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    """64-bit FNV-1a hash — deterministic across processes (unlike ``hash``)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class FeatureHasher:
    """Hash arbitrary feature ids into ``n_buckets`` fixed buckets.

    Parameters
    ----------
    n_buckets:
        Bucket count; the paper's footnote uses a 20-bit space (2**20).
    seed:
        Salt mixed into the hash so independent hashers decorrelate.
    """

    def __init__(self, n_buckets: int = 1 << 20, seed: int = 0) -> None:
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive: {n_buckets}")
        self.n_buckets = n_buckets
        self.seed = seed
        self._salt = str(seed).encode()

    def bucket(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Vectorised bucketing returning an ``int64`` array."""
        salt = self._salt
        n = self.n_buckets
        return np.fromiter(
            (_fnv1a(repr(k).encode() + salt) % n for k in keys), dtype=np.int64)

    def bucket_ints(self, keys: np.ndarray) -> np.ndarray:
        """Fast path for integer ids: a vectorised multiply-xor-shift hash."""
        keys = np.asarray(keys, dtype=np.uint64)
        h = keys + np.uint64(self.seed * 0x9E3779B97F4A7C15 & _MASK64)
        h ^= h >> np.uint64(33)
        h = (h * np.uint64(0xFF51AFD7ED558CCD)) & np.uint64(_MASK64)
        h ^= h >> np.uint64(33)
        h = (h * np.uint64(0xC4CEB9FE1A85EC53)) & np.uint64(_MASK64)
        h ^= h >> np.uint64(33)
        return (h % np.uint64(self.n_buckets)).astype(np.int64)

    def collision_rate(self, keys: Iterable[Hashable]) -> float:
        """Fraction of distinct keys that lost their own bucket to a collision."""
        keys = list(dict.fromkeys(keys))  # distinct, order preserving
        if not keys:
            return 0.0
        buckets = self.bucket(keys)
        n_distinct_buckets = np.unique(buckets).size
        return 1.0 - n_distinct_buckets / len(keys)
