"""Process-stable feature-id hashing and shard routing.

The sharded parameter server (:mod:`repro.distributed.sharded`) places every
embedding row with ``shard_of_ids(ids, n_shards) = hash(id) % n_shards``.
That hash must be identical in every process of the cluster and on every
run, so it is *splitmix64*: a well-mixed 64-bit finaliser that vectorises
over whole ``int64`` arrays (routing every row of an embedding table in one
shot).  It is a pure function of the id's bits: restarting a process,
changing ``PYTHONHASHSEED``, or moving to another machine never re-routes a
feature.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_hash_ids", "shard_of_ids"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a ``uint64`` array (wraps mod 2^64)."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def stable_hash_ids(ids: np.ndarray) -> np.ndarray:
    """Stable 64-bit hashes of an integer id array (vectorised splitmix64)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"stable_hash_ids needs an integer array, got {ids.dtype}")
    with np.errstate(over="ignore"):
        return _splitmix64(ids.astype(np.int64).view(np.uint64))


def shard_of_ids(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """The shard owning each id of an integer array in an ``n_shards``-way
    deployment."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive: {n_shards}")
    return (stable_hash_ids(ids) % np.uint64(n_shards)).astype(np.int64)
