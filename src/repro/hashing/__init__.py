"""Feature-id indexing: dynamic hash tables and static feature hashing.

The paper replaces static feature hashing (collision-prone, fixed size) with
*dynamic hash tables* that map raw feature ids to dense embedding rows and
grow as new ids arrive (§IV-C1).  Both are provided here:

* :class:`DynamicHashTable` — the paper's approach; collision-free, grows
  dynamically, O(1) lookup.
* :class:`FeatureHasher` — the static baseline (used by Mult-VAE at KD/QB
  scale in the paper's Table V footnote); hashes ids into a fixed number of
  buckets and therefore collides.

:mod:`repro.hashing.stable` adds the process-stable splitmix64 hash the
sharded parameter server places feature rows with, so every process routes a
feature id to the same shard.
"""

from repro.hashing.dynamic_table import DynamicHashTable
from repro.hashing.feature_hashing import FeatureHasher
from repro.hashing.stable import shard_of_ids, stable_hash_ids

__all__ = ["DynamicHashTable", "FeatureHasher", "stable_hash_ids",
           "shard_of_ids"]
