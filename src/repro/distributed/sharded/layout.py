"""Shard layout: deterministic placement of embedding rows across shards.

For every field the model's :class:`~repro.hashing.DynamicHashTable` maps
raw feature ids to dense rows ``0..n-1``.  The sharded parameter server
places row ``r`` (whose feature id is ``id_r``) on shard
``splitmix64(id_r) % n_shards`` (:func:`~repro.hashing.stable.shard_of_ids`)
— routing by *key hash*, so a feature's home is a pure function of its id
and the shard count, never of insertion order or process identity.

Within its shard a row gets a dense *slot* (rows enumerated in global row
order), so each shard's parameter state is one contiguous ``(n_slots, dim)``
slab — the PR-5 columnar layout — and pulls/pushes are vectorised gathers
and scatters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.stable import shard_of_ids

__all__ = ["FieldLayout", "build_field_layout"]


@dataclass
class FieldLayout:
    """Row→(shard, slot) directory for one field's hash table."""

    field: str
    n_shards: int
    ids_by_row: np.ndarray     # (n,) feature id owning each global row
    shard_of_row: np.ndarray   # (n,) owning shard per global row
    slot_of_row: np.ndarray    # (n,) dense slot within the owning shard
    counts: np.ndarray         # (n_shards,) rows per shard

    @property
    def n_rows(self) -> int:
        return self.ids_by_row.size

    def rows_of_shard(self, shard: int) -> np.ndarray:
        """Global rows owned by ``shard``, ordered by slot."""
        rows = np.flatnonzero(self.shard_of_row == shard)
        return rows[np.argsort(self.slot_of_row[rows], kind="stable")]

    def scatter(self, full: np.ndarray, slabs: list[np.ndarray]) -> None:
        """Write a full ``(n, ...)`` matrix into the per-shard slabs."""
        for shard in range(self.n_shards):
            rows = self.rows_of_shard(shard)
            slabs[shard][: rows.size] = full[rows]

    def gather(self, slabs: list[np.ndarray],
               out: np.ndarray | None = None) -> np.ndarray:
        """Read the per-shard slabs back into one full ``(n, ...)`` matrix."""
        if out is None:
            out = np.empty((self.n_rows,) + tuple(slabs[0].shape[1:]),
                           dtype=slabs[0].dtype)
        for shard in range(self.n_shards):
            rows = self.rows_of_shard(shard)
            out[rows] = slabs[shard][: rows.size]
        return out

    def pull_rows(self, rows: np.ndarray, slabs: list[np.ndarray],
                  dest: np.ndarray) -> None:
        """``dest[rows] = shard_state[rows]`` — zero-copy reads per shard."""
        shards = self.shard_of_row[rows]
        for shard in np.unique(shards):
            sel = rows[shards == shard]
            dest[sel] = slabs[shard][self.slot_of_row[sel]]


def build_field_layout(field: str, table, n_shards: int) -> FieldLayout:
    """Layout for one (frozen) hash table.

    Rows are dense ``0..n-1`` in insertion order, so the id-per-row array is
    just the table's keys in iteration order; shard assignment hashes those
    ids and slots enumerate each shard's rows in global row order.
    """
    items = list(table.items())
    ids_by_row = np.asarray([k for k, __ in items], dtype=np.int64)
    if items and not np.array_equal(
            np.asarray([v for __, v in items], dtype=np.int64),
            np.arange(len(items))):
        raise ValueError(
            f"field '{field}': hash table rows are not dense insertion-order "
            "rows; cannot build a shard layout")
    if ids_by_row.size:
        shard_of_row = shard_of_ids(ids_by_row, n_shards)
    else:
        shard_of_row = np.empty(0, dtype=np.int64)
    slot_of_row = np.zeros_like(shard_of_row)
    counts = np.zeros(n_shards, dtype=np.int64)
    for shard in range(n_shards):
        mine = shard_of_row == shard
        counts[shard] = int(mine.sum())
        slot_of_row[mine] = np.arange(counts[shard])
    return FieldLayout(field=field, n_shards=n_shards, ids_by_row=ids_by_row,
                       shard_of_row=shard_of_row, slot_of_row=slot_of_row,
                       counts=counts)
