"""Dynamic hash table mapping raw feature ids to dense embedding rows.

This is the data structure behind §IV-C1 of the paper: instead of hashing
billions of feature ids into a fixed table (which collides), every *new* id
encountered during training is assigned the next free dense row.  Lookup is
O(1); the table — and any embedding matrix keyed by it — grows with the data,
which also solves the feature-growth problem when new data sources come
online.

The implementation builds on Python's dict (an open-addressing hash table),
with vectorised batch lookups for the hot path.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.obs import runtime as obs

__all__ = ["DynamicHashTable"]


class DynamicHashTable:
    """Grow-able mapping ``feature id -> dense row index``.

    Parameters
    ----------
    frozen:
        When True the table refuses to grow; unknown ids map to ``-1``
        (callers typically drop them).  Inference-time tables are frozen so
        serving never mutates training state.
    name:
        Optional label (e.g. the field name) attached to the table's
        telemetry: ``hash_table.size`` / ``hash_table.load_factor`` gauges
        and the ``hash_table.grows`` counter.
    """

    # Dense integer-id mirrors above this many slots are not worth the RAM.
    _MAX_MIRROR = 1 << 24

    def __init__(self, frozen: bool = False, name: str | None = None) -> None:
        self._index: dict[Hashable, int] = {}
        self.frozen = frozen
        self.name = name
        self.grows = 0  # number of ids inserted, for instrumentation
        self._version = 0          # bumped on every mutation
        self._mirror: np.ndarray | None = None  # dense id -> row array
        self._mirror_version = -1
        self._mirror_ok = True     # False: keys unsuited to a dense mirror

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

    @property
    def size(self) -> int:
        """Number of distinct ids currently stored."""
        return len(self._index)

    @property
    def load_factor(self) -> float:
        """Occupancy against the estimated CPython dict slot allocation.

        CPython dicts resize once more than 2/3 of their (power-of-two) slot
        table is used; the estimate below reconstructs the smallest such table
        that holds ``size`` entries, so the value cycles in (1/3, 2/3] as the
        table grows.
        """
        used = len(self._index)
        if used == 0:
            return 0.0
        slots = 8
        while used > (2 * slots) // 3:
            slots *= 2
        return used / slots

    def _report(self, inserted: int) -> None:
        """Push grow/size telemetry after ``inserted`` new ids (obs installed)."""
        label = self.name or "anon"
        obs.count("hash_table.grows", inserted, table=label)
        obs.gauge_set("hash_table.size", len(self._index), table=label)
        obs.gauge_set("hash_table.load_factor", self.load_factor, table=label)

    def lookup_one(self, key: Hashable) -> int:
        """Map a single id to its row, inserting it if the table may grow."""
        row = self._index.get(key)
        if row is not None:
            return row
        if self.frozen:
            return -1
        row = len(self._index)
        self._index[key] = row
        self.grows += 1
        self._version += 1
        if obs.enabled():
            self._report(1)
        return row

    # -- vectorised integer-id fast path ---------------------------------------
    #
    # Rows are always assigned densely in insertion order, so when every key
    # is a non-negative integer the whole mapping can be mirrored as one
    # ``id -> row`` array and a batch lookup becomes a single fancy-index.
    # The mirror is rebuilt lazily after mutations (cheap: one vectorised
    # scatter) and abandoned permanently for tables whose keys don't fit.

    def _id_mirror(self) -> np.ndarray | None:
        if not self._mirror_ok:
            return None
        if self._mirror_version != self._version:
            n = len(self._index)
            try:
                keys = np.fromiter(self._index.keys(), dtype=np.int64, count=n)
            except (TypeError, ValueError, OverflowError):
                self._mirror_ok = False
                self._mirror = None
                return None
            size = int(keys.max()) + 1 if n else 0
            if n and (keys.min() < 0 or size > self._MAX_MIRROR):
                self._mirror_ok = False
                self._mirror = None
                return None
            mirror = np.full(size, -1, dtype=np.int64)
            # dict values are 0..n-1 in insertion (= iteration) order
            mirror[keys] = np.arange(n, dtype=np.int64)
            self._mirror = mirror
            self._mirror_version = self._version
        return self._mirror

    @staticmethod
    def _map_ids(ids: np.ndarray, mirror: np.ndarray) -> np.ndarray:
        if mirror.size == 0:
            return np.full(ids.size, -1, dtype=np.int64)
        rows = mirror[np.clip(ids, 0, mirror.size - 1)]
        oob = (ids < 0) | (ids >= mirror.size)
        if oob.any():
            rows = np.where(oob, -1, rows)
        return rows

    def lookup_ids(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lookup` for an int array of ids.

        Identical semantics (including insertion order: unknown ids are
        registered in first-occurrence order) but the known-id case is a
        single array gather instead of a Python loop.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        mirror = self._id_mirror()
        if mirror is None:
            return self.lookup(ids.tolist())
        rows = self._map_ids(ids, mirror)
        if self.frozen or (rows >= 0).all():
            return rows
        index = self._index
        inserted = 0
        for key in ids[rows < 0].tolist():
            if key not in index:
                index[key] = len(index)
                inserted += 1
        if inserted:
            self.grows += inserted
            self._version += 1
            if obs.enabled():
                self._report(inserted)
        mirror = self._id_mirror()
        if mirror is None:  # negative id slipped in: scalar path finishes
            return self.rows_for(ids.tolist())
        return self._map_ids(ids, mirror)

    def rows_for_ids(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rows_for` (never grows) for an int array."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        mirror = self._id_mirror()
        if mirror is None:
            return self.rows_for(ids.tolist())
        return self._map_ids(ids, mirror)

    def lookup(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Vectorised :meth:`lookup_one` returning an ``int64`` array.

        Unknown ids are inserted (table not frozen) or mapped to ``-1``
        (frozen).
        """
        index = self._index
        if self.frozen:
            out = np.fromiter((index.get(k, -1) for k in keys), dtype=np.int64)
            return out
        inserted = 0
        result = []
        for key in keys:
            row = index.get(key)
            if row is None:
                row = len(index)
                index[key] = row
                inserted += 1
            result.append(row)
        if inserted:
            self.grows += inserted
            self._version += 1
            if obs.enabled():
                self._report(inserted)
        return np.asarray(result, dtype=np.int64)

    def freeze(self) -> "DynamicHashTable":
        """Stop growing; unknown ids now map to ``-1``."""
        self.frozen = True
        return self

    def unfreeze(self) -> "DynamicHashTable":
        self.frozen = False
        return self

    def rows_for(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Lookup without ever growing, regardless of frozen state."""
        return np.fromiter((self._index.get(k, -1) for k in keys), dtype=np.int64)

    def items(self):
        return self._index.items()

    def load_items(self, keys: Iterable[Hashable]) -> "DynamicHashTable":
        """Replace the table contents: the ``i``-th key gets row ``i``.

        Used by checkpoint restore (:mod:`repro.resilience`): the saved
        mapping must be reproduced *exactly* — including insertion order,
        which determines the rows future ids will receive — rather than
        re-inserted through :meth:`lookup`.  Keys must be distinct.
        """
        keys = list(keys)
        index = {key: row for row, key in enumerate(keys)}
        if len(index) != len(keys):
            raise ValueError(f"{len(keys) - len(index)} duplicate keys")
        self._index = index
        self._version += 1
        self._mirror_ok = True  # new key set: re-judge mirror suitability
        return self

    def verify_bijection(self) -> list[str]:
        """Check the id↔row bijection invariants; returns problem strings.

        The table promises (a) rows are the dense range ``0..n-1``, (b) rows
        are assigned in insertion order (dict iteration order — checkpoint
        restore and embedding growth both rely on it), and (c) any built
        integer-id mirror agrees with the dict.  Used by
        :mod:`repro.check.invariants`; an empty list means the table is
        consistent.
        """
        problems: list[str] = []
        n = len(self._index)
        rows = np.fromiter(self._index.values(), dtype=np.int64, count=n)
        if not np.array_equal(rows, np.arange(n, dtype=np.int64)):
            dense = (n == 0 or (np.unique(rows).size == n
                                and rows.min() == 0 and rows.max() == n - 1))
            if dense:
                problems.append(
                    "rows are dense but not in insertion order")
            else:
                problems.append(
                    f"rows are not the dense range 0..{n - 1}")
        if self._mirror is not None and self._mirror_version == self._version:
            mirror = self._mirror
            occupied = int((mirror >= 0).sum())
            if occupied != n:
                problems.append(
                    f"mirror holds {occupied} rows but the dict holds {n}")
            else:
                for key, row in self._index.items():
                    if not (0 <= key < mirror.size) or mirror[key] != row:
                        problems.append(
                            f"mirror disagrees with dict at id {key!r}")
                        break
        return problems

    def copy(self) -> "DynamicHashTable":
        clone = DynamicHashTable(frozen=self.frozen, name=self.name)
        clone._index = dict(self._index)
        return clone
