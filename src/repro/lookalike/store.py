"""Embedding storage: the offline store and the online cache of §IV-D.

The paper's offline module persists inferred user embeddings to bulk storage
(HDFS) and the online module serves them through a high-performance cache
(Redis).  :class:`EmbeddingStore` is the bulk store (with npz persistence);
:class:`LRUCache` is the bounded cache with hit/miss accounting.

Layout: the store is *columnar* — one contiguous ``(capacity, width)`` matrix
of stored rows plus a key→row dict (:class:`_RowTable`).  Batch reads
(:meth:`EmbeddingStore.get_many`, :meth:`EmbeddingStore.get_batch`) are single
fancy-indexing ops over that matrix rather than per-key Python loops, and
:meth:`EmbeddingStore.load` can adopt a read-only ``np.memmap`` of an
uncompressed snapshot (:meth:`EmbeddingStore.save_snapshot`) so cold starts
page the matrix in lazily instead of deserialising it.

Every vector crosses one encode/decode pair on its way in and out.  Here it
is the identity (stored rows are the float64 vectors); the quantized store
(:class:`~repro.lookalike.quant.QuantizedEmbeddingStore`) is this class with
a codec, storing uint8 codes.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.obs import runtime as obs
from repro.resilience.checkpoint import (CheckpointError, key_array,
                                         read_archive, write_archive)

__all__ = ["EmbeddingStore", "LRUCache"]


class _RowTable:
    """Key → row index over one growable ``(n, width)`` matrix of stored rows.

    The columnar core under :class:`EmbeddingStore` and the serving proxy's
    stale tier: per-key work is one dict lookup, everything that touches
    rows is one fancy-indexed gather or scatter.  Rows are append-only — a
    key keeps its row for the lifetime of the table — and the table holds
    *copies*: neither :meth:`write` nor :meth:`read` aliases a caller's array.

    The matrix may be an adopted read-only mmap (:meth:`EmbeddingStore.load`);
    the first :meth:`write` then detaches onto a private in-memory copy
    (copy-on-write) and the file is never touched.
    """

    def __init__(self, width: int) -> None:
        #: Width of the rows :meth:`read` returns.
        self.dim = width
        self._index: dict[Hashable, int] = {}
        self._matrix = np.empty((0, width), dtype=np.float64)
        #: True while the matrix is an adopted read-only mmap.
        self._readonly = False

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    @property
    def is_mapped(self) -> bool:
        """True while the matrix is still the adopted read-only mmap."""
        return self._readonly

    def rows_for(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Row index per key (``-1`` for keys not in the table)."""
        return np.fromiter(map(self._index.get, keys, repeat(-1)),
                           dtype=np.int64, count=len(keys))

    def write(self, keys: Sequence[Hashable], matrix: np.ndarray) -> None:
        """``matrix[i]`` becomes the row of ``keys[i]``; new keys append rows.

        One scatter for the batch.  Duplicate keys resolve last-wins, as the
        per-key loop would: NumPy assigns repeated indices in order (it does
        not promise to — ``tests/test_serve_columnar.py`` pins it).  A write
        to the adopted mmap first copies the live rows, exactly sized;
        growth doubles the capacity.
        """
        index = self._index
        live = len(index)
        rows = [index.setdefault(key, len(index)) for key in keys]
        if self._readonly or len(index) > self._matrix.shape[0]:
            capacity = len(index) if self._readonly else \
                max(len(index), 2 * self._matrix.shape[0], 8)
            grown = np.empty((capacity, self._matrix.shape[1]),
                             dtype=self._matrix.dtype)
            grown[:live] = self._matrix[:live]
            self._matrix = grown
            self._readonly = False
        self._matrix[np.fromiter(rows, np.intp, len(rows))] = matrix

    def read(self, keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(matrix, found_mask)`` — zero rows for absent keys.

        One gather for the batch, by plain fancy indexing: on the adopted
        mmap ``ndarray.take`` would first copy the *whole* matrix (it wants
        an aligned array; an ``.npz`` member is not).  Gathered rows pass
        through :meth:`_decode` and absent keys are zeroed *after* it (a zero
        code need not decode to a zero vector).  The result is a fresh
        writable ``ndarray`` the caller owns.
        """
        rows = self.rows_for(keys)
        found = rows >= 0
        if not self._index:
            return np.zeros((len(keys), self.dim), dtype=np.float64), found
        if found.all():
            return self._decode(self._matrix[rows]), found
        missing = ~found
        rows[missing] = 0            # any written row: its code decodes
        out = self._decode(self._matrix[rows])
        out[missing] = 0.0
        return out, found

    def _decode(self, rows: np.ndarray) -> np.ndarray:
        """Stored rows → float64 vectors: the identity for a float64 table."""
        return rows


class EmbeddingStore(_RowTable):
    """Bulk key → vector store (the HDFS stand-in).

    All vectors must share one dimension; reads and writes are vectorised
    over one contiguous row-major matrix.  Rows are append-only: a key keeps
    its row for the lifetime of the store, so row indices from
    :meth:`rows_for` stay valid across later writes.

    Writes pass through :meth:`_encode` and reads through :meth:`_decode`,
    the identity here; a subclass with a codec changes the stored rows (and
    the archive member :attr:`_ROWS` that holds them) and nothing else.
    """

    #: Archive member holding the stored rows.
    _ROWS = "matrix"

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive: {dim}")
        super().__init__(dim)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

    def _encode(self, matrix: np.ndarray) -> np.ndarray:
        """float64 vectors → stored rows: the identity here."""
        return matrix

    # -- writes ----------------------------------------------------------------

    def put(self, key: Hashable, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector shape {vector.shape} != ({self.dim},)")
        self.put_many([key], vector[None, :])

    def put_many(self, keys: Iterable[Hashable], matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        keys = list(keys)
        if matrix.shape != (len(keys), self.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({len(keys)}, {self.dim})")
        if keys:
            self.write(keys, self._encode(matrix))

    # -- reads -----------------------------------------------------------------

    def get(self, key: Hashable) -> np.ndarray | None:
        """The key's vector as a fresh array (writing into it changes
        nothing stored), or ``None``."""
        vectors, found = self.read([key])
        return vectors[0] if found[0] else None

    def get_many(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Stack vectors for ``keys``; raises on any missing key."""
        keys = list(keys)
        vectors, found = self.read(keys)
        if not found.all():
            key = keys[int(np.argmin(found))]
            raise KeyError(f"no embedding stored for key {key!r}")
        return vectors

    def get_batch(self,
                  keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(matrix, found_mask)`` — zero rows for absent keys.

        Unlike :meth:`get_many` this never raises on missing keys; the mask
        tells the caller which rows were resolved.  One fancy-indexed gather
        for the whole batch (:meth:`_RowTable.read`).
        """
        return self.read(keys)

    def keys(self) -> list[Hashable]:
        return list(self._index)

    def as_matrix(self) -> tuple[list[Hashable], np.ndarray]:
        """Return ``(keys, matrix)`` with aligned ordering.

        For float64 rows the matrix is a zero-copy view of the live store;
        callers must not write through it.  A codec materialises it.
        """
        n = len(self._index)
        if not n:
            return [], np.empty((0, self.dim), dtype=np.float64)
        return list(self._index), self._decode(self._matrix[:n])

    # -- persistence -----------------------------------------------------------

    def _archive(self) -> tuple[dict, dict]:
        """Archive meta and members besides ``keys`` and the stored rows."""
        return {"dim": self.dim}, {}

    @classmethod
    def _from_archive(cls, meta: dict, arrays: dict) -> "EmbeddingStore":
        """An empty store configured from an archive's meta and members."""
        return cls(int(meta["dim"]))

    def save_snapshot(self, path: str | Path) -> None:
        """Atomically replace ``path`` with an archive :meth:`load` can map.

        One :func:`~repro.resilience.checkpoint.write_archive` with no
        digest sidecar: the rows member is stored raw, so its byte range in
        the archive is exactly the in-memory layout, and a store that mapped
        the previous snapshot at ``path`` keeps serving it.
        """
        n = len(self._index)
        meta, members = self._archive()
        members["keys"] = key_array(self._index)
        members[self._ROWS] = np.ascontiguousarray(self._matrix[:n])
        write_archive(path, members, meta, with_digest=False)

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "EmbeddingStore":
        """Load a saved store; ``mmap=True`` adopts the rows zero-copy.

        A mapped store is served read-only until the first write, which
        materialises a private copy; an archive whose rows cannot be mapped
        (a compressed one) loads eagerly.  Raises
        :class:`~repro.resilience.CheckpointError` when the archive is
        unreadable or its rows do not match its keys and row width.
        """
        archive = read_archive(path)
        arrays = archive.arrays
        if not mmap:
            arrays = {name: np.array(value) for name, value in arrays.items()}
        try:
            store = cls._from_archive(archive.meta, arrays)
            keys, rows = arrays["keys"].tolist(), arrays[cls._ROWS]
        except KeyError as exc:
            raise CheckpointError(f"{path} lacks {exc}") from exc
        shape = (len(keys), store._matrix.shape[1])
        if rows.shape != shape or rows.dtype != store._matrix.dtype:
            raise CheckpointError(
                f"{path}: {cls._ROWS!r} is {rows.dtype}{rows.shape}, "
                f"want {store._matrix.dtype}{shape}")
        store._matrix = rows
        store._readonly = not rows.flags.writeable
        store._index = {key: row for row, key in enumerate(keys)}
        return store


class LRUCache:
    """Bounded LRU cache in front of a store (the Redis stand-in).

    Tracks hits and misses so serving benchmarks can report hit rate; when a
    telemetry session is installed every lookup also updates the
    ``cache.hits`` / ``cache.misses`` counters (labelled with ``name``), which
    therefore reconcile exactly with :attr:`hit_rate` over the session.

    Like the store, the cache is *columnar*: vectors live in one contiguous
    ``(capacity, dim)`` matrix (allocated lazily from the first vector's
    length) and the LRU order is a key→slot ``OrderedDict``.  A batch probe
    (:meth:`get_many`) is therefore one fancy-indexed gather over the slot
    matrix, and an eviction recycles the victim's slot instead of freeing the
    array.  All cached vectors must share one dimension.

    The scalar :meth:`get`/:meth:`put` delegate to the batch primitives
    :meth:`get_many`/:meth:`put_many`, which emit **one** aggregated metrics
    update per call instead of one per key.
    """

    def __init__(self, capacity: int, name: str = "lru") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.name = name
        self._slots: OrderedDict[Hashable, int] = OrderedDict()
        self._matrix: np.ndarray | None = None
        self._next_slot = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._slots)

    def get(self, key: Hashable) -> np.ndarray | None:
        vectors, mask = self.get_many([key])
        return vectors[0] if mask[0] else None

    def get_many(self,
                 keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup: ``(hit_matrix, hit_mask)`` with one metrics update.

        ``hit_matrix`` stacks the cached vectors of the hits only, in input
        order — row ``j`` belongs to the ``j``-th True entry of ``hit_mask``
        (``hit_matrix[...] == out[hit_mask]`` after a scatter).  Assembling
        the hits is one fancy-indexed gather over the slot matrix, not a
        per-key stack.  Counter updates (both the local tallies and the
        telemetry counters) are aggregated: one ``cache.hits`` increment of
        size *n_hits* and one ``cache.misses`` increment of size *n_misses*
        per call.
        """
        slots = self._slots
        slot_get = slots.get
        refresh = slots.move_to_end
        mask = np.zeros(len(keys), dtype=bool)
        hit_slots: list[int] = []
        append = hit_slots.append
        for pos, key in enumerate(keys):
            slot = slot_get(key)
            if slot is not None:
                refresh(key)
                mask[pos] = True
                append(slot)
        n_hits = len(hit_slots)
        n_misses = len(keys) - n_hits
        self.hits += n_hits
        self.misses += n_misses
        if n_hits:
            obs.count("cache.hits", n_hits, cache=self.name)
        if n_misses:
            obs.count("cache.misses", n_misses, cache=self.name)
        if n_hits:
            hits = self._matrix[np.asarray(hit_slots, dtype=np.int64)]
        else:
            dim = 0 if self._matrix is None else self._matrix.shape[1]
            hits = np.empty((0, dim), dtype=np.float64)
        return hits, mask

    def put(self, key: Hashable, vector: np.ndarray) -> None:
        self.put_many([key], [vector])

    def put_many(self, keys: Sequence[Hashable],
                 vectors: Sequence[np.ndarray] | np.ndarray) -> None:
        """Batch insert with one aggregated eviction metrics update.

        ``vectors`` is a ``(len(keys), dim)`` matrix or a sequence of 1-D
        vectors; the first vector ever inserted fixes the cache's ``dim``.
        Every destination slot — evictions included — is decided first, key
        by key in LRU order, then the vectors land in one scatter; a slot
        named twice (a duplicate key, or a key evicted again inside a batch
        larger than the cache) keeps the last vector, as in
        :meth:`_RowTable.write`.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if not len(keys):
            return
        if self._matrix is None:
            self._matrix = np.empty((self.capacity, vectors.shape[-1]),
                                    dtype=np.float64)
        if vectors.shape != (len(keys), self._matrix.shape[1]):
            raise ValueError(f"vectors shape {vectors.shape} != "
                             f"({len(keys)}, {self._matrix.shape[1]})")
        slots = self._slots
        slot_get, refresh, evict = slots.get, slots.move_to_end, slots.popitem
        fresh = self._next_slot
        capacity = self.capacity
        evicted = 0
        dest: list[int] = []
        append = dest.append
        for key in keys:
            slot = slot_get(key)
            if slot is not None:
                refresh(key)
            else:
                if fresh < capacity:
                    slot = fresh
                    fresh += 1
                else:  # full: evict the LRU entry and recycle its slot
                    slot = evict(False)[1]
                    evicted += 1
                slots[key] = slot
            append(slot)
        self._next_slot = fresh
        self._matrix[np.fromiter(dest, np.intp, len(dest))] = vectors
        if evicted:
            self.evictions += evicted
            obs.count("cache.evictions", evicted, cache=self.name)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
