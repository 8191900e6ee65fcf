"""Batch loaders: synchronous reference and background-thread prefetching.

The trainer's inner loop is *prepare batch → forward → backward → step*.
Batch preparation is pure NumPy bookkeeping (CSR row gathers, segment arrays,
candidate sets) and the compute stages spend most of their time inside BLAS
calls that release the GIL, so preparing batch ``b+1`` on a worker thread
while batch ``b`` computes overlaps almost for free.

Determinism contract: a loader receives the *already shuffled* epoch order
and must yield batches with exactly the arrays ``dataset.batch(order[a:b])``
would produce, in the same order, touching no RNG.  This keeps training
bit-exact — same shuffle order, same reparametrisation noise, same
checkpoint/resume equality — whichever loader is plugged in
(:meth:`repro.core.trainer.Trainer.fit` accepts ``loader=``).

:class:`PrefetchLoader` additionally replaces the per-batch ``take_rows``
gather with one per-epoch reorder (``dataset.subset(order)``) followed by
zero-copy contiguous :meth:`~repro.data.sparse.CSRMatrix.row_range` slices,
and warms each :class:`~repro.data.dataset.FieldBatch`'s deterministic caches
(segment ids, unique candidates) off the critical path.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterator

import numpy as np

from repro.data.dataset import FieldBatch, MultiFieldDataset, UserBatch
from repro.obs import runtime as obs

__all__ = ["BatchLoader", "SyncLoader", "PrefetchLoader", "n_batches"]


def n_batches(n: int, batch_size: int) -> int:
    """Batches in an epoch of ``n`` users; the last one may be ragged."""
    if n <= 0:
        return 0
    return -(-n // batch_size)


class BatchLoader:
    """Loader protocol: generate an epoch's batches for a given order."""

    def epoch(self, dataset: MultiFieldDataset, order: np.ndarray,
              batch_size: int, first_batch: int = 0,
              ) -> Iterator[UserBatch]:  # pragma: no cover - protocol
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SyncLoader(BatchLoader):
    """The classic in-loop batcher: materialise each batch on demand."""

    def epoch(self, dataset: MultiFieldDataset, order: np.ndarray,
              batch_size: int, first_batch: int = 0) -> Iterator[UserBatch]:
        order = np.asarray(order, dtype=np.int64)
        total = n_batches(order.size, batch_size)
        for b in range(first_batch, total):
            yield dataset.batch(order[b * batch_size:(b + 1) * batch_size])


def _epoch_batches(dataset: MultiFieldDataset, order: np.ndarray,
                   batch_size: int, first_batch: int) -> Iterator[UserBatch]:
    """Produce the epoch's batches from one up-front reorder.

    ``dataset.subset(order)`` pays the row gather once; every batch is then a
    contiguous zero-copy ``row_range`` slice of the reordered CSR blocks —
    value-identical to ``dataset.batch(order[a:b])``.
    """
    total = n_batches(order.size, batch_size)
    if total <= first_batch:
        return
    reordered = dataset.subset(order)
    blocks = {name: reordered.field(name) for name in reordered.field_names}
    for b in range(first_batch, total):
        start = b * batch_size
        stop = min(start + batch_size, order.size)
        fields = {}
        for name, csr in blocks.items():
            offsets, indices, weights = csr.row_range(start, stop)
            fields[name] = FieldBatch(
                indices=indices, offsets=offsets, weights=weights,
                vocab_size=csr.n_cols).warm_caches()
        yield UserBatch(user_ids=order[start:stop], fields=fields)


class PrefetchLoader(BatchLoader):
    """Prepare batches on a daemon worker thread, ``prefetch`` deep.

    Parameters
    ----------
    prefetch:
        Queue depth: how many prepared batches may wait ahead of the
        consumer.  2 is enough to hide preparation behind compute; larger
        values only add memory.
    """

    _POLL_SECONDS = 0.05

    def __init__(self, prefetch: int = 2) -> None:
        if prefetch < 1:
            raise ValueError(f"prefetch depth must be >= 1: {prefetch}")
        self.prefetch = prefetch

    def __repr__(self) -> str:
        return f"PrefetchLoader(prefetch={self.prefetch})"

    def epoch(self, dataset: MultiFieldDataset, order: np.ndarray,
              batch_size: int, first_batch: int = 0) -> Iterator[UserBatch]:
        order = np.asarray(order, dtype=np.int64)
        out: queue.Queue = queue.Queue(maxsize=self.prefetch)
        stop = threading.Event()

        def produce() -> None:
            try:
                for batch in _epoch_batches(dataset, order, batch_size,
                                            first_batch):
                    if not self._put(out, stop, ("ok", batch)):
                        return
                self._put(out, stop, ("done", None))
            except BaseException as exc:  # surfaced on the consumer side
                self._put(out, stop, ("err", exc))

        worker = threading.Thread(target=produce, name="repro-prefetch",
                                  daemon=True)
        worker.start()
        obs.count("prefetch.epochs")
        try:
            while True:
                kind, payload = out.get()
                if kind == "done":
                    return
                if kind == "err":
                    raise payload
                obs.count("prefetch.batches")
                yield payload
        finally:
            # Runs on normal exhaustion, on error, and on generator.close()
            # (trainer break / early stopping): unblock and retire the worker.
            stop.set()
            while True:
                try:
                    out.get_nowait()
                except queue.Empty:
                    break
            worker.join(timeout=5.0)

    def _put(self, out: queue.Queue, stop: threading.Event, item) -> bool:
        """Enqueue ``item`` unless the consumer went away; False to abort."""
        while not stop.is_set():
            try:
                out.put(item, timeout=self._POLL_SECONDS)
                return True
            except queue.Full:
                continue
        return False
