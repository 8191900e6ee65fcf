"""The trainer's batch loader, which materialises each batch on demand.

The trainer's inner loop is *prepare batch → forward → backward → step*;
preparing a batch (CSR row gathers) is ≈ 1 % of a step, so it runs in-line.
The second core goes to the decoder's per-field tasks instead (see
:mod:`repro.nn.parallel`); a prefetching loader thread would be a third
thread on two cores, and measured no faster (docs/PERFORMANCE.md).

Determinism contract: the loader receives the *already shuffled* epoch order
and yields exactly the arrays ``dataset.batch(order[a:b])`` would produce, in
the same order, touching no RNG, so shuffles, reparametrisation noise and
checkpoint/resume equality are all decided by the trainer.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import MultiFieldDataset, UserBatch

__all__ = ["SyncLoader", "n_batches"]


def n_batches(n: int, batch_size: int) -> int:
    """Batches in an epoch of ``n`` users; the last one may be ragged."""
    if n <= 0:
        return 0
    return -(-n // batch_size)


class SyncLoader:
    """The classic in-loop batcher: materialise each batch on demand."""

    def epoch(self, dataset: MultiFieldDataset, order: np.ndarray,
              batch_size: int, first_batch: int = 0) -> Iterator[UserBatch]:
        order = np.asarray(order, dtype=np.int64)
        total = n_batches(order.size, batch_size)
        for b in range(first_batch, total):
            yield dataset.batch(order[b * batch_size:(b + 1) * batch_size])
