"""Simulated data-parallel distributed training (§V-E3, Fig 10).

The paper trains the FVAE on 3–12 Tencent Cloud servers and reports
near-linear speedup.  No cluster is available here, so the simulator combines
*measured* computation with a *modelled* synchronisation cost:

1. the user set is sharded evenly across ``W`` simulated workers;
2. each worker's shard is trained **for real** (in-process, sequentially) and
   its wall-clock compute time measured;
3. synchronous data-parallel wall-clock is reconstructed as
   ``max_w compute_w + steps · sync_cost(W)`` where the sync cost follows a
   ring-allreduce model (latency + gradient bytes over bandwidth).

Speedup ratios — the quantity Fig 10 plots — therefore reflect the real
compute profile of the implementation, with only the network modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.trainer import Trainer
from repro.data.dataset import MultiFieldDataset
from repro.utils.rng import new_rng

__all__ = ["CommunicationModel", "WorkerMeasurement", "DistributedTrainingSimulator"]


@dataclass(frozen=True)
class CommunicationModel:
    """Ring-allreduce synchronisation cost model.

    ``cost = latency · (W − 1) + 2·(W−1)/W · bytes / bandwidth`` per step.
    """

    latency_seconds: float = 2e-4
    bandwidth_bytes_per_second: float = 1.25e9  # ~10 Gbit/s

    def sync_cost(self, n_workers: int, gradient_bytes: float) -> float:
        if n_workers <= 1:
            return 0.0
        transfer = 2.0 * (n_workers - 1) / n_workers * gradient_bytes \
            / self.bandwidth_bytes_per_second
        return self.latency_seconds * (n_workers - 1) + transfer


@dataclass
class WorkerMeasurement:
    """Result of simulating one cluster size."""

    n_workers: int
    compute_seconds: list[float]
    steps: int
    sync_seconds: float

    @property
    def wall_clock(self) -> float:
        return max(self.compute_seconds) + self.sync_seconds


class DistributedTrainingSimulator:
    """Measure simulated data-parallel wall-clock across cluster sizes.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh trainable model (must expose
        ``loss_on_batch`` / ``parameters``).  A fresh model per worker keeps
        measurements independent.
    dataset:
        Full training set to shard.
    comm:
        Synchronisation cost model.  The bytes it moves per step are the
        model's dense parameters: sparse embedding rows travel via the
        parameter server and are excluded, as in the paper's setup.
    """

    def __init__(self, model_factory: Callable[[], object],
                 dataset: MultiFieldDataset,
                 comm: CommunicationModel | None = None) -> None:
        self.model_factory = model_factory
        self.dataset = dataset
        self.comm = comm or CommunicationModel()

    def _dense_gradient_bytes(self, model) -> float:
        total = 0
        for p in model.parameters():
            if not getattr(p, "sparse", False):
                total += p.size
        return float(total * 8)

    def measure(self, n_workers: int, epochs: int = 1, batch_size: int = 512,
                lr: float = 1e-3,
                rng: np.random.Generator | int | None = 0) -> WorkerMeasurement:
        """Train one worker's shard and reconstruct synchronous wall-clock.

        Shards are equal-sized, so worker 0's measured time stands for all.
        """
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive: {n_workers}")
        rng = new_rng(rng)
        order = rng.permutation(self.dataset.n_users)
        shard = self.dataset.subset(np.array_split(order, n_workers)[0])
        model = self.model_factory()
        grad_bytes = self._dense_gradient_bytes(model)
        history = Trainer(model, lr=lr).fit(shard, epochs=epochs,
                                            batch_size=batch_size, rng=rng)
        steps = epochs * (-(-len(shard) // batch_size))
        sync = steps * self.comm.sync_cost(n_workers, grad_bytes)
        return WorkerMeasurement(
            n_workers=n_workers, compute_seconds=[history.total_time] * n_workers,
            steps=steps, sync_seconds=sync)

    def speedup_curve(self, worker_counts: list[int], epochs: int = 1,
                      batch_size: int = 512, lr: float = 1e-3,
                      rng: np.random.Generator | int | None = 0,
                      ) -> dict[int, float]:
        """Speedup vs single-worker wall-clock for each cluster size (Fig 10)."""
        baseline = self.measure(1, epochs=epochs, batch_size=batch_size,
                                lr=lr, rng=rng).wall_clock
        out: dict[int, float] = {}
        for w in worker_counts:
            wall = self.measure(w, epochs=epochs, batch_size=batch_size,
                                lr=lr, rng=rng).wall_clock
            out[w] = baseline / wall if wall > 0 else float("inf")
        return out
