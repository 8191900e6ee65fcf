"""Seeded fault injection for distributed training and serving.

The paper's production runs span days on a parameter-server cluster, where
worker crashes are routine.  This module holds the injection side of both
halves of the repo's fault story:

* :class:`FaultSchedule` — a reproducible (seeded) list of worker crashes
  over the ``(step, worker)`` grid.
  :class:`~repro.distributed.sharded.ShardedTrainer` turns each
  :class:`FaultEvent` into a real ``SIGKILL`` and recovers from its latest
  checkpoint; ``python -m repro faults`` measures what that costs;
* :class:`FlakyEmbeddingStore` — a store wrapper that raises
  :class:`StoreUnavailableError` on a seeded fraction of lookups, used to
  exercise the serving fallback chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["FaultEvent", "FaultSchedule", "StoreUnavailableError",
           "FlakyEmbeddingStore"]


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One injected crash: ``worker`` is killed at global ``step``."""

    step: int
    worker: int


@dataclass
class FaultSchedule:
    """A concrete, reproducible list of worker crashes for one run."""

    n_steps: int
    n_workers: int
    events: list[FaultEvent] = field(default_factory=list)

    @classmethod
    def generate(cls, n_steps: int, n_workers: int, crash_rate: float,
                 seed: int = 0) -> "FaultSchedule":
        """Crash each worker at each step with probability ``crash_rate``.

        Independent Bernoulli draws over the ``(n_steps, n_workers)`` grid:
        same seed, same schedule.
        """
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError(f"crash_rate must be a probability: {crash_rate}")
        if n_steps < 0 or n_workers <= 0:
            raise ValueError(
                f"need n_steps >= 0 and n_workers > 0: {n_steps}, {n_workers}")
        crash = new_rng(seed).random((n_steps, n_workers)) < crash_rate
        events = [FaultEvent(int(step), int(worker))
                  for step, worker in zip(*np.nonzero(crash))]
        return cls(n_steps=n_steps, n_workers=n_workers, events=events)

    def at(self, step: int) -> list[FaultEvent]:
        return [e for e in self.events if e.step == step]


# -- serving-side fault injection -----------------------------------------------

class StoreUnavailableError(ConnectionError):
    """The embedding store failed to answer a lookup (transient)."""


class FlakyEmbeddingStore:
    """Wrap an embedding store so a seeded fraction of lookups fail.

    Duck-types :class:`repro.lookalike.EmbeddingStore`; writes are passed
    through untouched, reads raise :class:`StoreUnavailableError` with
    probability ``failure_rate`` (or deterministically after
    :meth:`fail_next`).  Used by tests, the resilience smoke script, and the
    serving degradation experiment.

    A second, nastier failure mode returns *wrong data* instead of raising:
    with probability ``corruption_rate`` (or deterministically after
    :meth:`corrupt_next`) a read succeeds but hands back corrupted rows —
    NaN-filled vectors, or a wrong-dimension matrix when
    ``corruption_mode="wrong_dim"``.  This models bit rot / truncated RPC
    payloads that a naive client would serve straight to ranking; the
    :class:`~repro.lookalike.serving.ServingProxy` is expected to detect it
    and fall back instead.
    """

    def __init__(self, store, failure_rate: float = 0.2,
                 rng: np.random.Generator | int | None = 0,
                 corruption_rate: float = 0.0,
                 corruption_mode: str = "nan") -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be a probability: {failure_rate}")
        if not 0.0 <= corruption_rate <= 1.0:
            raise ValueError(
                f"corruption_rate must be a probability: {corruption_rate}")
        if corruption_mode not in ("nan", "wrong_dim"):
            raise ValueError(
                f"corruption_mode must be 'nan' or 'wrong_dim': "
                f"{corruption_mode!r}")
        self.store = store
        self.failure_rate = failure_rate
        self.corruption_rate = corruption_rate
        self.corruption_mode = corruption_mode
        self._rng = new_rng(rng)
        self._forced_failures = 0
        self._forced_corruptions = 0
        self.injected_failures = 0
        self.injected_corruptions = 0

    @property
    def dim(self) -> int:
        return self.store.dim

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.store

    def fail_next(self, n: int = 1) -> None:
        """Force the next ``n`` reads to fail (deterministic tests)."""
        self._forced_failures += n

    def corrupt_next(self, n: int = 1) -> None:
        """Force the next ``n`` reads to return corrupted rows."""
        self._forced_corruptions += n

    def _maybe_fail(self) -> None:
        if self._forced_failures > 0:
            self._forced_failures -= 1
        elif not (self.failure_rate and self._rng.random() < self.failure_rate):
            return
        self.injected_failures += 1
        obs.count("store.injected_failures")
        raise StoreUnavailableError("injected store failure")

    def _maybe_corrupt(self) -> bool:
        if self._forced_corruptions > 0:
            self._forced_corruptions -= 1
        elif not (self.corruption_rate
                  and self._rng.random() < self.corruption_rate):
            return False
        self.injected_corruptions += 1
        obs.count("store.injected_corruptions")
        return True

    def _corrupt_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Corrupted stand-in for a read result (same row count)."""
        if self.corruption_mode == "wrong_dim":
            return np.zeros((len(matrix), matrix.shape[1] + 1)
                            if matrix.ndim == 2 else (matrix.shape[0] + 1,))
        return np.full_like(matrix, np.nan)

    def get(self, key: Hashable):
        self._maybe_fail()
        vec = self.store.get(key)
        if vec is not None and self._maybe_corrupt():
            return self._corrupt_matrix(np.atleast_1d(vec))
        return vec

    def get_many(self, keys: Iterable[Hashable]):
        self._maybe_fail()
        out = self.store.get_many(keys)
        if self._maybe_corrupt():
            return self._corrupt_matrix(out)
        return out

    def get_batch(self, keys):
        """One failure roll for the whole batch — a batch read is one RPC."""
        self._maybe_fail()
        matrix, found = self.store.get_batch(keys)
        if self._maybe_corrupt():
            return self._corrupt_matrix(matrix), found
        return matrix, found

    def as_matrix(self):
        return self.store.as_matrix()

    def put(self, key: Hashable, vector) -> None:
        self.store.put(key, vector)

    def put_many(self, keys, matrix) -> None:
        self.store.put_many(keys, matrix)

    def keys(self):
        return self.store.keys()
