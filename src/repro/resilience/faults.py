"""Seeded fault injection for distributed training and serving.

The paper's production runs span days on a parameter-server cluster, where
worker crashes are routine.  This module holds the injection side of both
halves of the repo's fault story:

* :class:`FaultSchedule` — a reproducible (seeded) list of worker crashes
  over the ``(step, worker)`` grid.
  :class:`~repro.distributed.sharded.ShardedTrainer` turns each
  :class:`FaultEvent` into a real ``SIGKILL`` and recovers from its latest
  checkpoint; ``python -m repro faults`` measures what that costs;
* :class:`StoreUnavailableError` — what a failed store read raises.  The
  serving half injects it with :class:`~repro.loadtest.chaos.ChaosStore`,
  which wraps an embedding store in seeded failures, corruptions and
  scheduled outages to exercise the serving fallback chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.utils.rng import new_rng

__all__ = ["FaultEvent", "FaultSchedule", "StoreUnavailableError"]


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
