"""``repro.resilience`` — surviving partial failure at production scale.

The paper's system trains for days on a parameter-server cluster and serves
lookalike traffic online (§IV-D); at that scale worker loss, pre-empted jobs,
and store misses are the normal case.  This package holds the three legs of
the repo's fault story:

* :mod:`repro.resilience.checkpoint` — atomic, digest-verified training
  checkpoints with bit-exact resume (wired into
  :meth:`repro.core.trainer.Trainer.fit`);
* :mod:`repro.resilience.faults` — seeded worker-crash schedules that
  :class:`~repro.distributed.sharded.ShardedTrainer` carries out as real
  process kills, and the error a failed store read raises;
* :mod:`repro.resilience.guards` — retry-with-backoff, deadline budgets, and
  a circuit breaker for serving-path store lookups.

Import discipline: like :mod:`repro.obs`, this package is imported from hot
paths (`core`, `distributed`, `lookalike`) and therefore only depends on
numpy/stdlib plus ``repro.obs`` and ``repro.utils``.
"""

from repro.resilience.checkpoint import (Checkpoint, CheckpointError,
                                         Checkpointer, model_state_arrays,
                                         restore_model_state)
from repro.resilience.faults import (FaultEvent, FaultSchedule,
                                     StoreUnavailableError)
from repro.resilience.guards import (CircuitBreaker, CircuitOpenError,
                                     Deadline, DeadlineExceeded, RetryPolicy,
                                     current_deadline, deadline_scope)

__all__ = [
    "Checkpoint", "CheckpointError", "Checkpointer",
    "model_state_arrays", "restore_model_state",
    "FaultEvent", "FaultSchedule",
    "StoreUnavailableError",
    "CircuitBreaker", "CircuitOpenError", "Deadline", "DeadlineExceeded",
    "RetryPolicy", "current_deadline", "deadline_scope",
]
