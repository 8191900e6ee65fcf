"""Distributed training: the analytic speedup simulator and the real thing.

``repro.distributed.simulator`` predicts multi-worker scaling from single
worker measurements (Fig 10); :mod:`repro.distributed.sharded` actually runs
it — a multi-process sharded parameter server plus a sharded embedding
service, pinned against the single-process reference by the multiprocess
test harness, and ``python -m repro faults`` measures its crash recovery.
"""

from repro.distributed.sharded import (ShardedEmbeddingService,
                                       ShardedTrainer, WorkerDiedError)
from repro.distributed.simulator import (CommunicationModel,
                                         DistributedTrainingSimulator,
                                         WorkerMeasurement)

__all__ = ["CommunicationModel", "DistributedTrainingSimulator",
           "WorkerMeasurement", "ShardedEmbeddingService", "ShardedTrainer",
           "WorkerDiedError"]
