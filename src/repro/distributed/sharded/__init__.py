"""Real multi-process sharded parameter server + embedding service.

Unlike :mod:`repro.distributed.simulator` (an analytic cost model), this
package runs *actual* worker processes: parameter rows are hash-sharded
across ``multiprocessing`` workers backed by named shared-memory slabs, and
the serving tier fronts a pool of shard-server processes with zero-IPC
reads.  The multiprocess test harness pins the whole thing to the
single-process reference implementation.
"""

from repro.distributed.sharded import shm
from repro.distributed.sharded.layout import FieldLayout, build_field_layout
from repro.distributed.sharded.service import ShardedEmbeddingService
from repro.distributed.sharded.shm import (SHM_PREFIX, Slab, active_segments,
                                           attach, create)
from repro.distributed.sharded.trainer import ShardedTrainer, WorkerDiedError

__all__ = ["FieldLayout", "build_field_layout", "ShardedEmbeddingService",
           "SHM_PREFIX", "Slab", "active_segments", "attach", "create",
           "ShardedTrainer", "WorkerDiedError", "shm"]
