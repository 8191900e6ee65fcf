"""Real multi-process sharded parameter server.

Unlike :mod:`repro.distributed.simulator` (an analytic cost model), this
package runs *actual* worker processes: parameter rows are hash-sharded
across ``multiprocessing`` workers backed by named shared-memory slabs.  The
multiprocess test harness pins it to the single-process ``Trainer``.
"""

from repro.distributed.sharded import shm
from repro.distributed.sharded.layout import FieldLayout, build_field_layout
from repro.distributed.sharded.shm import (SHM_PREFIX, Slab, active_segments,
                                           create)
from repro.distributed.sharded.trainer import ShardedTrainer, WorkerDiedError

__all__ = ["FieldLayout", "build_field_layout", "SHM_PREFIX", "Slab",
           "active_segments", "create", "ShardedTrainer", "WorkerDiedError",
           "shm"]
