"""Serving frontend: request coalescing onto the batched lookup fast path.

The scalar serving API (`one user id in, one embedding out`) is what callers
want to write; the batched proxy/store/ANN paths are what the hardware wants
to run.  :class:`MicroBatcher` bridges the two — single-key requests are
queued and flushed as one batch when the batch fills up or a deadline
expires, so scalar callers transparently ride the vectorised path.

The whole stack (store → resilient proxy → batcher) is assembled on a
virtual clock by :class:`repro.loadtest.LoadTestHarness`, which the
``loadtest`` / ``chaos`` commands and the observability commands
(``repro trace/slo/profile/top``) replay seeded traffic through.
"""

from repro.serve.batcher import (AdmissionError, MicroBatcher, PendingResult,
                                 ShutdownError)
from repro.serve.overload import AdaptiveThrottle
from repro.serve.sharded import ShardedServingTier

__all__ = ["AdmissionError", "MicroBatcher", "PendingResult",
           "ShutdownError", "AdaptiveThrottle", "ShardedServingTier"]
