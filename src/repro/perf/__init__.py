"""Performance layer: the trainer's batch loader.

:mod:`repro.perf.pipeline` holds the loader protocol and its one
implementation, :class:`SyncLoader` (``dataset.batch`` per step).  Speed is
measured by the repo benchmark (``bench/run.py``), not from here.
"""

from repro.perf.pipeline import BatchLoader, SyncLoader

__all__ = ["BatchLoader", "SyncLoader"]
