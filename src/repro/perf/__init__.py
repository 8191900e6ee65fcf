"""Performance layer: the trainer's batch loader.

:mod:`repro.perf.pipeline` holds :class:`~repro.perf.pipeline.SyncLoader`
(``dataset.batch`` per step).  Speed is measured by the repo benchmark
(``bench/run.py``), not from here.
"""
