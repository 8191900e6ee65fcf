"""Performance layer: the trainer's batch loader + benchmark harness.

``repro.perf`` holds the machinery that keeps the hot path honest:

* :mod:`repro.perf.pipeline` — the trainer's batch loader protocol and its
  one implementation, :class:`SyncLoader` (``dataset.batch`` per step).
* :mod:`repro.perf.bench` — the ``python -m repro bench --suite ...``
  microbenchmark runner producing ``benchmarks/results/BENCH_*.json``
  reports (training throughput lives in the repo benchmark, ``bench/``).
* :mod:`repro.perf.bench_serving` — the ``--suite serving`` stages: batched
  store/proxy/LSH lookups vs their scalar loops, inference-mode encoder
  forward, and mmap vs eager snapshot cold starts.
"""

from repro.perf.bench import run_bench
from repro.perf.pipeline import BatchLoader, SyncLoader

__all__ = ["BatchLoader", "SyncLoader", "run_bench"]
