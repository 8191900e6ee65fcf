"""Performance layer: prefetching batch pipeline + benchmark harness.

``repro.perf`` holds the machinery that keeps the hot path honest:

* :mod:`repro.perf.pipeline` — batch loaders for the trainer.
  :class:`SyncLoader` reproduces the classic in-loop ``dataset.batch`` call;
  :class:`PrefetchLoader` prepares the next batch (CSR slicing, segment and
  candidate caches) on a background thread while the current batch computes —
  NumPy releases the GIL inside matmul, so the overlap is real.  Both yield
  **bit-identical** batches in the same order.
* :mod:`repro.perf.bench` — the ``python -m repro bench --suite ...``
  microbenchmark runner producing ``benchmarks/results/BENCH_*.json``
  reports (training throughput lives in the repo benchmark, ``bench/``).
* :mod:`repro.perf.bench_serving` — the ``--suite serving`` stages: batched
  store/proxy/LSH lookups vs their scalar loops, inference-mode encoder
  forward, and mmap vs eager snapshot cold starts.
"""

from repro.perf.bench import run_bench
from repro.perf.pipeline import BatchLoader, PrefetchLoader, SyncLoader

__all__ = ["BatchLoader", "SyncLoader", "PrefetchLoader", "run_bench"]
