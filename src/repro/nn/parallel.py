"""Field tasks on two cores: the worker thread a training run owns.

The decoder's reconstruction is one independent batched softmax per field
(Eq. 1).  :func:`run_tasks` runs such per-field tasks inline, or — while a
:class:`FieldWorker` is installed on the calling thread — as two groups
balanced by cost, the second on the worker's thread; the two overlap inside
NumPy and BLAS, which release the interpreter lock.  :func:`defer` queues a
task the caller joins only later (the heads' gradients, when Adam reaches
them).  A task does NumPy math only.  Results are combined on the caller in
task order, so a worker run is bit-identical to an inline run, and a task's
exception is re-raised there, with its own traceback, once both groups have
finished (a deferred task's at its join).  No thread exists outside a
``with`` block: importing or forking starts or inherits none.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import cache
from time import perf_counter
from typing import Callable, Sequence

__all__ = ["FieldWorker", "defer", "field_worker", "run_tasks"]

# Per calling thread, so that two training threads never share a worker.
_scope = threading.local()


def _timed(tasks: Sequence[Callable]) -> tuple[list, float]:
    start = perf_counter()
    return [task() for task in tasks], perf_counter() - start


class FieldWorker:
    """A one-thread pool, alive for a ``with`` block, running the tasks that
    :func:`run_tasks` and :func:`defer` hand over from the thread that
    entered it.

    ``wait_s`` sums how long that thread waited for the worker after its
    own group or at a deferred task's join, ``busy_s`` how long the worker
    ran tasks (see :meth:`take_times`).
    """

    def __init__(self) -> None:
        self.wait_s = self.busy_s = 0.0

    def __enter__(self) -> "FieldWorker":
        if getattr(_scope, "worker", None) is not None:
            raise RuntimeError("a field worker is already installed on this "
                               "thread")
        self._pool = ThreadPoolExecutor(1, "repro-field-worker")
        _scope.worker = self
        return self

    def __exit__(self, *exc) -> None:
        _scope.worker = None
        self._pool.shutdown()    # joins the thread after the queued tasks

    def submit(self, tasks: Sequence[Callable]) -> Callable:
        """Queue ``tasks`` behind the earlier ones; return a join that gives
        their results or re-raises the first exception (with its traceback),
        counting the wait and the run into ``wait_s`` / ``busy_s`` once."""
        future = self._pool.submit(_timed, tasks)

        @cache
        def join() -> list:
            start = perf_counter()
            results, busy = future.result()
            self.wait_s += perf_counter() - start
            self.busy_s += busy
            return results
        return join

    def take_times(self) -> tuple[float, float]:
        """``(wait_s, busy_s)`` since the last call; resets both."""
        times = (self.wait_s, self.busy_s)
        self.wait_s = self.busy_s = 0.0
        return times


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _worker_has_a_core() -> bool:
    """Whether the process may use twice the CPUs one BLAS call runs on.

    Beside a multi-threaded BLAS, which already spreads each GEMM over every
    CPU, a worker only oversubscribes them: with BLAS's spinning helper
    threads, two callers on two CPUs stalled single steps by a scheduler
    slice (≈ 15 ms).  BLAS threads are read as OpenBLAS reads them at load:
    the first of its variables that is set, else every usable CPU.
    """
    cpus = blas = _usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return cpus >= 2 * blas


def field_worker():
    """A context owning a :class:`FieldWorker` when the worker has a core of
    its own and the calling thread has none installed; otherwise it yields
    the thread's current worker (``None``: inline), so nested training runs
    share the outermost run's worker."""
    current = getattr(_scope, "worker", None)
    if current is not None or not _worker_has_a_core():
        return nullcontext(current)
    return FieldWorker()


def run_tasks(tasks: Sequence[Callable], costs: Sequence[float]) -> list:
    """Run zero-argument ``tasks``; return their results in task order.

    With a worker installed on this thread, the tasks are split into two
    groups of about equal summed ``costs`` (largest first, each to the
    lighter group) and the worker runs the second group.
    """
    worker = getattr(_scope, "worker", None)
    groups: tuple[list[int], list[int]] = ([], [])
    loads = [0.0, 0.0]
    for i in sorted(range(len(tasks)), key=costs.__getitem__, reverse=True):
        lighter = int(loads[1] < loads[0])
        groups[lighter].append(i)
        loads[lighter] += costs[i]
    if worker is None or not groups[1]:
        return [task() for task in tasks]
    join = worker.submit([tasks[i] for i in groups[1]])
    try:
        own = [tasks[i]() for i in groups[0]]
    finally:
        other = join()   # after both groups; re-raises the worker's error
    results: list = [None] * len(tasks)
    for i, result in zip(groups[0] + groups[1], own + other):
        results[i] = result
    return results


def defer(task: Callable) -> Callable | None:
    """Queue ``task`` on this thread's worker; return a join that returns its
    result or re-raises its exception (``None`` with no worker: inline)."""
    worker = getattr(_scope, "worker", None)
    if worker is None:
        return None
    join = worker.submit([task])
    return lambda: join()[0]
