"""CI gate on observability overhead: instrumented vs uninstrumented serving.

Usage::

    python scripts/obs_overhead_check.py [--users 10000] [--repeats 60] \
        [--tolerance 0.05] [--trace-out trace.json]

The telemetry runtime promises a no-op fast path: serving code is littered
with ``obs.span``/``obs.count``/``obs.latency`` calls, and when no session
is installed each costs one module-global check.  When a session *is*
installed, the per-call cost is real (~0.5-1.5us of pure Python), which is
why the serving fast path instruments per *batch*, never per key — one
latency observation and a handful of counters amortized over the whole
vectorised lookup.

This script measures that promise on the batched serving and recall paths,
with a live telemetry session against no session at all:

* ``proxy_get_embeddings_batch`` — 10k warm-cache users in one call,
  **gated** at ``--tolerance``.
* ``ivf_query_batch`` — a batch of top-10 look-alike queries through the IVF
  index (``IVFIndex.query_batch``), **gated**.
* ``proxy_get_scalar_loop`` — the per-key path, a batch of one per call.
  Its per-call metrics put telemetry in the same order of magnitude as the
  lookup itself, so it is **reported, not gated**; the batch fast path is
  the production path (see docs/OBSERVABILITY.md for the policy and
  measured numbers).

Each round times plain / instrumented / plain back to back; the gate
compares fast-quartile means and the two plain streams double as an A/A
control whose apparent difference — pure measurement noise by construction
— widens the budget.  Single rounds on shared CI boxes are far too noisy
for a 5% bound.

The second half exercises the full per-request tracing stack: a seeded
``steady`` loadtest replay (micro-batcher, resilient proxy, 20% injected
store failures, on the virtual clock) is exported with ``dump_chrome`` and
validated against the Chrome trace-event schema with ``validate_chrome`` —
a malformed export fails CI even though chrome://tracing would just
silently drop the events.  Because the replay is deterministic, the export
must also hold at least one error trace and one fan-in ``batcher.flush``
span (one flush shared by several request traces).

Exit code 0 on pass, 1 on overhead regression or invalid export (messages
on stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from repro import obs
from repro.lookalike import EmbeddingStore, IVFIndex, ServingProxy
from repro.loadtest import ServingFaultSchedule, run_loadtest


def build_ops(users: int, dim: int = 16, seed: int = 7):
    """The timed ops as closures, warmed and ready to time."""
    rng = np.random.default_rng(seed)
    keys = [f"u{i}" for i in range(users)]
    store = EmbeddingStore(dim=dim)
    store.put_many(keys, rng.normal(size=(users, dim)))
    proxy = ServingProxy(store, cache_capacity=users)
    proxy.get_embeddings_batch(keys)            # warm the cache
    for key in keys[:64]:
        proxy.get_embedding(key)

    n_vectors = max(users // 5, 256)
    vectors = rng.normal(size=(n_vectors, dim))
    index = IVFIndex(dim, n_lists=32, nprobe=4, seed=0).fit(vectors)
    queries = vectors[:200] + rng.normal(0, 0.05, size=(200, dim))
    index.query_batch(queries, 10)              # warm the index path

    scalar_keys = keys[:min(users, 2000)]
    return [
        ("proxy_get_embeddings_batch", True,
         lambda: proxy.get_embeddings_batch(keys)),
        ("ivf_query_batch", True,
         lambda: index.query_batch(queries, 10)),
        ("proxy_get_scalar_loop", False,
         lambda: [proxy.get_embedding(k) for k in scalar_keys]),
    ]


def _fast_quartile_mean(samples: list[float]) -> float:
    """Mean of the fastest quartile: robust against the slow-regime tail a
    shared box mixes in (frequency scaling, noisy neighbours), while a bare
    minimum is itself an outlier (one lucky timer glitch decides the gate)."""
    samples = sorted(samples)
    k = max(1, len(samples) // 4)
    return sum(samples[:k]) / k


def measure(ops, rounds: int) -> list[tuple[str, bool, float, float, float]]:
    """Sandwiched A/B/A rounds; returns (op, gated, plain, inst, noise).

    Each round times plain / instrumented / plain back to back, so regime
    drift lands symmetrically on both sides of the comparison.  The two
    plain streams double as an A/A control: identical code, so any apparent
    difference between them is pure measurement noise, and the gate grants
    that much extra headroom on top of ``--tolerance``.
    """
    telemetry = obs.Telemetry()  # shared across rounds: building a fresh
    results = []                 # session per round would feed GC churn
    for name, gated, fn in ops:  # into the timed regions
        fn()  # warm this op right before its timed rounds
        with obs.session(telemetry):
            fn()  # create the instruments so steady-state cost is measured
        before, instrumented, after = [], [], []
        gc.disable()  # collector pauses land on random rounds otherwise
        try:
            for __ in range(rounds):
                start = time.perf_counter()
                fn()
                before.append(time.perf_counter() - start)
                with obs.session(telemetry):
                    start = time.perf_counter()
                    fn()
                    instrumented.append(time.perf_counter() - start)
                start = time.perf_counter()
                fn()
                after.append(time.perf_counter() - start)
        finally:
            gc.enable()
        a = _fast_quartile_mean(before)
        b = _fast_quartile_mean(after)
        inst = _fast_quartile_mean(instrumented)
        results.append((name, gated, (a + b) / 2, inst, abs(a / b - 1.0)))
    return results


def check_chrome_export(path: str) -> list[str]:
    """Replay a traced workload, export it, and validate the document."""
    # 10 s at 100 rps: at seed 7 a 2 s replay exhausts no store retry, so
    # its export would hold no error trace
    with obs.session() as telemetry:
        run_loadtest(duration=10.0, seed=7,
                     schedule=ServingFaultSchedule(failure_rate=0.2))
    store = telemetry.traces
    traces = store.traces() + store.error_traces() + store.slowest_traces()
    exported = obs.dump_chrome(traces, path)
    print(f"chrome export: {exported} events from {store.finished} requests "
          f"({len(store.error_traces())} error traces) -> {path}")
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    problems = obs.validate_chrome(doc)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    if not any(e["args"]["status"] == "error" for e in spans):
        problems.append("no error trace in the export")
    flush_traces: dict[str, set] = {}
    for e in spans:
        if e["name"] == "batcher.flush":
            flush_traces.setdefault(e["args"]["span_id"], set()).add(
                e["args"]["trace_id"])
    if not any(len(ids) > 1 for ids in flush_traces.values()):
        problems.append("no fan-in batcher.flush span in the export")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=10_000,
                        help="warm-cache users in the proxy batch")
    parser.add_argument("--repeats", type=int, default=60,
                        help="A/B/A rounds; the gate compares "
                             "fast-quartile means")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="max fractional slowdown on gated ops "
                             "(0.05 = 5%%)")
    parser.add_argument("--trace-out", default="obs-overhead-trace.json",
                        help="path for the validated Chrome trace export")
    args = parser.parse_args(argv)

    failures = []
    for name, gated, plain, inst, noise in measure(build_ops(args.users),
                                                   args.repeats):
        overhead = inst / plain - 1.0
        tag = "gated" if gated else "info "
        print(f"[{tag}] {name}: uninstrumented {plain * 1e3:.2f}ms, "
              f"instrumented {inst * 1e3:.2f}ms "
              f"(fast-quartile mean of {args.repeats} A/B/A rounds, "
              f"A/A noise {noise * 100:.2f}%) "
              f"-> overhead {overhead * 100:+.2f}%")
        if gated and overhead > args.tolerance + noise:
            failures.append(
                f"{name}: telemetry overhead {overhead * 100:.2f}% exceeds "
                f"the {args.tolerance * 100:.0f}% budget "
                f"(+ {noise * 100:.2f}% measured noise floor)")

    problems = check_chrome_export(args.trace_out)
    failures.extend(f"chrome export: {p}" for p in problems)

    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("obs overhead check: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
