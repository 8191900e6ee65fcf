"""Outside-in span tracing for the benchmark's traced run.

The tracer wraps the product's *public* callables (class attributes, or the
module attribute the caller resolves) with span recorders and removes them
again; the untraced run imports none of this.  A span is
``[name, start, end, parent, op, counts]``: ``parent`` is the index of the
span that was open when it started (-1 for a root), ``op`` the index of the
workload operation (step / cycle / wave / call) it belongs to.  Spans stay in
memory until :func:`write_trace` dumps them.

Self time of a span is its duration minus the duration of its direct
children; summed over all spans it equals the summed duration of the root
spans, which is what ``trace.coverage`` compares with the traced wall.

Product-internal spans (``repro.obs``) are deliberately not used: the
benchmark must keep measuring the same boundaries while the product's own
telemetry is being reworked (ROADMAP item 5).
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from statistics import median
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """In-memory span recorder plus the install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        if not self.active:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = perf_counter()  # last: own bookkeeping stays outside
        return idx

    def end(self, idx: int, counts: dict | None = None) -> None:
        now = perf_counter()
        if idx < 0:
            return
        span = self.spans[idx]
        span[END] = now
        span[COUNTS] = counts
        self._stack.pop()

    def cancel(self, idx: int) -> None:
        """Drop the newest span (an iterator that turned out to be empty)."""
        if idx >= 0:
            self._stack.pop()
            self.spans.pop()

    # -- wrappers --------------------------------------------------------------

    def _wrap_call(self, orig, name: str, counts):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            if idx < 0:
                return orig(*args, **kwargs)
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            tracer.end(idx, counts(args, out) if counts else None)
            return out

        traced.__wrapped__ = orig
        return traced

    def _wrap_iter(self, orig, name: str):
        """For a method returning an iterator: one span per ``next()``."""
        tracer = self

        def spanned(it):
            try:
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.cancel(idx)
                        return
                    tracer.end(idx)
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        def traced(*args, **kwargs):
            return spanned(orig(*args, **kwargs))

        traced.__wrapped__ = orig
        return traced

    def install(self) -> None:
        """Replace every target callable that exists with its wrapper.

        Recording starts when the caller sets :attr:`active` (the workload's
        clock does, at the start of the timed region).
        """
        for path, attr, name, counts in TARGETS:
            module_name, __, cls_name = path.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            # A later PR may delete a twin implementation; its layer then
            # simply reports zero instead of breaking the benchmark.
            if owner is None or not hasattr(owner, attr):
                continue
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
                else None
            func = raw.__func__ if kind else raw
            wrapper = (self._wrap_iter(func, name) if counts is ITERATOR
                       else self._wrap_call(func, name, counts))
            setattr(owner, attr, kind(wrapper) if kind else wrapper)
            self._patched.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        """Put every original object back; lingering wrappers go inert."""
        self.active = False
        for owner, attr, raw, own in reversed(self._patched):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patched.clear()


# -- what gets wrapped ---------------------------------------------------------
#
# Count callbacks read the *result* (and ``self``) rather than positional
# arguments wherever they can, so a call site switching to keywords does not
# break the trace.

ITERATOR = object()


def _bag_bytes(args, out):
    rows, segment = out
    return {"bytes": int(segment.size) * rows.shape[1] * rows.itemsize}


def _n_ids(args, out):
    return {"ids": int(out.size)}


def _candidates(args, out):
    return {"kept": int(out.size),
            "candidates": int(args[0].unique_features().size)}


def _rows_touched(args, out):
    return {"rows": sum(int(rows.size) for p in args[0].params
                        for rows, __ in p.sparse_grad_parts)}


def _rows_written(args, out):
    return {"rows": len(args[2])}


def _n_rows(args, out):
    return {"keys": len(out[0] if isinstance(out, tuple) else out)}


def _candidate_sizes(args, out):
    return {"sizes": [int(c.size) for c in out]}


TARGETS = [
    ("repro.perf.pipeline:SyncLoader", "epoch",
     "perf.pipeline.batch_wait", ITERATOR),
    ("repro.data.dataset:MultiFieldDataset", "batch",
     "data.dataset.batch", None),
    ("repro.hashing.dynamic_table:DynamicHashTable", "lookup_ids",
     "hashing.dynamic_table.lookup", _n_ids),
    ("repro.hashing.dynamic_table:DynamicHashTable", "rows_for_ids",
     "hashing.dynamic_table.lookup", _n_ids),
    # the one segment-sum forward both the autograd op and the inference
    # encoder go through
    ("repro.nn.functional", "embedding_bag_data",
     "nn.functional.embedding_bag", _bag_bytes),
    ("repro.core.encoder:FieldAwareEncoder", "__call__",
     "core.encoder.fwd", None),
    ("repro.core.fvae:FVAE", "encode_batch", "core.encoder.infer", None),
    ("repro.core.fvae", "select_candidates", "sampling.select", _candidates),
    ("repro.core.decoder:FieldAwareDecoder", "recon_nll",
     "core.decoder.recon_nll", None),
    ("repro.nn.functional", "sampled_softmax_nll",
     "nn.functional.sampled_softmax", None),
    ("repro.nn.tensor:Tensor", "backward", "nn.tensor.backward", None),
    ("repro.nn.optim:Adam", "step", "nn.optim.step", _rows_touched),
    ("repro.lookalike.store:EmbeddingStore", "put_many",
     "lookalike.store.put_many", _rows_written),
    ("repro.lookalike.store:EmbeddingStore", "save_snapshot",
     "lookalike.store.save_snapshot", None),
    ("repro.lookalike.store:EmbeddingStore", "load",
     "lookalike.store.load_mmap", None),
    ("repro.lookalike.store:EmbeddingStore", "get_batch",
     "lookalike.store.get_batch", _n_rows),
    ("repro.lookalike.store:EmbeddingStore", "get_many",
     "lookalike.store.get_batch", _n_rows),
    ("repro.lookalike.store:LRUCache", "get_many",
     "lookalike.store.cache_get_many", None),
    ("repro.lookalike.store:LRUCache", "put_many",
     "lookalike.store.cache_put_many", None),
    ("repro.lookalike.serving:ServingProxy", "get_embeddings_batch",
     "lookalike.serving.proxy", _n_rows),
    ("repro.serve.batcher:MicroBatcher", "submit",
     "serve.batcher.submit", None),
    ("repro.serve.batcher:MicroBatcher", "flush",
     "serve.batcher.flush", None),
    ("repro.lookalike.ann:IVFIndex", "fit", "lookalike.ann.ivf_fit", None),
    ("repro.lookalike.quant", "kmeans", "lookalike.quant.kmeans", None),
    ("repro.lookalike.ann:IVFIndex", "candidates_batch",
     "lookalike.ann.coarse_assign", _candidate_sizes),
    ("repro.lookalike.ann:IVFIndex", "query_batch",
     "lookalike.ann.query_batch", None),
]

#: Root spans, one per workload operation, are opened by the workload's clock
#: under these names (``Workload.root``).
STEP_SPAN = "core.trainer.step"   # train_kd: one optimizer step
CLIENT_SPAN = "bench.client"      # every other workload's operation
WRAPPED_NAMES = {name for __, __, name, __ in TARGETS}


# -- reading a trace -----------------------------------------------------------

def operation_spans(spans: list[list]) -> list[list]:
    """The spans inside a workload operation, re-indexed.

    Calls the benchmark makes between operations to audit the outputs are
    recorded too (the wrappers cannot tell): a wrapped call with no span
    above it.  They are left out of every metric.
    """
    new_index: dict[int, int] = {}
    kept: list[list] = []
    for idx, span in enumerate(spans):
        parent = span[PARENT]
        if parent in new_index or (
                parent < 0 and span[NAME] not in WRAPPED_NAMES):
            new_index[idx] = len(kept)
            kept.append(span[:PARENT] + [new_index.get(parent, -1)]
                        + span[PARENT + 1:])
    return kept


def summarise(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, durations, counts."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for idx, span in enumerate(spans):
        dur = span[END] - span[START]
        agg = out.setdefault(span[NAME], {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0, "durations": [],
                                          "counts": defaultdict(int)})
        agg["calls"] += 1
        agg["incl_s"] += dur
        agg["self_s"] += dur - child_time[idx]
        agg["durations"].append(dur)
        for key, value in (span[COUNTS] or {}).items():
            if not isinstance(value, list):
                agg["counts"][key] += value
    return out


def layer_metrics(spans: list[list], counters: dict, traced_wall: float,
                  untraced_op_p50: float, machine: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``.

    Times are totals per workload operation (they add up to the operation),
    counts likewise unless the name says ratio / share / mean.  A layer the
    workload never enters reports 0 — that is its bypass prediction holding.
    ``counters`` are deltas of the product's own public tallies over the
    traced window (cache hits, flush reasons, …) read by the workload.
    """
    spans = operation_spans(spans)
    by_name = summarise(spans)
    roots = [s for s in spans if s[PARENT] < 0]
    n_ops = max(1, len(roots))

    def per_op(name: str, field: str = "incl_s", scale: float = 1e3) -> float:
        agg = by_name.get(name)
        return agg[field] * scale / n_ops if agg else 0.0

    def count(name: str, key: str) -> float:
        agg = by_name.get(name)
        return agg["counts"].get(key, 0) if agg else 0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def ms(name: str) -> tuple[float, str]:
        return per_op(name), "ms"

    def us(name: str) -> tuple[float, str]:
        return per_op(name, scale=1e6), "us"

    m: dict[str, tuple[float, str]] = {}

    # training layers
    m["perf.pipeline.batch_wait_ms"] = ms("perf.pipeline.batch_wait")
    m["data.dataset.batch_ms"] = ms("data.dataset.batch")
    m["hashing.dynamic_table.lookup_ms"] = ms("hashing.dynamic_table.lookup")
    m["hashing.dynamic_table.lookups"] = (
        count("hashing.dynamic_table.lookup", "ids") / n_ops, "count")
    m["nn.functional.embedding_bag_ms"] = ms("nn.functional.embedding_bag")
    bag = by_name.get("nn.functional.embedding_bag")
    m["nn.functional.embedding_bag.calls"] = (
        (bag["calls"] if bag else 0) / n_ops, "count")
    m["nn.functional.embedding_bag.bytes_gathered"] = (
        count("nn.functional.embedding_bag", "bytes") / n_ops, "bytes")
    m["core.encoder.fwd_ms"] = ms("core.encoder.fwd")
    m["core.encoder.infer_ms"] = ms("core.encoder.infer")
    m["sampling.select_ms"] = ms("sampling.select")
    m["sampling.candidates"] = (
        count("sampling.select", "candidates") / n_ops, "count")
    m["sampling.kept_ratio"] = (
        share(count("sampling.select", "kept"),
              count("sampling.select", "candidates")), "ratio")
    m["core.decoder.recon_nll_ms"] = ms("core.decoder.recon_nll")
    m["nn.functional.sampled_softmax_ms"] = ms("nn.functional.sampled_softmax")
    softmax = by_name.get("nn.functional.sampled_softmax")
    m["nn.functional.sampled_softmax.p95_over_p50"] = (
        share(float(np.percentile(softmax["durations"], 95)),
              median(softmax["durations"])) if softmax else 0.0, "ratio")
    m["nn.tensor.backward_ms"] = ms("nn.tensor.backward")
    m["nn.optim.step_ms"] = ms("nn.optim.step")
    m["nn.optim.rows_touched"] = (
        count("nn.optim.step", "rows") / n_ops, "count")
    m["core.trainer.loop_self_ms"] = (per_op(STEP_SPAN, "self_s"), "ms")
    m["core.trainer.loss_fixed_work"] = (
        counters.get("loss_fixed_work", 0.0), "nats")

    # store / cache / proxy / batcher
    m["lookalike.store.put_many_ms"] = ms("lookalike.store.put_many")
    m["lookalike.store.rows_written"] = (
        count("lookalike.store.put_many", "rows") / n_ops, "count")
    m["lookalike.store.cow_copies"] = (counters.get("cow_copies", 0), "count")
    m["lookalike.store.save_snapshot_ms"] = ms("lookalike.store.save_snapshot")
    m["lookalike.store.load_mmap_ms"] = ms("lookalike.store.load_mmap")
    m["lookalike.store.snapshot_bytes_per_row"] = (
        counters.get("snapshot_bytes_per_row", 0.0), "bytes")
    m["lookalike.store.get_batch_us"] = us("lookalike.store.get_batch")
    m["lookalike.store.cache_get_many_us"] = us("lookalike.store.cache_get_many")
    m["lookalike.store.cache_put_many_us"] = us("lookalike.store.cache_put_many")
    hits, misses = counters.get("cache_hits", 0), counters.get("cache_misses", 0)
    m["lookalike.store.cache_hit_ratio"] = (share(hits, hits + misses), "ratio")
    m["lookalike.store.cache_evictions"] = (
        counters.get("cache_evictions", 0) / n_ops, "count")
    m["lookalike.serving.proxy_self_us"] = (
        per_op("lookalike.serving.proxy", "self_s", 1e6), "us")
    sources = counters.get("sources", {})
    resolved = sum(sources.values())
    for source in ("cache", "store", "stale", "default"):
        m[f"lookalike.serving.source_share.{source}"] = (
            share(sources.get(source, 0), resolved), "ratio")
    m["serve.batcher.submit_us"] = (
        per_op("serve.batcher.submit", "self_s", 1e6), "us")
    m["serve.batcher.queue_wait_us"] = (_queue_wait_us(spans), "us")
    flushes = counters.get("flushes", {})
    m["serve.batcher.flush_size_mean"] = (
        share(count("lookalike.serving.proxy", "keys"), sum(flushes.values()))
        if flushes else 0.0, "count")
    for reason in ("size", "deadline", "manual", "sync"):
        m[f"serve.batcher.flushes.{reason}"] = (flushes.get(reason, 0), "count")
    m["serve.batcher.shed"] = (counters.get("shed", 0), "count")

    # index
    m["lookalike.ann.ivf_fit_ms"] = ms("lookalike.ann.ivf_fit")
    m["lookalike.quant.kmeans_ms"] = ms("lookalike.quant.kmeans")
    m["lookalike.ann.coarse_assign_ms"] = ms("lookalike.ann.coarse_assign")
    sizes = [size for s in spans if s[NAME] == "lookalike.ann.coarse_assign"
             for size in s[COUNTS]["sizes"]]
    m["lookalike.ann.candidates_per_query"] = (
        share(sum(sizes), len(sizes)), "count")
    m["lookalike.ann.rescore_topk_ms"] = (
        per_op("lookalike.ann.query_batch", "self_s"), "ms")
    m["lookalike.ann.exact_fallbacks"] = (
        sum(size < counters["top_k"] for size in sizes)
        if "top_k" in counters else 0, "count")
    m["lookalike.ann.recall_at_100"] = (counters.get("recall", 0.0), "ratio")

    # the box, the client loop and the trace itself
    for name, (value, unit) in machine.items():
        m[name] = (value, unit)
    m["bench.client_self_ms"] = (per_op(CLIENT_SPAN, "self_s"), "ms")
    root_s = sum(s[END] - s[START] for s in roots)
    m["trace.ops"] = (len(roots), "count")
    m["trace.coverage"] = (share(root_s, traced_wall), "ratio")
    traced_p50 = median(s[END] - s[START] for s in roots) if roots else 0.0
    m["trace.overhead_share"] = (
        traced_p50 / untraced_op_p50 - 1.0 if untraced_op_p50 else 0.0,
        "ratio")
    return m


def _queue_wait_us(spans: list[list]) -> float:
    """Mean time a request sat in the batcher: submit start → flush_fn start."""
    waits: list[float] = []
    pending: list[float] = []
    for span in spans:
        if span[NAME] == "serve.batcher.submit":
            pending.append(span[START])
        elif span[NAME] == "lookalike.serving.proxy" and pending:
            waits.extend(span[START] - t for t in pending)
            pending = []
    return 1e6 * sum(waits) / len(waits) if waits else 0.0


def write_trace(path, workload: str, seed: int, spans: list[list],
                counters: dict, metrics: dict) -> None:
    """Dump the raw spans plus the per-name summary for offline reading."""
    summary = {
        name: {"calls": agg["calls"], "incl_s": agg["incl_s"],
               "self_s": agg["self_s"], "counts": dict(agg["counts"])}
        for name, agg in summarise(operation_spans(spans)).items()}
    with open(path, "w") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "span_fields": ["name", "start", "end", "parent", "op", "counts"],
            "summary": summary, "counters": counters,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "spans": spans,
        }, fh)
