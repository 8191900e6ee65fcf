"""The five benchmark workloads: train → publish → serve (hot, churn) → recall.

Each workload is a closed loop driven by one client thread.  ``setup(seed)``
builds every input from the seed (the product receives only generated
inputs), ``run(state, clock)`` repeats the workload's operation until the
clock's deadline, and ``verify(state, result)`` checks the outputs.  The
product is called through its public entry points with default options, so
the benchmark measures whichever implementation is the default and freezes
no flag name.

Sizes are chosen for the harness contract (a 20 s timed region, three or
more set-ups per run) and for this box: each set-up takes a second or less,
each run yields at least ~100 operations, which is what a p90 needs, and the
working sets are small, because what the shared host varies is the memory
system (see bench/README.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import FVAE, FVAEConfig, make_kd_like
from repro.lookalike.ann import IVFIndex, exact_top_k
from repro.lookalike.serving import ServingProxy, ServingResilience
from repro.lookalike.store import EmbeddingStore
from repro.obs.callbacks import TrainerCallback
from repro.serve.batcher import MicroBatcher

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "results" / "reference.json"

DIM = 64


@dataclass
class Result:
    """What one timed region produced."""

    durations: list[float] = field(default_factory=list)  # seconds per op
    items: list[int] = field(default_factory=list)  # users / keys / queries
    rss_mb: list[float] = field(default_factory=list)  # sampled between ops
    pre_s: float = 0.0        # untimed warm-up inside run(), added to set-up
    attempted: int = 0        # operations plus output checks
    failed: int = 0
    counters: dict = field(default_factory=dict)  # traced window only
    traced_ops: int = 0       # operations that ran under the tracer
    traced_wall: float = 0.0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


RSS_EVERY = 0.25   # seconds between resident-set samples
TRACED_SHARE = 0.75  # of the timed region, at most; the rest runs untraced
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def resident_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MB


class OpClock:
    """Deadline, per-operation timing and the traced → untraced switch.

    In a traced run the first ``traced_ops`` operations (a fixed number, so
    that every count repeats exactly for a seed) each get a root span; then
    the wrappers are removed and the loop continues untraced, which gives
    the tracing overhead from one process on one input stream.
    """

    def __init__(self, seconds: float, tracer=None, traced_ops: int = 0,
                 root: str = "bench.client") -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.traced_ops = traced_ops if tracer is not None else 0
        self.root = root
        self.result = Result()
        self.n = 0
        self.on_switch = None  # called once when tracing is removed
        self._root_idx = -1
        self._next_rss = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.active = True
        self.t0 = perf_counter()
        self.deadline = self.t0 + self.seconds

    def begin(self) -> bool:
        now = perf_counter()
        if now >= self.deadline:
            self._finish(now)
            return False
        tracer = self.tracer
        if tracer is not None and tracer.active:
            if self.n >= self.traced_ops \
                    or now - self.t0 > TRACED_SHARE * self.seconds:
                self._stop_tracing(now)
            else:
                tracer.op = self.n
                self._root_idx = tracer.begin(self.root)
        self._t = perf_counter()
        return True

    def end(self, items: int) -> None:
        now = perf_counter()
        if self._root_idx >= 0:
            self.tracer.end(self._root_idx)
            self._root_idx = -1
        self.result.durations.append(now - self._t)
        self.result.items.append(items)
        self.n += 1
        if now >= self._next_rss:
            self.result.rss_mb.append(resident_mb())
            self._next_rss = now + RSS_EVERY

    def _stop_tracing(self, now: float) -> None:
        self.result.traced_ops = self.n
        self.result.traced_wall = now - self.t0
        if self.on_switch is not None:
            self.on_switch()
        self.tracer.uninstall()

    def _finish(self, now: float) -> None:
        if self.tracer is not None and self.tracer.active:
            self._stop_tracing(now)
        self.result.attempted += self.n


def _reference(workload: str, seed: int):
    """Committed per-seed value of a deterministic output, if there is one."""
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


# -- train_kd ------------------------------------------------------------------

TRAIN_USERS = 8192      # 32 full batches: every step trains exactly 256 users
TRAIN_BATCH = 256
TRAIN_WARMUP = 8        # untimed steps: Adam allocates its moments on step 1
TRAIN_FIXED = 32        # steps whose mean loss must repeat exactly for a seed


class _Stop(Exception):
    """Raised from the step callback to end ``fit`` at the deadline."""


class _StepClock(TrainerCallback):
    """Turns ``on_batch_end`` into the operation boundary of the clock."""

    def __init__(self, clock: OpClock) -> None:
        self.clock = clock
        self.seen = 0
        self.losses: list[float] = []

    def on_batch_end(self, trainer, epoch, step, loss, diagnostics) -> None:
        self.seen += 1
        if self.seen < TRAIN_WARMUP:
            return
        if self.seen > TRAIN_WARMUP:
            self.clock.end(TRAIN_BATCH)
            self.losses.append(loss)
        else:
            self.clock.start()
        if not self.clock.begin():
            raise _Stop


def train_setup(seed: int) -> dict:
    dataset = make_kd_like(n_users=TRAIN_USERS, seed=seed).dataset
    return {"dataset": dataset, "seed": seed,
            "model": FVAE(dataset.schema, FVAEConfig(seed=seed))}


def train_run(state: dict, clock: OpClock) -> Result:
    steps = _StepClock(clock)
    began = perf_counter()
    try:
        state["model"].fit(state["dataset"], epochs=10 ** 6,
                           batch_size=TRAIN_BATCH, lr=1e-3, callbacks=[steps])
    except _Stop:
        pass
    result = clock.result
    result.pre_s = clock.t0 - began
    state["losses"] = steps.losses
    fixed = steps.losses[:TRAIN_FIXED]
    result.counters["loss_fixed_work"] = float(np.mean(fixed)) if fixed else 0.0
    return result


def train_verify(state: dict, result: Result) -> None:
    losses = np.asarray(state["losses"])
    result.check(bool(np.isfinite(losses).all()), "non-finite training loss")
    if losses.size >= 2 * TRAIN_FIXED:
        quarter = losses.size // 4
        result.check(losses[-quarter:].mean() < losses[:quarter].mean(),
                     "training loss did not decrease")
    expected = _reference("train_kd", state["seed"])
    if expected is not None and losses.size >= TRAIN_FIXED:
        got = result.counters["loss_fixed_work"]
        result.check(abs(got - expected) <= 1e-6 * abs(expected),
                     f"loss after {TRAIN_FIXED} steps {got!r} != "
                     f"reference {expected!r}")


# -- publish_kd ----------------------------------------------------------------

PUBLISH_FIT_USERS = 1024    # short set-up fit: 4 steps, fills the hash tables
PUBLISH_USERS = 2048        # one refresh cycle: one inference batch of the default size


def publish_setup(seed: int) -> dict:
    train = make_kd_like(n_users=PUBLISH_FIT_USERS, seed=seed).dataset
    model = FVAE(train.schema, FVAEConfig(seed=seed))
    model.fit(train, epochs=1, batch_size=TRAIN_BATCH, lr=1e-3)
    OUT_DIR.mkdir(exist_ok=True)
    return {"model": model,
            "dataset": make_kd_like(n_users=PUBLISH_USERS,
                                    seed=seed + 1).dataset,
            "path": OUT_DIR / f"publish_{os.getpid()}.npz"}


def publish_run(state: dict, clock: OpClock) -> Result:
    model, dataset, path = state["model"], state["dataset"], state["path"]
    keys = list(range(dataset.n_users))
    result = clock.result
    first = None
    clock.start()
    while clock.begin():
        emb = model.embed_users(dataset)
        store = EmbeddingStore(DIM)
        store.put_many(keys, emb)
        store.save_snapshot(path)
        loaded = EmbeddingStore.load(path, mmap=True)
        loaded_keys, matrix = loaded.as_matrix()
        index = IVFIndex(DIM).fit(matrix)
        clock.end(dataset.n_users)
        if first is None:
            first = emb
            result.check(bool(np.isfinite(emb).all()), "non-finite embedding")
            result.counters["snapshot_bytes_per_row"] = \
                path.stat().st_size / dataset.n_users
        result.check(np.array_equal(emb, first),
                     "embed_users differs between cycles")
        result.check(loaded.is_mapped and loaded_keys == keys
                     and np.array_equal(matrix, emb)
                     and index.size == dataset.n_users,
                     "mmap-loaded store differs from what was written")
    path.unlink(missing_ok=True)
    return result


# -- serve_hot / serve_churn ---------------------------------------------------

SERVE_USERS = 20_000
CACHE_CAPACITY = 2_000
WAVE = 64                   # single-key requests per wave == batcher max_batch
HOT_WAVES = 4_096           # key pool; the loop wraps around if it runs dry
CHURN_BATCH = 256
CHURN_BATCHES = 1_024
CHURN_WRITE_EVERY = 20
CHURN_UNKNOWN_SHARE = 0.01
AUDIT_EVERY = 64            # ≈1 % of operations are checked against truth


def _serve_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((SERVE_USERS, DIM))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"serve_{os.getpid()}.npz"
    store = EmbeddingStore(DIM)
    store.put_many(range(SERVE_USERS), base)
    store.save_snapshot(path)
    loaded = EmbeddingStore.load(path, mmap=True)
    path.unlink()   # the mapping keeps the data; nothing is left on disk
    return {"rng": rng, "base": base, "store": loaded}


def hot_setup(seed: int) -> dict:
    state = _serve_setup(seed)
    rng = state["rng"]
    # bounded Zipf(1.1) by inverse CDF, spread over the key space by a seeded
    # permutation so that popularity is unrelated to row order
    cdf = np.cumsum(np.arange(1, SERVE_USERS + 1) ** -1.1)
    ranks = np.searchsorted(cdf, rng.random(HOT_WAVES * WAVE) * cdf[-1])
    state["keys"] = rng.permutation(SERVE_USERS)[ranks].tolist()
    return state


def _proxy(state: dict) -> ServingProxy:
    return ServingProxy(state["store"], cache_capacity=CACHE_CAPACITY,
                        resilience=ServingResilience())


def _serve_counters(result: Result, proxy: ServingProxy, extra: dict) -> None:
    """Snapshot the product's own tallies at the end of the traced window."""
    cache = proxy.cache
    result.counters.update(
        cache_hits=cache.hits, cache_misses=cache.misses,
        cache_evictions=cache.evictions,
        sources=dict(proxy.source_counts), **extra)


def hot_run(state: dict, clock: OpClock) -> Result:
    base, keys = state["base"], state["keys"]
    proxy = _proxy(state)
    batcher = MicroBatcher(proxy.get_embeddings_batch, max_batch=WAVE)
    result = clock.result
    clock.on_switch = lambda: _serve_counters(
        result, proxy, {"flushes": dict(batcher.flush_reasons),
                        "shed": batcher.shed})
    pos = 0
    clock.start()
    while clock.begin():
        wave = keys[pos:pos + WAVE]
        submit = batcher.submit
        pending = [submit(key) for key in wave]
        batcher.flush()
        rows = [p.result() for p in pending]
        clock.end(WAVE)
        if clock.n % AUDIT_EVERY == 0:
            result.check(np.array_equal(np.stack(rows), base[wave]),
                         "served row differs from the stored row")
        pos = (pos + WAVE) % len(keys)
    requested = clock.n * WAVE
    result.check(sum(proxy.source_counts.values()) == requested
                 and batcher.shed == 0,
                 "per-source counts do not add up to the keys requested")
    return result


def churn_setup(seed: int) -> dict:
    state = _serve_setup(seed)
    rng = state["rng"]
    reads = rng.integers(0, SERVE_USERS, (CHURN_BATCHES, CHURN_BATCH))
    unknown = rng.random(reads.shape) < CHURN_UNKNOWN_SHARE
    reads[unknown] += SERVE_USERS
    state["reads"] = reads.tolist()
    state["writes"] = rng.integers(0, SERVE_USERS,
                                   (CHURN_BATCHES, CHURN_BATCH))
    return state


def churn_run(state: dict, clock: OpClock) -> Result:
    base, store = state["base"], state["store"]
    reads, writes = state["reads"], state["writes"]
    proxy = _proxy(state)
    version = np.zeros(SERVE_USERS, dtype=np.int64)
    result = clock.result
    was_mapped = store.is_mapped
    clock.on_switch = lambda: _serve_counters(
        result, proxy, {"cow_copies": int(was_mapped and not store.is_mapped)})
    lookups = 0
    clock.start()
    while True:
        slot = clock.n % CHURN_BATCHES
        if clock.n % CHURN_WRITE_EVERY == CHURN_WRITE_EVERY - 1:
            # refreshed row = base row + its version number, so a reader can
            # tell which version it was served
            keys = np.unique(writes[slot])
            version[keys] += 1
            rows = base[keys] + version[keys, None]
            keys = keys.tolist()
            if not clock.begin():
                break
            store.put_many(keys, rows)
            clock.end(0)
            if clock.n % AUDIT_EVERY == 0:
                back, found = store.get_batch(keys)
                result.check(bool(found.all()) and np.array_equal(back, rows),
                             "row read back differs from the row written")
            continue
        keys = reads[slot]
        if not clock.begin():
            break
        got = proxy.get_embeddings_batch(keys)
        clock.end(len(keys))
        lookups += len(keys)
        if clock.n % AUDIT_EVERY == 1:
            result.check(_churn_rows_ok(got, np.asarray(keys), base, version),
                         "served row is no version ever written for its key")
    result.check(sum(proxy.source_counts.values()) == lookups,
                 "per-source counts do not add up to the keys requested")
    return result


def _churn_rows_ok(got: np.ndarray, keys: np.ndarray, base: np.ndarray,
                   version: np.ndarray) -> bool:
    """Known keys: some version written so far (the cache may lag the store,
    the proxy has no invalidation); unknown keys: the default embedding."""
    if got.shape != (keys.size, DIM) or got.dtype != np.float64:
        return False
    known = keys < SERVE_USERS
    if np.any(got[~known] != 0.0):
        return False
    rows, ids = got[known], keys[known]
    served = np.rint(rows[:, 0] - base[ids, 0])
    return bool(np.all((served >= 0) & (served <= version[ids]))
                and np.array_equal(rows, base[ids] + served[:, None]))


# -- recall_ivf ----------------------------------------------------------------

RECALL_USERS = 20_000
RECALL_CENTRES = 256
RECALL_CENTRE_SCALE = 1.1    # overlapping mixture: recall@100 ≈ 0.93, unsaturated
RECALL_QUERIES = 128
RECALL_POOL = 4              # query batches, cycled
TOP_K = 100
RECALL_FLOOR = 0.90


def recall_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((RECALL_CENTRES, DIM)) * RECALL_CENTRE_SCALE

    def sample(n: int) -> np.ndarray:
        return (centres[rng.integers(0, RECALL_CENTRES, n)]
                + rng.standard_normal((n, DIM)))

    vectors = sample(RECALL_USERS)
    return {"seed": seed, "vectors": vectors,
            "queries": [sample(RECALL_QUERIES) for __ in range(RECALL_POOL)],
            "index": IVFIndex(DIM, n_lists=128, nprobe=16).fit(vectors)}


def recall_run(state: dict, clock: OpClock) -> Result:
    index, pool = state["index"], state["queries"]
    result = clock.result
    result.counters["top_k"] = TOP_K
    answers: list[list[np.ndarray]] = []
    clock.start()
    while clock.begin():
        found = index.query_batch(pool[clock.n % RECALL_POOL], TOP_K)
        clock.end(RECALL_QUERIES)
        if len(answers) < RECALL_POOL:
            answers.append(found)
    state["answers"] = answers
    return result


def recall_verify(state: dict, result: Result) -> None:
    hits = total = 0
    for queries, found in zip(state["queries"], state["answers"]):
        exact = exact_top_k(state["vectors"], queries, TOP_K)
        result.check(all(f.shape == (TOP_K,) for f in found),
                     "query_batch returned fewer than k neighbours")
        hits += sum(int(np.isin(exact[q], found[q]).sum())
                    for q in range(len(found)))
        total += exact.size
    recall = hits / total if total else 0.0
    result.counters["recall"] = recall
    result.check(recall >= RECALL_FLOOR,
                 f"recall@{TOP_K} {recall:.4f} below {RECALL_FLOOR}")
    expected = _reference("recall_ivf", state["seed"])
    if expected is not None and len(state["answers"]) == RECALL_POOL:
        result.check(recall == expected,
                     f"recall@{TOP_K} {recall!r} != reference {expected!r}")


# -- registry ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    verify: object = None
    traced_ops: int = 0        # fixed, so traced counts repeat exactly
    root: str = "bench.client"


WORKLOADS = {
    "train_kd": Workload(train_setup, train_run, train_verify, traced_ops=48,
                         root="core.trainer.step"),
    "publish_kd": Workload(publish_setup, publish_run, traced_ops=16),
    "serve_hot": Workload(hot_setup, hot_run, traced_ops=2048),
    "serve_churn": Workload(churn_setup, churn_run, traced_ops=2000),
    "recall_ivf": Workload(recall_setup, recall_run, recall_verify,
                           traced_ops=32),
}
