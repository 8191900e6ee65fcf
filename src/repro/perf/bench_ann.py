"""ANN + quantization benchmarks: ``python -m repro bench --suite ann``.

Measures the two claims the quantized serving tier makes (ROADMAP item 1,
after FastVAE):

* **memory** — a :class:`~repro.lookalike.quant.QuantizedEmbeddingStore`
  holds the same logical matrix in a fraction of the float64 bytes
  (``ann_int8_memory_reduction`` / ``ann_pq_memory_reduction``, gated at
  4x / 8x) while keeping exact-scan recall@100 against the float64 ground
  truth (``ann_*_recall_at_100``, int8 gated at 0.95);
* **retrieval** — the recall@k-vs-QPS tradeoff curve: exact scan, LSH at
  several table/bit settings, IVF over an ``nprobe`` sweep, one record per
  operating point (``ann_curve_*``), plus the matched-candidate-budget
  comparison ``ann_ivf_vs_lsh_recall`` (IVF must reach at-least-LSH recall
  when both examine a similar number of candidates; gated at 1.0).

Also records the quantized-snapshot cold start (mmap vs eager, the PR-5
pattern on uint8 codes) and the codebook-sampler ablation (cell coverage of
kept negatives vs the uniform sampler — the FastVAE training-side idea,
off by default in training).

Recall and memory ratios are deterministic given the seed and workload
size; QPS is machine-dependent and recorded for the curve but never gated.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

__all__ = ["ann_stages"]


def _time_op(fn, repeats, warmup=2):
    from repro.perf.bench import _time_op as timer
    return timer(fn, repeats, warmup=warmup)


def _clustered(rng: np.random.Generator, n: int, dim: int,
               n_clusters: int = 32, spread: float = 0.35) -> np.ndarray:
    """Gaussian-mixture embeddings: the shape real user embeddings take."""
    centers = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, size=n)
    return centers[assign] + rng.normal(scale=spread, size=(n, dim))


def _recall(approx: list[np.ndarray], exact: np.ndarray) -> float:
    hits = sum(np.isin(exact[q], approx[q]).sum()
               for q in range(exact.shape[0]))
    return float(hits / exact.size)


def bench_quant_memory(rng: np.random.Generator, n: int, dim: int,
                       k: int, n_queries: int) -> list[dict]:
    """Memory reduction + exact-scan recall of the quantized stores."""
    from repro.lookalike import QuantizedEmbeddingStore, exact_top_k

    matrix = _clustered(rng, n, dim)
    queries = _clustered(rng, n_queries, dim)
    float_bytes = matrix.nbytes
    truth = exact_top_k(matrix, queries, k)

    # The gated PQ configuration is residual-coded (coarse centroid + PQ of
    # the residual): one extra byte per vector buys back most of the recall
    # plain PQ gives up.  The plain (non-residual) configuration is
    # recorded too, ungated, for honesty.
    configs = [
        ("int8", {}),
        ("pq", {"n_subvectors": 32, "n_coarse": 64}),
        ("pq_plain", {"n_subvectors": 8}),
    ]
    results: list[dict] = []
    for label, kwargs in configs:
        mode = "pq" if label.startswith("pq") else label
        store = QuantizedEmbeddingStore(dim, mode=mode, seed=0, **kwargs)
        store.put_many(np.arange(n), matrix)
        reduction = float_bytes / store.nbytes
        # Recall of the exact scan over *dequantized* rows — what serving
        # ranks with once the float matrix is gone.
        approx = exact_top_k(store.as_matrix()[1], queries, k)
        recall = _recall(list(approx), truth)
        results.extend([
            {"op": f"ann_{label}_memory_reduction", "ratio": float(reduction),
             "n": n, "dim": dim, "store_bytes": int(store.nbytes),
             "float64_bytes": int(float_bytes), **kwargs},
            {"op": f"ann_{label}_recall_at_{k}", "recall": recall,
             "k": k, "n": n, "n_queries": n_queries, **kwargs},
        ])
    return results


def bench_recall_qps_curve(rng: np.random.Generator, n: int, dim: int,
                           k: int, n_queries: int, n_lists: int,
                           nprobes: tuple[int, ...],
                           repeats: int) -> list[dict]:
    """One record per operating point: recall@k, QPS, candidate budget."""
    from repro.lookalike import IVFIndex, LSHIndex, exact_top_k

    vectors = _clustered(rng, n, dim)
    queries = _clustered(rng, n_queries, dim)
    truth = exact_top_k(vectors, queries, k)

    def point(op: str, index, kind: str, **extra) -> dict:
        approx = index.query_batch(queries, k, fallback_to_exact=False)
        recall = _recall(approx, truth)
        timing = _time_op(
            lambda: index.query_batch(queries, k, fallback_to_exact=False),
            repeats)
        cand = index.candidates_batch(queries)
        avg_candidates = float(np.mean([c.size for c in cand]))
        return {"op": op, "index": kind, "recall": recall,
                "qps": float(n_queries / (timing["p50_ms"] / 1e3)),
                "p50_ms": timing["p50_ms"], "p95_ms": timing["p95_ms"],
                "avg_candidates": avg_candidates, "k": k, "n": n, **extra}

    results: list[dict] = []
    exact_timing = _time_op(lambda: exact_top_k(vectors, queries, k), repeats)
    results.append({
        "op": "ann_curve_exact", "index": "exact", "recall": 1.0,
        "qps": float(n_queries / (exact_timing["p50_ms"] / 1e3)),
        "p50_ms": exact_timing["p50_ms"], "p95_ms": exact_timing["p95_ms"],
        "avg_candidates": float(n), "k": k, "n": n})

    for n_tables, n_bits in ((4, 8), (8, 8), (8, 6)):
        index = LSHIndex(dim, n_tables=n_tables, n_bits=n_bits, seed=0)
        index.fit(vectors)
        results.append(point(f"ann_curve_lsh_t{n_tables}_b{n_bits}", index,
                             "lsh", n_tables=n_tables, n_bits=n_bits))

    for nprobe in nprobes:
        index = IVFIndex(dim, n_lists=n_lists, nprobe=nprobe, seed=0)
        index.fit(vectors)
        results.append(point(f"ann_curve_ivf_p{nprobe}", index, "ivf",
                             n_lists=n_lists, nprobe=nprobe))
    return results


def bench_ivf_vs_lsh(rng: np.random.Generator, n: int, dim: int, k: int,
                     n_queries: int, n_lists: int) -> list[dict]:
    """Recall at a matched candidate budget: IVF vs LSH.

    The LSH configuration fixes the budget (its mean candidate count); IVF
    gets the ``nprobe`` whose expected cell coverage matches it.  The gate
    is the recall ratio at that equal budget — the structured coarse
    quantizer must not lose to hashing when both do the same amount of
    rescoring work.
    """
    from repro.lookalike import IVFIndex, LSHIndex, exact_top_k

    vectors = _clustered(rng, n, dim)
    queries = _clustered(rng, n_queries, dim)
    truth = exact_top_k(vectors, queries, k)

    lsh = LSHIndex(dim, n_tables=8, n_bits=8, seed=0).fit(vectors)
    lsh_cand = lsh.candidates_batch(queries)
    budget = float(np.mean([c.size for c in lsh_cand]))
    lsh_recall = _recall(lsh.query_batch(queries, k, fallback_to_exact=False),
                         truth)

    nprobe = int(np.clip(round(budget / (n / n_lists)), 1, n_lists))
    ivf = IVFIndex(dim, n_lists=n_lists, nprobe=nprobe, seed=0).fit(vectors)
    ivf_cand = ivf.candidates_batch(queries)
    ivf_budget = float(np.mean([c.size for c in ivf_cand]))
    ivf_recall = _recall(ivf.query_batch(queries, k, fallback_to_exact=False),
                         truth)

    return [{"op": "ann_ivf_vs_lsh_recall",
             "ratio": float(ivf_recall / lsh_recall) if lsh_recall else float("inf"),
             "ivf_recall": ivf_recall, "lsh_recall": lsh_recall,
             "lsh_avg_candidates": budget, "ivf_avg_candidates": ivf_budget,
             "nprobe": nprobe, "n_lists": n_lists, "k": k, "n": n}]


def bench_quant_cold_start(rng: np.random.Generator, n: int, dim: int,
                           repeats: int) -> list[dict]:
    """Quantized-snapshot load: eager deserialise vs zero-copy code mmap."""
    from repro.lookalike import QuantizedEmbeddingStore

    store = QuantizedEmbeddingStore(dim, mode="int8", seed=0)
    store.put_many(np.arange(n), rng.normal(size=(n, dim)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quant_snapshot.npz"
        store.save_snapshot(path)
        eager = _time_op(lambda: QuantizedEmbeddingStore.load(path),
                         repeats, warmup=1)
        mapped = _time_op(lambda: QuantizedEmbeddingStore.load(path, mmap=True),
                          repeats, warmup=1)
    return [{"op": "quant_cold_start_eager_load", "n_keys": n, **eager},
            {"op": "quant_cold_start_mmap_load", "n_keys": n, **mapped},
            {"op": "quant_cold_start_mmap_speedup",
             "ratio": eager["p50_ms"] / mapped["p50_ms"]}]


def bench_sampler_ablation(rng: np.random.Generator, n_features: int,
                           dim: int, repeats: int) -> list[dict]:
    """Codebook vs uniform negative sampling: cell coverage of the kept set.

    Draws a skewed candidate set (popular features dominate) and measures
    how many coarse-quantizer cells the kept negatives span.  Higher
    coverage = negatives spread across embedding space instead of piling
    into the densest cluster — FastVAE's motivation for codebook sampling.
    Ablation record only; nothing is gated and training defaults are
    untouched.
    """
    from repro.sampling import CodebookSampler, UniformSampler

    embeddings = _clustered(rng, n_features, dim, n_clusters=16)
    sampler = CodebookSampler(embeddings, n_cells=16, seed=0)
    uniform = UniformSampler()
    candidates = np.arange(n_features)
    # Zipf-ish in-batch frequencies: rank r appears ~ 1/(r+1) times.
    frequencies = np.maximum(1, (n_features / (candidates + 1.0))).astype(
        np.int64)
    rate = 0.1

    def coverage(drawn: np.ndarray) -> float:
        return np.unique(sampler._cell_of[drawn]).size / sampler.n_cells

    cov = {"codebook": [], "uniform": []}
    for trial in range(10):
        trial_rng = np.random.default_rng(trial)
        cov["codebook"].append(coverage(
            sampler.sample(candidates, frequencies, rate, trial_rng)))
        cov["uniform"].append(coverage(
            uniform.sample(candidates, frequencies, rate,
                           np.random.default_rng(trial))))
    timing = _time_op(
        lambda: sampler.sample(candidates, frequencies, rate,
                               np.random.default_rng(0)), repeats)
    return [{"op": "sampler_codebook_cell_coverage",
             "value": float(np.mean(cov["codebook"])),
             "uniform_cell_coverage": float(np.mean(cov["uniform"])),
             "rate": rate, "n_features": n_features, **timing}]


def ann_stages(rng: np.random.Generator, quick: bool, seed: int,
               repeats: int) -> list[tuple[str, object]]:
    """Stage list for ``run_bench(suite="ann")``."""
    dim = 64
    k = 100
    n_memory = 8_000 if quick else 50_000
    n_curve = 2_000 if quick else 10_000
    n_queries = 50 if quick else 100
    n_lists = 32 if quick else 64
    nprobes = (1, 2, 4, 8, 16) if quick else (1, 2, 4, 8, 16, 32)
    return [
        ("quant_memory",
         lambda: bench_quant_memory(rng, n_memory, dim, k, n_queries)),
        ("recall_qps_curve",
         lambda: bench_recall_qps_curve(rng, n_curve, dim, k, n_queries,
                                        n_lists, nprobes, repeats)),
        ("ivf_vs_lsh",
         lambda: bench_ivf_vs_lsh(rng, n_curve, dim, k, n_queries, n_lists)),
        ("quant_cold_start",
         lambda: bench_quant_cold_start(rng, n_memory, dim, repeats)),
        ("sampler_ablation",
         lambda: bench_sampler_ablation(rng, 2_000 if quick else 5_000, 16,
                                        repeats)),
    ]
