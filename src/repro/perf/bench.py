"""Microbenchmark runner: ``python -m repro bench``.

Times the hot-path operations the perf layer optimizes — embedding-bag
forward/backward, the fused sampled-softmax kernel forward/backward (against
its unfused reference), the row-sparse optimizer step — plus end-to-end epoch
throughput on the ``make_kd_like`` preset: fused+prefetch vs unfused+sync,
and static-graph capture (float64 parity + float32 mode) vs the dynamic path.

Results are written as JSON (``benchmarks/results/BENCH_PR8.json`` by
default) with one record per op: ``{"op", "p50_ms", "p95_ms"}`` for micro
ops and ``{"op", "users_per_sec"}`` for the epoch runs, so every future PR
has a trajectory to compare against (``scripts/bench_check.py`` guards the
fused/unfused and capture speedup ratios in CI).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.nn import Adam, Parameter, Tensor, functional as F
from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["run_bench", "DEFAULT_OUTPUT", "SERVING_OUTPUT", "SHARDED_OUTPUT",
           "ANN_OUTPUT"]

DEFAULT_OUTPUT = Path("benchmarks/results/BENCH_PR8.json")
SERVING_OUTPUT = Path("benchmarks/results/BENCH_PR5.json")
SHARDED_OUTPUT = Path("benchmarks/results/BENCH_PR9.json")
ANN_OUTPUT = Path("benchmarks/results/BENCH_PR10.json")


def _time_op(fn: Callable[[], object], repeats: int,
             warmup: int = 2) -> dict[str, float]:
    """p50/p95 wall-clock milliseconds of ``fn`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    times = np.empty(repeats)
    for i in range(repeats):
        t0 = time.perf_counter()
        fn()
        times[i] = (time.perf_counter() - t0) * 1e3
    return {"p50_ms": float(np.percentile(times, 50)),
            "p95_ms": float(np.percentile(times, 95))}


def _bag_inputs(rng: np.random.Generator, n_rows: int, dim: int,
                n_users: int, per_user: int):
    weight = Parameter(rng.normal(0.0, 0.01, size=(n_rows, dim)), sparse=True)
    counts = rng.integers(per_user // 2, per_user * 2, size=n_users)
    indices = rng.integers(0, n_rows, size=int(counts.sum()))
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return weight, indices, offsets


def bench_embedding_bag(rng: np.random.Generator, repeats: int,
                        ) -> list[dict]:
    weight, indices, offsets = _bag_inputs(rng, n_rows=20_000, dim=128,
                                           n_users=256, per_user=40)

    def fwd():
        return F.embedding_bag(weight, indices, offsets)

    def fwd_bwd():
        weight.zero_grad()
        F.embedding_bag(weight, indices, offsets).sum().backward()

    return [{"op": "embedding_bag_fwd", **_time_op(fwd, repeats)},
            {"op": "embedding_bag_fwd_bwd", **_time_op(fwd_bwd, repeats)}]


def bench_sampled_softmax(rng: np.random.Generator, repeats: int,
                          ) -> list[dict]:
    n_users, dim, n_cand = 256, 128, 2000
    h_data = rng.normal(size=(n_users, dim))
    weight = Parameter(rng.normal(0.0, 0.01, size=(20_000, dim)), sparse=True)
    bias = Parameter(np.zeros(20_000), sparse=True)
    cand = np.sort(rng.choice(20_000, size=n_cand, replace=False))
    targets = (rng.random((n_users, n_cand)) < 0.02).astype(np.float64)
    scale = 1.0 / n_users

    def zero():
        weight.zero_grad()
        bias.zero_grad()

    def fused_fwd():
        h = Tensor(h_data)
        return F.sampled_softmax_nll(h, weight, bias, cand, targets,
                                     scale=scale)

    def fused_fwd_bwd():
        zero()
        h = Tensor(h_data, requires_grad=True)
        F.sampled_softmax_nll(h, weight, bias, cand, targets,
                              scale=scale).backward()

    def unfused_fwd_bwd():
        zero()
        h = Tensor(h_data, requires_grad=True)
        logits = h @ F.rows(weight, cand).T + F.take(bias, cand)
        nll = -(Tensor(targets) * F.log_softmax(logits, axis=-1)).sum() * scale
        nll.backward()

    return [
        {"op": "sampled_softmax_fused_fwd", **_time_op(fused_fwd, repeats)},
        {"op": "sampled_softmax_fused_fwd_bwd",
         **_time_op(fused_fwd_bwd, repeats)},
        {"op": "sampled_softmax_unfused_fwd_bwd",
         **_time_op(unfused_fwd_bwd, repeats)},
    ]


def bench_optimizer_step(rng: np.random.Generator, repeats: int,
                         ) -> list[dict]:
    dim = 128
    weight = Parameter(rng.normal(0.0, 0.01, size=(20_000, dim)), sparse=True)
    dense = Parameter(rng.normal(size=(dim, dim)))
    opt = Adam([weight, dense], lr=1e-3)
    touched = rng.integers(0, 20_000, size=8000)  # duplicate-heavy
    grad_rows = rng.normal(size=(touched.size, dim))
    dense_grad = rng.normal(size=(dim, dim))

    def step():
        opt.zero_grad()
        weight.add_sparse_grad(touched, grad_rows)
        dense.grad = dense_grad
        opt.step()

    return [{"op": "adam_sparse_step", **_time_op(step, repeats)}]


def bench_epoch_throughput(n_users: int, seed: int, epochs: int,
                           ) -> list[dict]:
    """End-to-end training throughput: fused+prefetch vs unfused+sync."""
    from repro.core import FVAE, FVAEConfig
    from repro.data.loaders import make_kd_like
    from repro.perf.pipeline import PrefetchLoader

    synthetic = make_kd_like(n_users=n_users, seed=seed)
    results = []
    rates = {}
    for label, fused, loader in (
            ("epoch_unfused_sync", False, None),
            ("epoch_fused_prefetch", True, PrefetchLoader())):
        config = FVAEConfig(latent_dim=64, encoder_hidden=[256],
                            decoder_hidden=[256], seed=seed, fused=fused)
        model = FVAE(synthetic.dataset.schema, config)
        kwargs = {"loader": loader} if loader is not None else {}
        model.fit(synthetic.dataset, epochs=epochs, batch_size=256,
                  lr=1e-3, **kwargs)
        rate = model.history.throughput
        rates[label] = rate
        results.append({"op": label, "users_per_sec": float(rate),
                        "n_users": n_users, "epochs": epochs})
    speedup = rates["epoch_fused_prefetch"] / rates["epoch_unfused_sync"]
    results.append({"op": "epoch_speedup", "ratio": float(speedup)})
    return results


def bench_capture_throughput(n_users: int, seed: int, epochs: int,
                             ) -> list[dict]:
    """Static-graph capture vs the dynamic path, fused+prefetch throughout.

    Three runs of the same model/data/loader configuration:

    * ``epoch_dynamic_f64`` — the PR-3 baseline (dynamic autograd, float64);
    * ``epoch_captured_f64`` — same arithmetic through the static tape; its
      ratio (``capture_speedup_exact``) is the *parity guard*: the bit-exact
      replay must not cost throughput;
    * ``epoch_captured_f32`` — the float32-throughout mode riding the same
      tape; its ratio over the float64 baseline is the headline
      ``capture_speedup`` that ``scripts/bench_check.py`` gates at >= 1.5x.
    """
    from repro.core import FVAE, FVAEConfig
    from repro.data.loaders import make_kd_like
    from repro.perf.pipeline import PrefetchLoader

    synthetic = make_kd_like(n_users=n_users, seed=seed)
    config = FVAEConfig(latent_dim=64, encoder_hidden=[256],
                        decoder_hidden=[256], seed=seed, fused=True)

    def run(label: str, **fit_kwargs) -> dict:
        model = FVAE(synthetic.dataset.schema, config)
        model.fit(synthetic.dataset, epochs=epochs, batch_size=256, lr=1e-3,
                  loader=PrefetchLoader(), **fit_kwargs)
        return {"op": label, "users_per_sec": float(model.history.throughput),
                "n_users": n_users, "epochs": epochs}

    dyn = run("epoch_dynamic_f64", precision="float64")
    cap64 = run("epoch_captured_f64", capture=True, precision="float64")
    cap32 = run("epoch_captured_f32", capture=True, precision="float32")
    return [
        dyn, cap64, cap32,
        {"op": "capture_speedup_exact",
         "ratio": float(cap64["users_per_sec"] / dyn["users_per_sec"]),
         "note": "captured float64 vs dynamic float64 (bit-exact replay "
                 "parity guard)"},
        {"op": "capture_speedup",
         "ratio": float(cap32["users_per_sec"] / dyn["users_per_sec"]),
         "note": "captured float32-throughout vs the dynamic float64 "
                 "fused+prefetch baseline (headline gate, >= 1.5x)"},
    ]


def run_bench(quick: bool = False, out: str | Path | None = None,
              users: int | None = None, seed: int = 0,
              suite: str = "training") -> dict:
    """Run every benchmark stage and write the JSON trajectory to ``out``.

    ``suite="training"`` (default) runs the PR-3 hot-path stages plus the
    PR-8 capture stage and writes ``BENCH_PR8.json``; ``suite="serving"``
    runs the serving fast-path stages (:mod:`repro.perf.bench_serving`) and
    writes ``BENCH_PR5.json``; ``suite="sharded"`` runs the multi-process
    sharded parameter-server scaling study (:mod:`repro.perf.bench_sharded`)
    and writes ``BENCH_PR9.json``; ``suite="ann"`` runs the quantization +
    ANN-index study (:mod:`repro.perf.bench_ann` — memory reduction,
    recall@k-vs-QPS curve, IVF-vs-LSH at matched candidate budget) and
    writes ``BENCH_PR10.json``.
    """
    if suite not in ("training", "serving", "sharded", "ann"):
        raise ValueError(f"unknown bench suite '{suite}'")
    if out is None:
        out = {"training": DEFAULT_OUTPUT, "serving": SERVING_OUTPUT,
               "sharded": SHARDED_OUTPUT, "ann": ANN_OUTPUT}[suite]
    rng = new_rng(seed)
    repeats = 10 if quick else 50
    n_users = users if users is not None else (1500 if quick else 6000)
    epochs = 1 if quick else 2

    results: list[dict] = []
    if suite == "training":
        stages = [
            ("embedding_bag", lambda: bench_embedding_bag(rng, repeats)),
            ("sampled_softmax", lambda: bench_sampled_softmax(rng, repeats)),
            ("optimizer_step", lambda: bench_optimizer_step(rng, repeats)),
            ("epoch_throughput",
             lambda: bench_epoch_throughput(n_users, seed, epochs)),
            ("capture_throughput",
             lambda: bench_capture_throughput(n_users, seed, epochs)),
        ]
    elif suite == "serving":
        from repro.perf.bench_serving import serving_stages
        stages = serving_stages(rng, quick, seed,
                                repeats=3 if quick else 10)
    elif suite == "ann":
        from repro.perf.bench_ann import ann_stages
        stages = ann_stages(rng, quick, seed, repeats=3 if quick else 10)
    else:
        from repro.perf.bench_sharded import sharded_stages
        stages = sharded_stages(rng, quick, seed)
    for name, stage in stages:
        with obs.span(f"bench.{name}"):
            results.extend(stage())
        obs.count("bench.stages")

    report = {
        "meta": {
            "bench": {"training": "PR8", "serving": "PR5",
                      "sharded": "PR9", "ann": "PR10"}[suite],
            "suite": suite,
            "quick": quick,
            "users": n_users,
            "epochs": epochs,
            "seed": seed,
            "repeats": repeats,
            # Honest-numbers convention (docs/PERFORMANCE.md): wall-clock
            # multi-process scaling is only meaningful when the machine has
            # the cores, so every report records what it ran on.
            "cores": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "results": results,
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_report(report: dict) -> str:
    """Human-readable table of a bench report."""
    lines = [f"benchmark ({'quick' if report['meta']['quick'] else 'full'}, "
             f"numpy {report['meta']['numpy']})"]
    for record in report["results"]:
        op = record["op"]
        if "recall" in record and "qps" in record:
            lines.append(f"  {op:<32} recall@{record.get('k', '?')}="
                         f"{record['recall']:.3f} "
                         f"qps={record['qps']:10.0f} "
                         f"cand={record.get('avg_candidates', 0):8.0f}")
        elif "recall" in record:
            lines.append(f"  {op:<32} recall@{record.get('k', '?')}="
                         f"{record['recall']:.3f}")
        elif "p50_ms" in record:
            lines.append(f"  {op:<32} p50={record['p50_ms']:8.3f}ms "
                         f"p95={record['p95_ms']:8.3f}ms")
        elif "users_per_sec" in record:
            lines.append(f"  {op:<32} {record['users_per_sec']:10.0f} users/s")
        elif "ratio" in record:
            lines.append(f"  {op:<32} {record['ratio']:10.2f}x")
    return "\n".join(lines)
