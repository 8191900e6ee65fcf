"""Microbenchmark runner: ``python -m repro bench --suite {serving,sharded,ann}``.

Each suite times one tier's hot paths and writes a JSON report with one
record per op (``{"op", "p50_ms", "p95_ms"}``, ratios, recall/QPS points) to
``benchmarks/results/BENCH_PR{5,9,10}.json`` by default;
``scripts/bench_check.py`` gates a report against its committed baseline.
Training throughput is measured by the repo benchmark's ``train_kd``
workload (``bench/run.py``), not here.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["run_bench", "SUITES"]

#: suite name -> (default output path, ``meta.bench`` tag)
SUITES = {"serving": (Path("benchmarks/results/BENCH_PR5.json"), "PR5"),
          "sharded": (Path("benchmarks/results/BENCH_PR9.json"), "PR9"),
          "ann": (Path("benchmarks/results/BENCH_PR10.json"), "PR10")}


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


def run_bench(suite: str, quick: bool = False,
              out: str | Path | None = None, seed: int = 0) -> dict:
    """Run one suite's stages and write the JSON report to ``out``.

    ``suite="serving"`` runs the serving fast-path stages
    (:mod:`repro.perf.bench_serving`, ``BENCH_PR5.json``); ``"sharded"`` the
    multi-process sharded parameter-server scaling study
    (:mod:`repro.perf.bench_sharded`, ``BENCH_PR9.json``); ``"ann"`` the
    quantization + ANN-index study (:mod:`repro.perf.bench_ann` — memory
    reduction, recall@k-vs-QPS curve, IVF-vs-LSH at matched candidate
    budget, ``BENCH_PR10.json``).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown bench suite '{suite}'")
    default_out, tag = SUITES[suite]
    out = default_out if out is None else out
    rng = new_rng(seed)
    repeats = 10 if quick else 50

    results: list[dict] = []
    if suite == "serving":
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
            "bench": tag,
            "suite": suite,
            "quick": quick,
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
