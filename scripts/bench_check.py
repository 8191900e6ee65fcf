"""CI gate on benchmark results: fail on optimized-vs-reference regressions.

Usage::

    python scripts/bench_check.py --current bench.json \
        [--baseline benchmarks/results/BENCH_PR5.json] [--tolerance 0.20]

Absolute milliseconds and users/sec vary wildly across CI hardware, so the
gate is built on *relative* quantities that cancel the machine out.  The
report's ``meta.suite`` field selects which family of gates applies (the
baseline, when given, must come from the same suite):

``serving`` (``BENCH_PR5.json``):

* ``serving_batch_speedup`` — ``ServingProxy.get_embeddings_batch`` vs the
  per-key ``get_embedding`` loop on the 10k-user warm-cache benchmark.  The
  batch path must hold a ≥3x advantage (scaled by the tolerance).
* ``lsh_batch_speedup`` — ``LSHIndex.query_batch`` vs looped ``query``;
  must hold ≥2x (scaled by the tolerance).

Both serving ratios are additionally checked against the committed baseline
with the same relative tolerance — but only when both reports were measured
at the same workload size (same ``meta.quick`` flag): the quick CI smoke probes a 2k-vector index while the
committed baseline uses 10k vectors, and those ratios are not comparable.

``sharded`` (``BENCH_PR9.json``):

* ``sharded_critical_path_speedup_w4`` — the 4-worker critical path
  (``serial + max worker-CPU + max shard-apply-CPU`` per step) vs one
  worker; must hold ≥1.6x (scaled by the tolerance).  CPU-time based, so it
  gates on any machine regardless of core count.
* ``sharded_wall_speedup_w4`` — real wall-clock scaling; only gated when
  the report's ``meta.cores`` covers the 4-worker cluster (workers
  time-slice fewer cores, making wall-clock scaling physically impossible
  — the honest-numbers convention of docs/PERFORMANCE.md).

``ann`` (``BENCH_PR10.json``):

* ``ann_int8_memory_reduction`` >= 4x and ``ann_pq_memory_reduction`` >=
  8x — the quantized stores' byte footprint vs the float64 matrix.
* ``ann_int8_recall_at_100`` >= 0.95 and ``ann_pq_recall_at_100`` >= 0.85
  — exact-scan recall@100 over dequantized rows vs the float64 ground
  truth (the PQ gate is the residual-coded configuration; plain PQ is
  recorded ungated).
* ``ann_ivf_vs_lsh_recall`` >= 1.0 — IVF recall over LSH recall at a
  matched mean candidate budget.

Memory reductions, recall values and the IVF/LSH ratio are deterministic
functions of the seed and workload size — no timing involved — so these
floors apply *unscaled* by the tolerance.  Baseline comparisons (with the
tolerance) run only at a matched workload size (same ``meta.quick``),
like the serving suite.

Exit code 0 on pass, 1 on regression (messages on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Absolute speedup floors the serving fast path promises (before the
#: tolerance scaling): the acceptance bars of the serving-suite benchmarks.
SERVING_FLOORS = {"serving_batch_speedup": 3.0, "lsh_batch_speedup": 2.0}

#: The sharded parameter-server promise: 4 workers deliver >= 1.6x epoch
#: throughput over 1 on the critical path; wall-clock must match whenever
#: the machine actually has the cores.
SHARDED_FLOOR = 1.6
SHARDED_WORKERS = 4

#: The quantized-serving promise (deterministic ratios, unscaled by the
#: tolerance): memory cuts vs the float64 matrix and IVF-vs-LSH recall at a
#: matched candidate budget.
ANN_RATIO_FLOORS = {"ann_int8_memory_reduction": 4.0,
                    "ann_pq_memory_reduction": 8.0,
                    "ann_ivf_vs_lsh_recall": 1.0}

#: Exact-scan recall@100 floors over dequantized rows (deterministic,
#: unscaled).  The PQ entry gates the residual-coded configuration.
ANN_RECALL_FLOORS = {"ann_int8_recall_at_100": 0.95,
                     "ann_pq_recall_at_100": 0.85}


def _records(report: dict) -> dict[str, dict]:
    return {r["op"]: r for r in report.get("results", [])}


def _suite(report: dict) -> str:
    return report.get("meta", {}).get("suite", "")


def _is_quick(report: dict) -> bool:
    return bool(report.get("meta", {}).get("quick", False))


def _ratio(report: dict, op: str) -> float:
    rec = _records(report).get(op)
    if rec is None:
        raise KeyError(f"report has no '{op}' record")
    return float(rec["ratio"])


def check_serving(current: dict, baseline: dict | None,
                  tolerance: float) -> list[str]:
    failures: list[str] = []
    scale = 1.0 - tolerance
    # Ratios from different workload sizes (quick vs full) are not
    # comparable — quick runs gate on the absolute floors only.
    comparable = baseline is not None and \
        _is_quick(current) == _is_quick(baseline)
    for op, promised in SERVING_FLOORS.items():
        ratio = _ratio(current, op)
        floor = promised * scale
        if ratio < floor:
            failures.append(
                f"{op} {ratio:.3f} < {floor:.3f}: the batch path no longer "
                f"holds its promised {promised:.1f}x advantage over the "
                "scalar loop")
        if comparable:
            base = _ratio(baseline, op)
            if ratio < base * scale:
                failures.append(
                    f"{op} {ratio:.3f} regressed more than {tolerance:.0%} "
                    f"vs baseline {base:.3f}")
    return failures


def check_sharded(current: dict, baseline: dict | None,
                  tolerance: float) -> list[str]:
    failures: list[str] = []
    scale = 1.0 - tolerance
    floor = SHARDED_FLOOR * scale
    w = SHARDED_WORKERS

    crit = _ratio(current, f"sharded_critical_path_speedup_w{w}")
    if crit < floor:
        failures.append(
            f"sharded_critical_path_speedup_w{w} {crit:.3f} < {floor:.3f}: "
            f"{w} workers no longer hold the promised {SHARDED_FLOOR:.1f}x "
            "critical-path scaling over one worker")

    cores = current.get("meta", {}).get("cores") or 0
    if cores >= w:
        wall = _ratio(current, f"sharded_wall_speedup_w{w}")
        if wall < floor:
            failures.append(
                f"sharded_wall_speedup_w{w} {wall:.3f} < {floor:.3f} on a "
                f"{cores}-core machine: wall-clock scaling should match the "
                "critical path when the cores are there")

    comparable = baseline is not None and \
        _is_quick(current) == _is_quick(baseline)
    if comparable:
        base = _ratio(baseline, f"sharded_critical_path_speedup_w{w}")
        if crit < base * scale:
            failures.append(
                f"sharded_critical_path_speedup_w{w} {crit:.3f} regressed "
                f"more than {tolerance:.0%} vs baseline {base:.3f}")
    return failures


def _recall_value(report: dict, op: str) -> float:
    rec = _records(report).get(op)
    if rec is None:
        raise KeyError(f"report has no '{op}' record")
    return float(rec["recall"])


def check_ann(current: dict, baseline: dict | None,
              tolerance: float) -> list[str]:
    failures: list[str] = []
    # These are deterministic functions of (seed, workload size) — memory
    # ratios and recall values, no timing — so the floors apply unscaled.
    for op, promised in ANN_RATIO_FLOORS.items():
        ratio = _ratio(current, op)
        if ratio < promised:
            failures.append(
                f"{op} {ratio:.3f} < {promised:.2f}: the quantized/ANN path "
                "no longer delivers its promised ratio")
    for op, promised in ANN_RECALL_FLOORS.items():
        recall = _recall_value(current, op)
        if recall < promised:
            failures.append(
                f"{op} {recall:.3f} < {promised:.2f}: quantized exact-scan "
                "recall fell below the committed floor")
    comparable = baseline is not None and \
        _is_quick(current) == _is_quick(baseline)
    if comparable:
        scale = 1.0 - tolerance
        for op in ANN_RATIO_FLOORS:
            base = _ratio(baseline, op)
            ratio = _ratio(current, op)
            if ratio < base * scale:
                failures.append(
                    f"{op} {ratio:.3f} regressed more than {tolerance:.0%} "
                    f"vs baseline {base:.3f}")
        for op in ANN_RECALL_FLOORS:
            base = _recall_value(baseline, op)
            recall = _recall_value(current, op)
            if recall < base * scale:
                failures.append(
                    f"{op} {recall:.3f} regressed more than {tolerance:.0%} "
                    f"vs baseline {base:.3f}")
    return failures


def check(current: dict, baseline: dict | None, tolerance: float,
          ) -> list[str]:
    """Return a list of regression messages (empty means the gate passes)."""
    suite = _suite(current)
    if baseline is not None and _suite(baseline) != suite:
        raise ValueError(
            f"suite mismatch: current is '{suite}' but baseline is "
            f"'{_suite(baseline)}' — compare like with like")
    if suite == "serving":
        return check_serving(current, baseline, tolerance)
    if suite == "sharded":
        return check_sharded(current, baseline, tolerance)
    if suite == "ann":
        return check_ann(current, baseline, tolerance)
    raise ValueError(f"unknown bench suite '{suite}'")


def _summary(report: dict) -> str:
    if _suite(report) == "serving":
        return " ".join(f"{op}={_ratio(report, op):.3f}"
                        for op in SERVING_FLOORS)
    if _suite(report) == "ann":
        parts = [f"{op}={_ratio(report, op):.2f}" for op in ANN_RATIO_FLOORS]
        parts += [f"{op}={_recall_value(report, op):.3f}"
                  for op in ANN_RECALL_FLOORS]
        return " ".join(parts)
    w = SHARDED_WORKERS
    return (f"critical_path_w{w}="
            f"{_ratio(report, f'sharded_critical_path_speedup_w{w}'):.3f}"
            f" wall_w{w}="
            f"{_ratio(report, f'sharded_wall_speedup_w{w}'):.3f}"
            f" simulated_w{w}="
            f"{_ratio(report, f'simulated_speedup_w{w}'):.3f}"
            f" cores={report.get('meta', {}).get('cores')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True,
                        help="bench JSON produced by this run")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON of the same suite "
                             "(absolute checks only when omitted or missing)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression (default 0.20)")
    args = parser.parse_args(argv)

    current = json.loads(Path(args.current).read_text())
    baseline = None
    if args.baseline and Path(args.baseline).exists():
        baseline = json.loads(Path(args.baseline).read_text())
    else:
        print(f"note: no baseline ({args.baseline}); absolute checks only",
              file=sys.stderr)

    failures = check(current, baseline, args.tolerance)
    for message in failures:
        print(f"REGRESSION: {message}", file=sys.stderr)
    if not failures:
        print(f"bench check passed ({_suite(current)}): {_summary(current)}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
