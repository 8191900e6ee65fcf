#!/usr/bin/env python3
"""The repo benchmark: train → publish → serve → recall, one command.

One workload, as the harness runs it (last stdout line is the JSON result):

    python3 bench/run.py --workload serve_hot --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics (and writes ``bench/out/trace_<w>.json``).

Without ``--workload`` every workload runs (untraced, and with ``--traced``
traced as well), each run in a fresh subprocess one after another, and every
metric is printed by name with its unit; ``--aa`` makes the untraced runs
twice and compares the two against the bounds.  See bench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: must be in the environment before NumPy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SETUP_REPS = 3          # at least; a cheap set-up is repeated for SETUP_SPEND
SETUP_SPEND = 1.0       # seconds
SETUP_REPS_MAX = 15
CHUNKS = 128    # at most; never fewer than 4 operations per chunk
TAIL = 90       # percentile; the serve p99 does not repeat on this box


def best_tenth(values: list[float]) -> float:
    """First decile of per-chunk values where lower is better."""
    return sorted(values)[len(values) // 10]


# -- one workload in this process ----------------------------------------------

MEMCPY_BYTES = 16 * 2 ** 20


def machine_calibration(reps: int = 5) -> dict[str, list[float]]:
    """Fixed-shape NumPy reference operations: attributes drift to the box."""
    a = np.ones((256, 256))
    buf = np.ones(MEMCPY_BYTES // 8)
    table = np.ones((20_000, 64))
    idx = (np.arange(4096) * 4099) % 20_000
    samples: dict[str, list[float]] = {"matmul": [], "memcpy": [], "fancy": []}
    for __ in range(reps):
        for key, op in (("matmul", lambda: a @ a), ("memcpy", buf.copy),
                        ("fancy", lambda: table[idx])):
            t = perf_counter()
            op()
            samples[key].append(perf_counter() - t)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import OUT_DIR, WORKLOADS, OpClock

    workload = WORKLOADS[name]
    setup_s, state = [], None
    while len(setup_s) < SETUP_REPS or (
            sum(setup_s) < SETUP_SPEND and len(setup_s) < SETUP_REPS_MAX):
        state = None                    # free the previous set-up first
        began = perf_counter()
        state = workload.setup(seed)
        setup_s.append(perf_counter() - began)

    tracer = calibration = None
    if trace:
        from trace import Tracer
        tracer = Tracer()
        calibration = machine_calibration()
        tracer.install()
    clock = OpClock(seconds, tracer, workload.traced_ops, workload.root)
    try:
        result = workload.run(state, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if workload.verify is not None:
        workload.verify(state, result)

    if trace:
        from trace import layer_metrics, write_trace
        for key, values in machine_calibration().items():
            calibration[key] += values
        machine = {
            "machine.matmul_ms": (1e3 * median(calibration["matmul"]), "ms"),
            "machine.memcpy_gbps": (
                MEMCPY_BYTES / median(calibration["memcpy"]) / 1e9, "GB/s"),
            "machine.fancy_index_ms": (
                1e3 * median(calibration["fancy"]), "ms"),
        }
        untraced = result.durations[result.traced_ops:]
        metrics = layer_metrics(
            tracer.spans, result.counters, result.traced_wall,
            median(untraced) if untraced else 0.0, machine)
        # Not steady enough on this box to be gated: printed for information.
        metrics["bench.untraced_op_p99_ms"] = (
            1e3 * float(np.percentile(untraced, 99)) if untraced else 0.0, "ms")
        metrics["bench.peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        OUT_DIR.mkdir(exist_ok=True)
        write_trace(OUT_DIR / f"trace_{name}.json", name, seed, tracer.spans,
                    result.counters, metrics)
    else:
        # The timings are taken per chunk of consecutive operations and the
        # best tenth of the chunks is reported: the host's interference only
        # ever slows a chunk down, a regression slows all of them.
        n = len(result.durations)
        n_chunks = max(1, min(CHUNKS, n // 4))
        edges = [i * n // n_chunks for i in range(n_chunks + 1)]
        chunks = [slice(a, b) for a, b in zip(edges, edges[1:])]
        metrics = {
            "setup_s": (median(setup_s) + result.pre_s, "s"),
            "items_per_s": (1.0 / best_tenth(
                [sum(result.durations[c]) / sum(result.items[c])
                 for c in chunks]), "1/s"),
            "op_p50_ms": (1e3 * best_tenth(
                [median(result.durations[c]) for c in chunks]), "ms"),
            "op_tail_ms": (1e3 * best_tenth(
                [float(np.percentile(result.durations[c], TAIL))
                 for c in chunks]), "ms"),
            "rss_mb": (median(result.rss_mb), "MB"),
        }
    for note in result.notes:
        print(f"FAILED CHECK: {note}", file=sys.stderr)
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# -- every workload, each in a fresh subprocess --------------------------------

def run_child(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit code {proc.returncode})")
    out = json.loads(lines[-1])
    out["exit_code"] = proc.returncode
    return out


def run_all(seed: int, seconds: float, traced: bool,
            aa: bool) -> tuple[dict, bool]:
    """Every workload in turn; prints every metric by name with its unit.

    With ``aa`` each workload's untraced run is made twice back to back (A1,
    A2 interleaved over the workloads) and the relative difference of every
    end-to-end metric is printed beside its bound: a bound tighter than what
    two runs of the same code differ by could never be kept.
    """
    record, ok = {}, True
    for name in WORKLOAD_NAMES:
        runs = {"untraced": run_child(name, seed, seconds, 0)}
        if aa:
            runs["untraced_again"] = run_child(name, seed, seconds, 0)
        if traced:
            runs["traced"] = run_child(name, seed, seconds, 1)
        ok = ok and all(r["correct"] and r["exit_code"] == 0
                        for r in runs.values())
        first = runs["untraced"]
        print(f"== {name}  correct={first['correct']}  failed_ops_share="
              f"{first['failed'] / first['attempted']:g} "
              f"({first['failed']}/{first['attempted']})")
        for run in (first, runs.get("traced", {"metrics": {}})):
            for key, m in run["metrics"].items():
                print(f"   {key:48s} {m['value']:>14.6g} {m['unit']}")
        if aa:
            runs["aa_relative_difference"] = differences = {}
            for metric in SPEC["end_to_end"]:
                a, b = (runs[r]["metrics"][metric["name"]]["value"]
                        for r in ("untraced", "untraced_again"))
                diff = differences[metric["name"]] = abs(b - a) / a
                # the harness gates set-up time on medians of ten runs, not
                # on one pair
                exceeds = diff > metric["bound"] and metric["name"] != "setup_s"
                ok = ok and not exceeds
                print(f"   A/A {metric['name']:14s} {a:14.6g} {b:14.6g}  "
                      f"differ by {diff:.4f}  bound {metric['bound']:.2f}"
                      f"{'  EXCEEDS' if exceeds else ''}")
        record[name] = runs
    return record, ok


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workload mode: add the traced run")
    parser.add_argument("--aa", action="store_true",
                        help="all-workload mode: run the untraced set twice "
                             "and compare the two against the bounds")
    parser.add_argument("--out", type=Path,
                        help="all-workload / --aa mode: write the record here")
    args = parser.parse_args()

    if args.workload:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        print(json.dumps(out))
        return 0 if out["correct"] else 1

    workloads, ok = run_all(args.seed, args.seconds, args.traced, args.aa)
    if args.out:
        record = {"seed": args.seed, "seconds": args.seconds,
                  "environment": environment(), "workloads": workloads}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
