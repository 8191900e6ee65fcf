"""Smoke test of the benchmark itself (not collected by tier-1, which reads
only ``tests/``):  ``python -m pytest bench/tests -q``

Every run here is the real code path with a 1 s timed region.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=180)


def shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_reported(workload: str, trace: int) -> None:
    before = shm_segments()
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        assert 0.90 <= out["metrics"]["trace.coverage"]["value"] <= 1.02
        assert (BENCH / "out" / f"trace_{workload}.json").exists()
    assert shm_segments() == before


def test_traced_run_removes_every_wrapper_and_thread() -> None:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        bench_run = importlib.import_module("run")
        tracing = importlib.import_module("trace")

        def current() -> list:
            found = []
            for path, attr, __, __ in tracing.TARGETS:
                module, __, cls = path.partition(":")
                owner = importlib.import_module(module)
                owner = getattr(owner, cls) if cls else owner
                found.append(vars(owner).get(attr))
            return found

        originals = current()
        threads = threading.active_count()
        out = bench_run.run_workload("serve_hot", 3, 0.5, trace=True)
        assert out["correct"]
        assert out["metrics"]["trace.ops"]["value"] > 0
        assert all(now is orig for now, orig in zip(current(), originals))
        assert threading.active_count() == threads
    finally:
        del sys.path[:2]


def test_exits_nonzero_without_the_product(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
