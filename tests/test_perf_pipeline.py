"""Batch loader contract and bench harness smoke.

:class:`repro.perf.pipeline.SyncLoader` must yield exactly the batches
``dataset.batch(order[a:b])`` would, in order, from any starting batch —
which keeps training bit-exact across loaders and checkpoint resumes.  The
tests here pin that, the epoch's batch count, and smoke-test the
``python -m repro bench`` harness output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.loaders import make_kd_like
from repro.perf.bench import run_bench
from repro.perf.pipeline import SyncLoader, n_batches


@pytest.fixture(scope="module")
def kd_small():
    return make_kd_like(n_users=160, seed=3).dataset


def _assert_batches_equal(a, b):
    assert np.array_equal(a.user_ids, b.user_ids)
    assert set(a.fields) == set(b.fields)
    for name, fa in a.fields.items():
        fb = b.fields[name]
        assert np.array_equal(fa.indices, fb.indices)
        assert np.array_equal(fa.offsets, fb.offsets)
        assert np.array_equal(fa.weights, fb.weights)
        assert fa.vocab_size == fb.vocab_size


class TestLoaderEquivalence:
    def test_first_batch_resume_offset(self, kd_small):
        order = np.random.default_rng(0).permutation(kd_small.n_users)
        batches = list(SyncLoader().epoch(kd_small, order, batch_size=50,
                                          first_batch=2))
        assert len(batches) == 2  # batches 2 and 3 of ceil(160 / 50) = 4
        for got, start in zip(batches, (100, 150)):
            _assert_batches_equal(got, kd_small.batch(order[start:start + 50]))

    def test_empty_order(self, kd_small):
        empty = np.array([], dtype=np.int64)
        assert list(SyncLoader().epoch(kd_small, empty, 32)) == []


class TestNBatches:
    @pytest.mark.parametrize("n,bs,expected", [
        (6, 4, 2), (8, 4, 2), (3, 4, 1), (0, 4, 0)])
    def test_n_batches_is_ceil(self, n, bs, expected):
        assert n_batches(n, bs) == expected

    def test_sync_loader_keeps_ragged_last_batch(self, kd_small):
        batches = list(SyncLoader().epoch(kd_small, np.arange(6),
                                          batch_size=4))
        assert [b.n_users for b in batches] == [4, 2]


class TestBenchHarness:
    def test_quick_bench_writes_report(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_bench("serving", quick=True, out=out, seed=0)

        on_disk = json.loads(out.read_text())
        assert on_disk == report
        assert report["meta"]["bench"] == "PR5"
        assert report["meta"]["suite"] == "serving"
        assert report["meta"]["quick"] is True

        ops = {r["op"] for r in report["results"]}
        assert {"store_get_many", "proxy_get_embeddings_batch",
                "serving_batch_speedup", "lsh_batch_speedup",
                "encoder_inference_speedup",
                "cold_start_mmap_speedup"} <= ops
        for record in report["results"]:
            if "p50_ms" in record:
                assert 0.0 < record["p50_ms"] <= record["p95_ms"]
            if "ratio" in record:
                assert record["ratio"] > 0.0

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli_bench.json"
        main(["bench", "--quick", "--suite", "serving", "--out", str(out)])
        assert out.exists()
        captured = capsys.readouterr().out
        assert "serving_batch_speedup" in captured
