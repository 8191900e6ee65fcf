"""Prefetching batch pipeline: determinism contract and bench harness smoke.

:class:`repro.perf.pipeline.PrefetchLoader` must be a drop-in for
:class:`SyncLoader`: same batches, same order, no RNG touched — which makes
training *bit-exact* regardless of which loader is plugged into
``Trainer.fit(loader=...)``.  The tests here pin batch-level equality, the
end-to-end bit-exact training history, worker shutdown on early exit, the
epoch's batch count, and smoke-test the ``python -m repro bench`` harness
output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig
from repro.data.loaders import make_kd_like
from repro.perf.bench import run_bench
from repro.perf.pipeline import PrefetchLoader, SyncLoader, n_batches


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
    def test_prefetch_yields_sync_batches(self, kd_small):
        order = np.random.default_rng(0).permutation(kd_small.n_users)
        sync = list(SyncLoader().epoch(kd_small, order, batch_size=48))
        pre = list(PrefetchLoader().epoch(kd_small, order, batch_size=48))
        assert len(sync) == len(pre) == 4  # 160 users / 48 -> ceil = 4
        for a, b in zip(sync, pre):
            _assert_batches_equal(a, b)

    def test_first_batch_resume_offset(self, kd_small):
        order = np.arange(kd_small.n_users)
        sync = list(SyncLoader().epoch(kd_small, order, batch_size=50,
                                       first_batch=2))
        pre = list(PrefetchLoader().epoch(kd_small, order, batch_size=50,
                                          first_batch=2))
        assert len(sync) == len(pre) == 2
        for a, b in zip(sync, pre):
            _assert_batches_equal(a, b)

    def test_empty_order(self, kd_small):
        empty = np.array([], dtype=np.int64)
        assert list(PrefetchLoader().epoch(kd_small, empty, 32)) == []

    def test_prefetch_depth_validated(self):
        with pytest.raises(ValueError, match="prefetch depth"):
            PrefetchLoader(prefetch=0)

    def test_early_consumer_exit_stops_worker(self, kd_small):
        import threading

        order = np.arange(kd_small.n_users)
        before = threading.active_count()
        gen = PrefetchLoader().epoch(kd_small, order, batch_size=16)
        next(gen)
        gen.close()  # trainer break / early stopping path
        deadline = 50
        while threading.active_count() > before and deadline:
            deadline -= 1
            threading.Event().wait(0.05)
        assert threading.active_count() <= before

    def test_worker_exception_surfaces(self, kd_small):
        class Broken(PrefetchLoader):
            pass

        loader = Broken()
        # An out-of-range order makes the worker's gather raise; the consumer
        # must see that exception, not a hang or a silent truncation.
        bad = np.array([kd_small.n_users + 5], dtype=np.int64)
        with pytest.raises(IndexError):
            list(loader.epoch(kd_small, bad, batch_size=8))


class TestBitExactTraining:
    """Same shuffle, same noise, same floats — whichever loader runs."""

    def _train(self, loader):
        data = make_kd_like(n_users=160, seed=3)
        config = FVAEConfig(latent_dim=8, encoder_hidden=[16],
                            decoder_hidden=[16], seed=3)
        model = FVAE(data.dataset.schema, config)
        kwargs = {"loader": loader} if loader is not None else {}
        model.fit(data.dataset, epochs=2, batch_size=48, lr=1e-3, **kwargs)
        losses = [repr(x) for x in model.history.series("loss")]
        params = {name: repr(p.data.sum())
                  for name, p in model.named_parameters()}
        return losses, params

    def test_prefetch_history_bit_exact_vs_sync(self):
        sync_losses, sync_params = self._train(None)
        pre_losses, pre_params = self._train(PrefetchLoader())
        assert sync_losses == pre_losses
        assert sync_params == pre_params


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
