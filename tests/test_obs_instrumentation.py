"""End-to-end instrumentation: trainer spans, serving latency, hash tables.

These tests pin the acceptance criteria of the observability layer: the span
tree accounts for essentially all of an epoch's wall-clock, serving latency
percentiles agree with ``numpy.percentile`` over the raw samples, and the
cache counters reconcile exactly with :class:`LRUCache`'s own accounting.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig, Trainer
from repro.data import make_kd_like
from repro.hashing import DynamicHashTable
from repro.lookalike.ann import IVFIndex
from repro.lookalike.serving import ServingProxy
from repro.lookalike.store import EmbeddingStore
from repro.obs import TelemetryCallback, TrainerCallback
from repro.obs import runtime as obs
from repro.sampling import select_candidates


def make_model(schema, **overrides):
    cfg = dict(latent_dim=8, encoder_hidden=[16], decoder_hidden=[16],
               embedding_capacity=64, seed=0)
    cfg.update(overrides)
    return FVAE(schema, FVAEConfig(**cfg))


class TestTrainerSpans:
    def test_span_tree_covers_epoch_wallclock(self):
        """Per-stage times sum to within 10% of the epoch wall-clock."""
        syn = make_kd_like(n_users=400, seed=0)
        with obs.session() as telemetry:
            model = make_model(syn.dataset.schema, sampling_rate=0.5)
            model.fit(syn.dataset, epochs=2, batch_size=64)
        tracer = telemetry.tracer
        epoch_total = tracer.total("epoch")
        stage_total = sum(tracer.total(f"epoch/{stage}") for stage in
                          ("batch_iter", "forward", "backward",
                           "optimizer_step"))
        assert epoch_total > 0
        assert stage_total == pytest.approx(epoch_total, rel=0.10)
        # history wall-clock and the epoch span measure the same loop
        history = model.history
        assert epoch_total == pytest.approx(history.total_time, rel=0.10)

    def test_stage_counts_match_batches(self, tiny_schema, tiny_dataset):
        with obs.session() as telemetry:
            Trainer(make_model(tiny_schema), lr=1e-3).fit(
                tiny_dataset, epochs=3, batch_size=3)
        epoch = telemetry.tracer.root.children["epoch"]
        n_batches = telemetry.registry.get("trainer.batches").value
        assert epoch.count == 3
        assert epoch.children["forward"].count == n_batches
        assert epoch.children["backward"].count == n_batches
        assert epoch.children["optimizer_step"].count == n_batches
        assert epoch.children["batch_iter"].count == n_batches
        assert telemetry.registry.get("trainer.users").value == 3 * 6

    def test_training_uninstrumented_is_clean(self, tiny_schema, tiny_dataset):
        assert not obs.enabled()
        history = Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=1,
                                                       batch_size=3)
        assert len(history.epochs) == 1  # no telemetry, no crash


class TestTrainerCallbacks:
    def test_hooks_fire_in_order(self, tiny_schema, tiny_dataset):
        calls = []

        class Recorder(TrainerCallback):
            def on_train_start(self, trainer, dataset):
                calls.append("train_start")

            def on_epoch_start(self, trainer, epoch):
                calls.append(f"epoch_start:{epoch}")

            def on_batch_end(self, trainer, epoch, step, loss, diagnostics):
                calls.append("batch")

            def on_epoch_end(self, trainer, record):
                calls.append(f"epoch_end:{record.epoch}")

            def on_train_end(self, trainer, history):
                calls.append("train_end")

        Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=2,
                                             batch_size=3,
                                             callbacks=[Recorder()])
        assert calls[0] == "train_start" and calls[-1] == "train_end"
        assert calls[1] == "epoch_start:0"
        assert calls.count("batch") == 4  # 2 epochs × 2 batches of 3/6 users
        assert calls.index("epoch_end:0") < calls.index("epoch_start:1")

    def test_telemetry_callback_epoch_events(self, tiny_schema, tiny_dataset,
                                             tmp_path):
        path = tmp_path / "train.jsonl"
        with obs.session() as telemetry:
            Trainer(make_model(tiny_schema)).fit(
                tiny_dataset, epochs=2, batch_size=3,
                callbacks=[TelemetryCallback(event_writer=str(path))])
        from repro.obs import load_jsonl

        events = load_jsonl(path)
        assert [e["type"] for e in events] == ["epoch", "epoch", "train_end"]
        assert events[0]["epoch"] == 0 and events[0]["n_batches"] == 2
        assert telemetry.registry.get("trainer.epochs").value == 2


class TestServingInstrumentation:
    def _proxy(self, n_users=50, dim=8):
        store = EmbeddingStore(dim)
        rng = np.random.default_rng(0)
        for uid in range(n_users):
            store.put(uid, rng.normal(size=dim))
        return ServingProxy(store, cache_capacity=16)

    def test_latency_percentiles_match_numpy(self):
        proxy = self._proxy()
        rng = np.random.default_rng(1)
        latencies = []
        with obs.session() as telemetry:
            for uid in rng.integers(0, 50, size=400):
                start = time.perf_counter()
                proxy.get_embedding(int(uid))
                latencies.append(time.perf_counter() - start)
        hist = telemetry.registry.get("serving.lookup_seconds")
        assert hist.count == 400
        # latency metrics land in a log-bucket histogram: percentiles match
        # the exact (outer-timed) distribution within one bucket's relative
        # error, where the outer timing envelope bounds the inner one
        exact = np.array(latencies)
        for q in (50, 95, 99):
            approx = hist.percentile(q)
            assert approx > 0
            assert approx <= np.percentile(exact, q) * hist.growth * 1.05
        assert hist.percentile(50) > 0

    def test_cache_counters_reconcile_with_hit_rate(self):
        proxy = self._proxy()
        rng = np.random.default_rng(2)
        with obs.session() as telemetry:
            for uid in rng.integers(0, 50, size=300):
                proxy.get_embedding(int(uid))
            hits = telemetry.registry.get("cache.hits", {"cache": "serving"})
            misses = telemetry.registry.get("cache.misses",
                                            {"cache": "serving"})
            assert hits.value == proxy.cache.hits
            assert misses.value == proxy.cache.misses
            total = hits.value + misses.value
            assert hits.value / total == pytest.approx(proxy.cache.hit_rate)

    def test_lookup_sources_partition_lookups(self):
        store = EmbeddingStore(4)
        store.put("known", np.zeros(4))
        proxy = ServingProxy(store, cache_capacity=4,
                             infer_fn=lambda uid: (np.ones(4)
                                                   if uid == "inferable"
                                                   else None))
        with obs.session() as telemetry:
            proxy.get_embedding("known")       # store
            proxy.get_embedding("known")       # cache
            proxy.get_embedding("inferable")   # inferred
            assert proxy.get_embedding("gone") is None  # miss
        reg = telemetry.registry
        by_source = {src: reg.get("serving.lookups", {"source": src}).value
                     for src in ("cache", "store", "inferred", "miss")}
        assert by_source == {"cache": 1, "store": 1, "inferred": 1, "miss": 1}
        assert reg.get("serving.lookup_seconds").count == 4

    def test_ivf_query_latency_and_candidates(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(200, 8))
        with obs.session() as telemetry:
            index = IVFIndex(dim=8, n_lists=8, nprobe=2, seed=0).fit(vectors)
            for q in vectors[:20]:
                index.query(q, k=5)
        reg = telemetry.registry
        assert reg.get("ivf.size").value == 200
        assert reg.get("ivf.query_batch_seconds").count == 20
        assert reg.get("ivf.candidates").count == 20


class TestHashTableInstrumentation:
    def test_grow_events_and_size_gauges(self):
        with obs.session() as telemetry:
            table = DynamicHashTable(name="tag")
            table.lookup(["a", "b", "c"])
            table.lookup(["b", "d"])
            table.lookup_one("e")
        reg = telemetry.registry
        assert reg.get("hash_table.grows", {"table": "tag"}).value == 5
        assert reg.get("hash_table.size", {"table": "tag"}).value == 5
        lf = reg.get("hash_table.load_factor", {"table": "tag"}).value
        assert lf == pytest.approx(table.load_factor)
        assert 0.0 < lf <= 2 / 3

    def test_frozen_lookup_reports_nothing(self):
        with obs.session() as telemetry:
            table = DynamicHashTable(name="t").freeze()
            table.lookup(["x", "y"])
        assert telemetry.registry.get("hash_table.grows", {"table": "t"}) is None

    def test_load_factor_bounds(self):
        table = DynamicHashTable()
        assert table.load_factor == 0.0
        for i in range(100):
            table.lookup_one(i)
            assert 0.0 < table.load_factor <= 2 / 3

    def test_grows_counter_without_session(self):
        table = DynamicHashTable()
        table.lookup(["a", "b"])
        table.lookup_one("c")
        assert table.grows == 3

    def test_fvae_tables_labelled_by_field(self, tiny_schema, tiny_dataset):
        with obs.session() as telemetry:
            model = make_model(tiny_schema)
            Trainer(model).fit(tiny_dataset, epochs=1, batch_size=3)
        grows = telemetry.registry.get("hash_table.grows", {"table": "tag"})
        assert grows is not None and grows.value > 0


class TestSamplingInstrumentation:
    def test_candidate_histograms(self, tiny_dataset):
        batch = tiny_dataset.batch(np.arange(6))
        fb = batch.fields["tag"]
        with obs.session() as telemetry:
            kept = select_candidates(fb, rate=0.5, rng=0, field="tag")
        reg = telemetry.registry
        cand = reg.get("sampling.candidates", {"field": "tag"})
        kept_hist = reg.get("sampling.kept", {"field": "tag"})
        assert cand.count == kept_hist.count == 1
        assert cand.sum == np.unique(fb.indices).size
        assert kept_hist.sum == kept.size
        assert kept_hist.sum <= cand.sum

    def test_rate_one_still_observed(self, tiny_dataset):
        fb = tiny_dataset.batch(np.arange(6)).fields["ch1"]
        with obs.session() as telemetry:
            select_candidates(fb, rate=1.0, field="ch1")
        cand = telemetry.registry.get("sampling.candidates", {"field": "ch1"})
        assert cand is not None and cand.count == 1

    def test_fit_populates_per_field_sampling(self):
        syn = make_kd_like(n_users=200, seed=0)
        with obs.session() as telemetry:
            make_model(syn.dataset.schema, sampling_rate=0.3).fit(
                syn.dataset, epochs=1, batch_size=64)
        sampled_fields = [spec.name for spec in syn.dataset.schema if spec.sample]
        assert sampled_fields
        for name in sampled_fields:
            cand = telemetry.registry.get("sampling.candidates",
                                          {"field": name})
            kept = telemetry.registry.get("sampling.kept", {"field": name})
            assert cand is not None and cand.count > 0
            assert kept.sum <= cand.sum
