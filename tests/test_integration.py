"""End-to-end integration tests across subsystems.

These exercise the same paths the benchmarks use, at a much smaller scale:
training pipelines, the experiment runners, the full look-alike loop, and the
ablation switches the design calls out.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig
from repro.experiments import (run_fig10, run_fig8, run_table1, run_table3,
                               run_table5)
from repro.experiments.common import ExperimentScale
from repro.lookalike import (EmbeddingStore, LookalikeSystem, OnlineABTest,
                             ServingProxy, UploaderBehaviorSimulator)
from repro.tasks import evaluate_tag_prediction

TINY = ExperimentScale(n_users=400, epochs=3, batch_size=128, latent_dim=16,
                       lr=3e-3, seed=0)


class TestExperimentRunners:
    """Every runner must execute end to end at tiny scale."""

    def test_table1_runs(self):
        result = run_table1(scale_users={"KD": 300, "QB": 250, "SC": 200})
        assert set(result.stats) == {"KD", "QB", "SC"}
        assert "Table I" in result.to_text()

    def test_table3_runs_with_subset(self):
        result = run_table3(scale=TINY, include=("PCA", "FVAE"))
        assert set(result.results) == {"PCA", "FVAE"}
        assert 0.0 <= result.results["FVAE"].auc <= 1.0

    def test_table5_runs(self):
        result = run_table5(scale=TINY, datasets=("SC",), epochs=1)
        assert len(result.rows) == 1
        assert result.rows[0].fvae_throughput > 0

    def test_fig8_runs(self):
        result = run_fig8(scale=TINY, betas=(0.0, 0.5))
        assert len(result.auc) == 2
        assert result.best_beta() in (0.0, 0.5)

    def test_fig10_runs(self):
        result = run_fig10(scale=TINY, workers=(2,))
        assert result.speedups[0] > 0


class TestLookalikePipeline:
    def test_full_loop(self, sc_small):
        dataset = sc_small.dataset
        model = FVAE(dataset.schema,
                     FVAEConfig(latent_dim=16, encoder_hidden=[64],
                                decoder_hidden=[64], seed=0))
        model.fit(dataset, epochs=3, batch_size=128, lr=3e-3)
        embeddings = model.embed_users(dataset)

        store = EmbeddingStore(dim=16)
        store.put_many(range(dataset.n_users), embeddings)
        proxy = ServingProxy(store, cache_capacity=64)
        served = proxy.get_embeddings_batch(list(range(10)))
        np.testing.assert_allclose(served, embeddings[:10])

        system = LookalikeSystem(embeddings)
        topic0 = np.flatnonzero(sc_small.topics == 0)
        expanded = system.expand_audience(topic0[:10], k=50)
        precision = np.isin(expanded, topic0).mean()
        base_rate = topic0.size / dataset.n_users
        assert precision > 2 * base_rate  # far better than random expansion

    def test_ab_test_with_trained_embeddings(self, sc_small, trained_fvae,
                                             sc_split):
        train, __ = sc_split
        # embeddings for the full small dataset using the trained model
        emb = trained_fvae.embed_users(sc_small.dataset)
        rng = np.random.default_rng(0)
        random_emb = rng.normal(size=emb.shape)
        simulator = UploaderBehaviorSimulator(sc_small.theta, n_accounts=30,
                                              followers_per_account=15, seed=0)
        report = OnlineABTest(simulator, k=5, seed=0).run(random_emb, emb)
        assert report.relative_change["#Following Click"] > 0


class TestAblations:
    """The design-choice ablations DESIGN.md calls out."""

    def test_batched_softmax_is_faster_than_full(self, sc_split,
                                                 monkeypatch):
        """Fixed work, best of three interleaved rounds after one warm-up
        fit per variant, timed in CPU seconds of this process: wall-clock
        time also counts whatever else shares the CPUs.

        The warm-up fits also pin the work: per batch, the candidate rows
        ``recon_nll`` scores are the batch's distinct features (batched) or
        every feature the tables hold so far (full)."""
        train, __ = sc_split
        from repro.core import Trainer
        from repro.obs.callbacks import TrainerCallback
        from repro.perf.pipeline import SyncLoader

        def fit_seconds(batched: bool, callbacks=()) -> float:
            model = FVAE(train.schema,
                         FVAEConfig(latent_dim=16, encoder_hidden=[64],
                                    decoder_hidden=[64],
                                    batched_softmax=batched, seed=0))
            start = time.process_time()
            Trainer(model, lr=2e-3).fit(train, epochs=2, batch_size=128, rng=0,
                                        callbacks=list(callbacks))
            return time.process_time() - start

        class Scored(TrainerCallback):
            def __init__(self):
                self.rows = []

            def on_batch_end(self, trainer, epoch, step, loss, diagnostics):
                self.rows.append(sum(v for k, v in diagnostics.items()
                                     if k.startswith("candidates_")))

        batches = []
        real_epoch = SyncLoader.epoch

        def recording_epoch(self, *args):
            for batch in real_epoch(self, *args):
                batches.append({name: fb.unique_with_counts()[0]
                                for name, fb in batch.fields.items()
                                if fb.indices.size})
                yield batch

        variants = (True, False)
        scored = {}
        for batched in variants:
            batches.clear()
            scored[batched] = Scored()
            with monkeypatch.context() as patch:
                patch.setattr(SyncLoader, "epoch", recording_epoch)
                fit_seconds(batched, [scored[batched]])
            if batched:
                expected = [sum(ids.size for ids in b.values())
                            for b in batches]
            else:
                seen: dict = {}
                expected = []
                for b in batches:
                    for name, ids in b.items():
                        seen[name] = np.union1d(seen.get(name, ids), ids)
                    expected.append(sum(seen[name].size for name in b))
            assert scored[batched].rows == expected
        per_epoch = {batched: sum(scored[batched].rows[len(batches) // 2:])
                     for batched in variants}
        assert per_epoch[True] < per_epoch[False]
        best = {batched: float("inf") for batched in variants}
        for __ in range(3):
            for batched in variants:
                best[batched] = min(best[batched], fit_seconds(batched))
        assert best[True] < best[False]

    def test_quality_preserved_with_moderate_sampling(self, sc_split):
        """Feature sampling r=0.5 must not collapse tag-prediction quality."""
        train, test = sc_split
        full = FVAE(train.schema,
                    FVAEConfig(latent_dim=16, encoder_hidden=[64],
                               decoder_hidden=[64], sampling_rate=1.0, seed=0))
        full.fit(train, epochs=4, batch_size=128, lr=3e-3)
        sampled = FVAE(train.schema,
                       FVAEConfig(latent_dim=16, encoder_hidden=[64],
                                  decoder_hidden=[64], sampling_rate=0.5,
                                  seed=0))
        sampled.fit(train, epochs=4, batch_size=128, lr=3e-3)
        auc_full = evaluate_tag_prediction(full, test, rng=0).auc
        auc_sampled = evaluate_tag_prediction(sampled, test, rng=0).auc
        assert auc_sampled > auc_full - 0.05

    def test_dynamic_hashing_beats_static_collisions(self, sc_split):
        """Collapsing the input space with static hashing costs quality."""
        from repro.baselines import MultVAE
        from repro.hashing import FeatureHasher

        train, test = sc_split
        clean = MultVAE(train.schema, latent_dim=16, hidden=[64], seed=0)
        clean.fit(train, epochs=4, batch_size=128, lr=3e-3)
        collided = MultVAE(train.schema, latent_dim=16, hidden=[64],
                           hasher=FeatureHasher(n_buckets=128), seed=0)
        collided.fit(train, epochs=4, batch_size=128, lr=3e-3)
        auc_clean = evaluate_tag_prediction(clean, test, rng=0).auc
        auc_collided = evaluate_tag_prediction(collided, test, rng=0).auc
        assert auc_clean > auc_collided

    def test_field_aware_heads_beat_single_softmax_per_field(self, sc_split,
                                                             trained_fvae):
        """FVAE per-field reconstruction ≥ Mult-VAE's (the Table II claim)."""
        from repro.baselines import MultVAE
        from repro.tasks import evaluate_reconstruction

        train, test = sc_split
        multvae = MultVAE(train.schema, latent_dim=24, hidden=[128],
                          anneal_steps=150, seed=7)
        multvae.fit(train, epochs=10, batch_size=200, lr=3e-3)
        rec_fvae = evaluate_reconstruction(trained_fvae, test)
        rec_mv = evaluate_reconstruction(multvae, test)
        wins = sum(rec_fvae.per_field[f]["auc"] > rec_mv.per_field[f]["auc"]
                   for f in test.field_names)
        assert wins >= 3
