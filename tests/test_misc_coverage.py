"""Additional behavioural coverage across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MultVAE, PCAModel
from repro.core import FVAE, FVAEConfig
from repro.data import make_kd_like, make_qb_like, make_sc_like
from repro.experiments.common import BENCH, SMALL
from repro.sampling import UniformSampler, select_candidates
from repro.viz import TSNE


class TestBatchDeterminism:
    def test_iter_batches_same_seed_same_order(self, tiny_dataset):
        a = [b.user_ids.tolist() for b in tiny_dataset.iter_batches(2, rng=3)]
        b = [b.user_ids.tolist() for b in tiny_dataset.iter_batches(2, rng=3)]
        assert a == b

    def test_iter_batches_different_seed_different_order(self, tiny_dataset):
        a = [b.user_ids.tolist() for b in tiny_dataset.iter_batches(2, rng=3)]
        b = [b.user_ids.tolist() for b in tiny_dataset.iter_batches(2, rng=4)]
        assert a != b

    def test_full_fvae_run_deterministic(self, tiny_schema, tiny_dataset):
        def train():
            model = FVAE(tiny_schema,
                         FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                    decoder_hidden=[8], embedding_capacity=16,
                                    seed=9))
            model.fit(tiny_dataset, epochs=2, batch_size=3, lr=1e-3)
            return model.embed_users(tiny_dataset)

        np.testing.assert_allclose(train(), train())


class TestModelStateDicts:
    def test_multvae_round_trip(self, tiny_schema, tiny_dataset):
        a = MultVAE(tiny_schema, latent_dim=4, hidden=[8], seed=0)
        a.fit(tiny_dataset, epochs=1, batch_size=3)
        b = MultVAE(tiny_schema, latent_dim=4, hidden=[8], seed=99)
        b.load_state_dict(a.state_dict())
        # `a` was trained (and cast) at the default float32; `b` holds the
        # same values in its float64 arrays, so they agree to float32 eps.
        tol = 100 * np.finfo(np.float32).eps
        np.testing.assert_allclose(a.embed_users(tiny_dataset),
                                   b.embed_users(tiny_dataset),
                                   rtol=tol, atol=tol)

    def test_pca_center_toggle_changes_scores(self, sc_split):
        train, test = sc_split
        centered = PCAModel(latent_dim=8, center=True).fit(train)
        uncentered = PCAModel(latent_dim=8, center=False).fit(train)
        assert not np.allclose(centered.score_field(test, "tag"),
                               uncentered.score_field(test, "tag"))


class TestPresetShapes:
    @pytest.mark.parametrize("maker,bigger", [
        (make_kd_like, make_qb_like),   # KD > QB in vocab
        (make_qb_like, make_sc_like),   # QB > SC in vocab
    ])
    def test_vocab_ordering(self, maker, bigger):
        large = maker(n_users=100, seed=0).dataset.schema.total_vocab
        small = bigger(n_users=100, seed=0).dataset.schema.total_vocab
        assert large > small

    def test_tag_super_sparse(self):
        """Tags: few per user against the largest vocabulary (§IV-C3's regime)."""
        syn = make_sc_like(n_users=300, seed=0)
        stats = syn.dataset.stats()
        tag_avg = stats.per_field_avg["tag"]
        tag_vocab = stats.per_field_vocab["tag"]
        assert tag_vocab == max(stats.per_field_vocab.values())
        assert tag_avg / tag_vocab < 0.01

    def test_experiment_scales_exported(self):
        assert SMALL.n_users < BENCH.n_users


class TestSamplingDeterminism:
    def test_select_candidates_seeded(self, tiny_dataset):
        fb = tiny_dataset.batch(np.arange(6))["tag"]
        a = select_candidates(fb, rate=0.5, sampler=UniformSampler(), rng=5)
        b = select_candidates(fb, rate=0.5, sampler=UniformSampler(), rng=5)
        np.testing.assert_array_equal(a, b)


class TestTSNEEdgeCases:
    def test_perplexity_clamped_to_n_minus_one(self):
        """More perplexity than points must not crash (clamped internally)."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 4))
        out = TSNE(n_iter=30, perplexity=30.0, seed=0).fit_transform(x)
        assert out.shape == (8, 2)
        assert np.isfinite(out).all()

    def test_duplicate_points_survive(self):
        x = np.zeros((6, 3))
        x[3:] = 1.0
        out = TSNE(n_iter=30, perplexity=3.0, seed=0).fit_transform(x)
        assert np.isfinite(out).all()


class TestScoreFieldConsistency:
    def test_fvae_scores_batch_size_invariant(self, trained_fvae, sc_split):
        __, test = sc_split
        a = trained_fvae.score_field(test, "ch1", batch_size=16)
        b = trained_fvae.score_field(test, "ch1", batch_size=4096)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_blanked_field_does_not_change_other_inputs(self, trained_fvae,
                                                        sc_split):
        """Blanking tags must only remove tag information, nothing else."""
        __, test = sc_split
        emb_full = trained_fvae.embed_users(test)
        emb_blank_tag = trained_fvae.embed_users(test.blank_fields(["tag"]))
        emb_blank_all = trained_fvae.embed_users(
            test.blank_fields(test.field_names))
        # distance grows as more information is removed
        d_tag = np.linalg.norm(emb_full - emb_blank_tag, axis=1).mean()
        d_all = np.linalg.norm(emb_full - emb_blank_all, axis=1).mean()
        assert d_all > d_tag > 0
