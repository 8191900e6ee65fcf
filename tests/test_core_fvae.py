"""FVAE model: ELBO, training dynamics, embedding, scoring, config effects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig


def tiny_config(**kw) -> FVAEConfig:
    defaults = dict(latent_dim=6, encoder_hidden=[16], decoder_hidden=[16],
                    beta=0.2, anneal_steps=10, embedding_capacity=16,
                    feature_dropout=0.0, seed=0)
    defaults.update(kw)
    return FVAEConfig(**defaults)


class TestElbo:
    def test_components_finite(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config())
        loss, diag = model.elbo_components(tiny_dataset.batch(np.arange(4)))
        assert np.isfinite(loss.item())
        assert diag["kl"] >= 0.0
        assert "nll_tag" in diag

    def test_alpha_weights_change_loss(self, tiny_schema, tiny_dataset):
        batch_idx = np.arange(6)
        base = FVAE(tiny_schema, tiny_config(input_dropout=0.0))
        weighted = FVAE(tiny_schema, tiny_config(alpha={"tag": 10.0},
                                                 input_dropout=0.0))
        l1, __ = base.elbo_components(tiny_dataset.batch(batch_idx), beta=0.0)
        l2, __ = weighted.elbo_components(tiny_dataset.batch(batch_idx), beta=0.0)
        assert l1.item() != pytest.approx(l2.item())

    def test_unknown_alpha_field_rejected(self, tiny_schema):
        with pytest.raises(ValueError, match="unknown fields"):
            FVAE(tiny_schema, tiny_config(alpha={"nope": 1.0}))

    def test_all_zero_alpha_rejected(self, tiny_schema):
        with pytest.raises(ValueError, match="positive alpha"):
            FVAE(tiny_schema, tiny_config(alpha={"ch1": 0.0, "ch2": 0.0,
                                                 "tag": 0.0}))

    def test_beta_zero_removes_kl_from_loss(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config())
        model.eval()
        batch = tiny_dataset.batch(np.arange(4))
        loss0, diag0 = model.elbo_components(batch, beta=0.0)
        np.testing.assert_allclose(loss0.item(), diag0["recon"], rtol=1e-10)

    def test_annealing_advances_with_steps(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config(beta=1.0, anneal_steps=100))
        batch = tiny_dataset.batch(np.arange(3))
        __, d0 = model.loss_on_batch(batch, step=0)
        __, d50 = model.loss_on_batch(batch, step=50)
        assert d0["beta"] == 0.0
        np.testing.assert_allclose(d50["beta"], 0.5)

    def test_empty_batch_fields_survive(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config())
        blank = tiny_dataset.blank_fields(["ch1", "ch2", "tag"])
        loss, __ = model.elbo_components(blank.batch(np.arange(2)))
        loss.backward()  # degenerate batch must still be differentiable
        assert np.isfinite(loss.item())

    def test_feature_sampling_reduces_candidates(self, tiny_schema, tiny_dataset):
        full = FVAE(tiny_schema, tiny_config(sampling_rate=1.0))
        sampled = FVAE(tiny_schema, tiny_config(sampling_rate=0.3))
        batch = tiny_dataset.batch(np.arange(6))
        __, d_full = full.elbo_components(batch)
        __, d_sampled = sampled.elbo_components(batch)
        # tag is the sampled field
        assert d_sampled["candidates_tag"] < d_full["candidates_tag"]
        # non-sampled fields are untouched
        assert d_sampled["candidates_ch1"] == d_full["candidates_ch1"]

    def test_eval_mode_disables_feature_sampling(self, tiny_schema, tiny_dataset):
        batch = tiny_dataset.batch(np.arange(6))
        model = FVAE(tiny_schema, tiny_config(sampling_rate=0.3))
        model.elbo_components(batch)  # populate tables in training mode
        model.eval()
        __, diag = model.elbo_components(batch)
        full = FVAE(tiny_schema, tiny_config(sampling_rate=1.0))
        full.elbo_components(batch)
        full.eval()
        __, diag_full = full.elbo_components(batch)
        assert diag["candidates_tag"] == diag_full["candidates_tag"]

    def test_batched_softmax_ablation_uses_full_vocab(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config(batched_softmax=False))
        batch = tiny_dataset.batch(np.arange(6))
        __, diag = model.elbo_components(batch)
        known_tags = model.encoder.bag("tag").n_features
        assert diag["candidates_tag"] == known_tags


class TestTraining:
    def test_loss_decreases(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config(anneal_steps=0, beta=0.0,
                                              input_dropout=0.0))
        model.fit(tiny_dataset, epochs=30, batch_size=6, lr=5e-3)
        history = model.history
        assert history.epochs[-1].loss < history.epochs[0].loss

    def test_history_has_throughput(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config())
        model.fit(tiny_dataset, epochs=2, batch_size=3)
        assert model.history.throughput > 0
        assert model.history.total_time > 0

    def test_tables_grow_during_training(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, tiny_config())
        assert model.encoder.bag("tag").n_features == 0
        model.fit(tiny_dataset, epochs=1, batch_size=3)
        seen_tags = np.unique(tiny_dataset.field("tag").indices).size
        assert model.encoder.bag("tag").n_features == seen_tags


class TestEmbeddingAndScoring:
    def test_embed_shape(self, trained_fvae, sc_split):
        train, __ = sc_split
        z = trained_fvae.embed_users(train)
        assert z.shape == (train.n_users, trained_fvae.config.latent_dim)
        assert np.isfinite(z).all()

    def test_embed_with_uncertainty(self, trained_fvae, sc_split):
        __, test = sc_split
        mu, sigma = trained_fvae.embed_users_with_uncertainty(test)
        assert mu.shape == sigma.shape
        assert np.all(sigma > 0)

    def test_embed_deterministic(self, trained_fvae, sc_split):
        __, test = sc_split
        a = trained_fvae.embed_users(test)
        b = trained_fvae.embed_users(test)
        np.testing.assert_allclose(a, b)

    def test_embedding_batch_size_invariant(self, trained_fvae, sc_split):
        __, test = sc_split
        a = trained_fvae.embed_users(test, batch_size=7)
        b = trained_fvae.embed_users(test, batch_size=512)
        # Batch size changes the GEMM blocking, hence the summation order:
        # equal to a few roundings of the precision the model runs at.
        tol = 100 * np.finfo(trained_fvae.dtype).eps
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)

    def test_score_field_shape_and_range(self, trained_fvae, sc_split):
        __, test = sc_split
        scores = trained_fvae.score_field(test, "tag")
        assert scores.shape == (test.n_users, test.schema["tag"].vocab_size)

    def test_unseen_features_score_minimal(self, trained_fvae, sc_split):
        __, test = sc_split
        scores = trained_fvae.score_field(test, "tag")
        known_ids, __ = trained_fvae.encoder.bag("tag").feature_rows()
        unseen = np.setdiff1d(np.arange(scores.shape[1]), known_ids)
        if unseen.size:
            assert scores[:, unseen].max() <= scores[:, known_ids].min()

    def test_fold_in_embedding_differs(self, trained_fvae, sc_split):
        __, test = sc_split
        full = trained_fvae.embed_users(test)
        fold = trained_fvae.embed_users(test.blank_fields(["tag"]))
        assert not np.allclose(full, fold)

    def test_reconstruction_beats_random(self, trained_fvae, sc_split):
        """A trained FVAE ranks a user's own features above random features."""
        from repro.metrics import mean_ranking_metrics
        __, test = sc_split
        scores = trained_fvae.score_field(test, "ch2")
        out = mean_ranking_metrics(scores, test.field("ch2").binarize())
        assert out["auc"] > 0.7


class TestSchemaMismatch:
    """A dataset with other fields is refused up front, naming both schemas."""

    @staticmethod
    def _message(model, dataset) -> str:
        return (f"dataset schema {dataset.schema!r} does not match "
                f"the model's schema {model.schema!r}")

    @pytest.mark.parametrize("call", [
        lambda m, d: m.embed_users(d),
        lambda m, d: m.embed_users_with_uncertainty(d),
        lambda m, d: m.score_field(d, "tag"),
    ], ids=["embed_users", "embed_users_with_uncertainty", "score_field"])
    def test_inference_raises(self, trained_fvae, tiny_dataset, call):
        with pytest.raises(ValueError) as info:
            call(trained_fvae, tiny_dataset)
        assert str(info.value) == self._message(trained_fvae, tiny_dataset)

    def test_fit_raises_before_training(self, tiny_schema, sc_split):
        train, __ = sc_split
        model = FVAE(tiny_schema, tiny_config())
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError) as info:
            model.fit(train, epochs=1)
        assert str(info.value) == self._message(model, train)
        assert not hasattr(model, "history")
        for old, param in zip(before, model.parameters()):
            np.testing.assert_array_equal(param.data, old)


class TestConfigValidation:
    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            FVAEConfig(sampling_rate=0.0)
        with pytest.raises(ValueError):
            FVAEConfig(sampling_rate=1.5)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            FVAEConfig(latent_dim=0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            FVAEConfig(beta=-0.1)

    def test_invalid_weighting(self):
        with pytest.raises(ValueError):
            FVAEConfig(input_weighting="sqrt")

    @pytest.mark.parametrize("name", ["codebook", "bogus"])
    def test_invalid_sampler_fails_at_construction(self, name):
        with pytest.raises(ValueError, match="sampler"):
            FVAEConfig(sampler=name)

    @pytest.mark.parametrize("name", ["uniform", "frequency", "zipfian"])
    def test_fig5_samplers_accepted(self, name):
        assert FVAEConfig(sampler=name).sampler == name

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FVAEConfig(embedding_capacity=0)
