"""Failure injection: degenerate inputs the production system must survive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig, Trainer
from repro.data import CSRMatrix, FieldSchema, FieldSpec, MultiFieldDataset


def dataset_with(rows_by_field, schema):
    return MultiFieldDataset.from_user_lists(schema, rows_by_field)


@pytest.fixture()
def schema():
    return FieldSchema([FieldSpec("a", 10), FieldSpec("b", 20, sample=True)])


def tiny_fvae(schema, **kw):
    params = dict(latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                  embedding_capacity=8, feature_dropout=0.0, seed=0)
    params.update(kw)
    return FVAE(schema, FVAEConfig(**params))


class TestDegenerateDatasets:
    def test_single_user(self, schema):
        data = dataset_with({"a": [[1, 2]], "b": [[3]]}, schema)
        model = tiny_fvae(schema)
        model.fit(data, epochs=2, batch_size=1)
        assert np.isfinite(model.history.final_loss)

    def test_entirely_empty_field(self, schema):
        data = dataset_with({"a": [[1], [2]], "b": [[], []]}, schema)
        model = tiny_fvae(schema)
        model.fit(data, epochs=2, batch_size=2)
        assert np.isfinite(model.history.final_loss)
        scores = model.score_field(data, "b")      # nothing known: floor scores
        assert scores.shape == (2, 20)

    def test_users_with_empty_profiles_mixed_in(self, schema):
        data = dataset_with({"a": [[1], [], [3]], "b": [[], [], [5]]}, schema)
        model = tiny_fvae(schema)
        model.fit(data, epochs=2, batch_size=3)
        emb = model.embed_users(data)
        assert np.isfinite(emb).all()

    def test_single_feature_field(self):
        schema = FieldSchema([FieldSpec("only", 1)])
        data = dataset_with({"only": [[0], [0], [0]]}, schema)
        model = tiny_fvae(schema)
        model.fit(data, epochs=2, batch_size=2)
        assert np.isfinite(model.history.final_loss)

    def test_duplicate_heavy_weights(self, schema):
        rows = {"a": [[1, 1, 1, 1]], "b": [[2]]}
        data = MultiFieldDataset.from_user_lists(
            schema, rows, weights={"a": [[1e6, 1e6, 1e6, 1e6]], "b": [[1.0]]})
        model = tiny_fvae(schema)
        loss, __ = model.elbo_components(data.batch(np.array([0])))
        assert np.isfinite(loss.item())

    def test_batch_larger_than_dataset(self, schema):
        data = dataset_with({"a": [[1], [2]], "b": [[3], [4]]}, schema)
        model = tiny_fvae(schema)
        model.fit(data, epochs=1, batch_size=1000)
        assert np.isfinite(model.history.final_loss)


class TestServingEdgeCases:
    def test_all_unknown_features_at_inference(self, schema):
        train = dataset_with({"a": [[1], [2]], "b": [[3], [4]]}, schema)
        model = tiny_fvae(schema)
        model.fit(train, epochs=1, batch_size=2)
        # completely disjoint feature ids
        fresh = dataset_with({"a": [[9], [8]], "b": [[19], [18]]}, schema)
        emb = model.embed_users(fresh)
        assert np.isfinite(emb).all()
        # both users encode identically (no known features)
        np.testing.assert_allclose(emb[0], emb[1])

    def test_eval_never_grows_tables(self, schema):
        train = dataset_with({"a": [[1]], "b": [[3]]}, schema)
        model = tiny_fvae(schema)
        model.fit(train, epochs=1, batch_size=1)
        before = model.encoder.bag("a").n_features
        fresh = dataset_with({"a": [[7]], "b": [[9]]}, schema)
        model.embed_users(fresh)
        model.score_field(fresh, "a")
        assert model.encoder.bag("a").n_features == before

    def test_trainer_continues_after_degenerate_batch(self, schema):
        """A batch of empty profiles mid-epoch must not break training."""
        rows_a = [[1], [], [], [2], [3]]
        rows_b = [[4], [], [], [5], [6]]
        data = dataset_with({"a": rows_a, "b": rows_b}, schema)
        model = tiny_fvae(schema)
        history = Trainer(model, lr=1e-2).fit(data, epochs=2, batch_size=2,
                                              rng=0)
        assert np.isfinite(history.final_loss)


