"""MultiFieldDataset: batching, splitting, projections, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.reference import dense_targets
from repro.data import CSRMatrix, FieldSchema, FieldSpec, MultiFieldDataset


class TestConstruction:
    def test_missing_field_rejected(self, tiny_schema):
        with pytest.raises(ValueError, match="missing CSR"):
            MultiFieldDataset(tiny_schema, {"ch1": CSRMatrix.empty(3, 8)})

    def test_inconsistent_rows_rejected(self, tiny_schema):
        blocks = {"ch1": CSRMatrix.empty(3, 8), "ch2": CSRMatrix.empty(4, 20),
                  "tag": CSRMatrix.empty(3, 50)}
        with pytest.raises(ValueError, match="inconsistent user counts"):
            MultiFieldDataset(tiny_schema, blocks)

    def test_vocab_mismatch_rejected(self, tiny_schema):
        blocks = {"ch1": CSRMatrix.empty(3, 9), "ch2": CSRMatrix.empty(3, 20),
                  "tag": CSRMatrix.empty(3, 50)}
        with pytest.raises(ValueError, match="columns"):
            MultiFieldDataset(tiny_schema, blocks)

    def test_basic_accessors(self, tiny_dataset):
        assert tiny_dataset.n_users == 6
        assert len(tiny_dataset) == 6
        assert tiny_dataset.field_names == ["ch1", "ch2", "tag"]
        with pytest.raises(KeyError):
            tiny_dataset.field("nope")


class TestStats:
    def test_stats_fields(self, tiny_dataset):
        stats = tiny_dataset.stats()
        assert stats.n_users == 6
        assert stats.n_fields == 3
        assert stats.total_vocab == 78
        total_nnz = sum(tiny_dataset.field(f).nnz for f in tiny_dataset.field_names)
        np.testing.assert_allclose(stats.avg_features, total_nnz / 6)

    def test_feature_popularity(self, tiny_dataset):
        pop = tiny_dataset.feature_popularity("ch1")
        assert pop[0] == 2  # feature 0 appears for users 0 and 2
        assert pop.sum() == tiny_dataset.field("ch1").nnz

    def test_stats_str(self, tiny_dataset):
        assert "users=6" in str(tiny_dataset.stats())


class TestBatching:
    def test_batch_contents(self, tiny_dataset):
        batch = tiny_dataset.batch(np.array([0, 3]))
        assert batch.n_users == 2
        fb = batch["ch1"]
        np.testing.assert_array_equal(fb.indices, [0, 1, 3, 4])
        np.testing.assert_array_equal(fb.offsets, [0, 2, 4])

    def test_batch_counts(self, tiny_dataset):
        fb = tiny_dataset.batch(np.array([0, 4]))["ch1"]
        np.testing.assert_array_equal(fb.counts(), [2, 0])

    def test_unique_features_sorted(self, tiny_dataset):
        fb = tiny_dataset.batch(np.arange(6))["tag"]
        uniq = fb.unique_features()
        assert np.all(np.diff(uniq) > 0)

    # The dense reference targets (repro.check.reference) and the CSR
    # targets the product trains on must describe the same matrix.

    def test_dense_targets_full_candidates(self, tiny_dataset):
        fb = tiny_dataset.batch(np.array([0, 1]))["ch1"]
        targets = dense_targets(fb, np.arange(8))
        np.testing.assert_allclose(targets[0, 0], 2.0)  # weighted count
        np.testing.assert_allclose(targets[1, 2], 1.0)
        np.testing.assert_array_equal(
            fb.csr_targets(np.arange(8)).to_dense(), targets)

    def test_dense_targets_restricted_candidates_drop_outside(self, tiny_dataset):
        fb = tiny_dataset.batch(np.array([0]))["ch1"]  # features {0, 1}
        targets = dense_targets(fb, np.array([1, 5]))
        np.testing.assert_allclose(targets, [[1.0, 0.0]])
        block = fb.csr_targets(np.array([1, 5]))
        assert block.shape == (1, 2) and block.nnz == 1
        np.testing.assert_array_equal(block.to_dense(), targets)

    def test_dense_targets_empty_candidates(self, tiny_dataset):
        fb = tiny_dataset.batch(np.array([0]))["ch1"]
        targets = dense_targets(fb, np.empty(0, dtype=np.int64))
        assert targets.shape == (1, 0)
        block = fb.csr_targets(np.empty(0, dtype=np.int64))
        assert block.shape == (1, 0) and block.nnz == 0

    def test_csr_targets_sum_duplicates_and_binarize(self):
        schema = FieldSchema([FieldSpec("f", 10)])
        data = MultiFieldDataset.from_user_lists(
            schema, {"f": [[3, 1, 3, 3], [], [9, 1]]},
            {"f": [[0.5, 2.0, 1.0, 0.25], [], [4.0, 1.0]]})
        fb = data.batch(np.arange(3))["f"]
        columns = np.array([1, 3, 7])        # 9 is not a candidate
        block = fb.csr_targets(columns)
        np.testing.assert_array_equal(block.indptr, [0, 2, 2, 3])
        np.testing.assert_array_equal(block.indices, [0, 1, 0])
        np.testing.assert_array_equal(block.weights, [2.0, 1.75, 1.0])
        np.testing.assert_array_equal(block.to_dense(),
                                      dense_targets(fb, columns))
        binary = fb.csr_targets(columns, binarize=True)
        np.testing.assert_array_equal(binary.weights, [1.0, 1.0, 1.0])

    def test_iter_batches_covers_all_users_once(self, tiny_dataset):
        seen = np.concatenate([b.user_ids for b in
                               tiny_dataset.iter_batches(4, rng=0)])
        assert sorted(seen.tolist()) == list(range(6))

    def test_iter_batches_no_shuffle_is_ordered(self, tiny_dataset):
        batches = list(tiny_dataset.iter_batches(4, shuffle=False))
        np.testing.assert_array_equal(batches[0].user_ids, [0, 1, 2, 3])

    def test_iter_batches_invalid_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            list(tiny_dataset.iter_batches(0))


class TestRestructuring:
    def test_subset(self, tiny_dataset):
        sub = tiny_dataset.subset(np.array([5, 0]))
        assert sub.n_users == 2
        ids, __ = sub.field("ch1").row(0)
        np.testing.assert_array_equal(ids, [7])

    def test_project_fields(self, tiny_dataset):
        proj = tiny_dataset.project_fields(["ch1", "tag"])
        assert proj.field_names == ["ch1", "tag"]
        assert proj.n_users == 6

    def test_blank_fields_keeps_schema(self, tiny_dataset):
        blanked = tiny_dataset.blank_fields(["tag"])
        assert blanked.field_names == tiny_dataset.field_names
        assert blanked.field("tag").nnz == 0
        assert blanked.field("ch1").nnz == tiny_dataset.field("ch1").nnz

    def test_split_disjoint_and_complete(self, tiny_dataset):
        a, b = tiny_dataset.split([0.5, 0.5], rng=0)
        assert a.n_users + b.n_users == 6

    def test_split_fraction_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.split([0.8, 0.4])
        with pytest.raises(ValueError):
            tiny_dataset.split([-0.1])

    def test_split_deterministic(self, tiny_dataset):
        a1, __ = tiny_dataset.split([0.5, 0.5], rng=42)
        a2, __ = tiny_dataset.split([0.5, 0.5], rng=42)
        np.testing.assert_allclose(a1.field("tag").to_dense(),
                                   a2.field("tag").to_dense())

    def test_to_dense_concatenation(self, tiny_dataset):
        dense = tiny_dataset.to_dense(binary=True)
        assert dense.shape == (6, 78)
        # ch2 feature 0 of user 0 lives at offset 8
        assert dense[0, 8] == 1.0

    def test_to_scipy_matches_dense(self, tiny_dataset):
        sp = tiny_dataset.to_scipy(binary=True)
        np.testing.assert_allclose(sp.toarray(), tiny_dataset.to_dense(binary=True))
