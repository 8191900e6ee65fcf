"""Synthetic generators: statistical shape of the generated data."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import (PAPER_STATS, TopicFieldConfig, barabasi_albert_profiles,
                        generate_topic_profiles, get_dataset, make_kd_like,
                        make_qb_like, make_sc_like)
from repro.data.synthetic import _sample_topics_per_draw


class TestTopicProfiles:
    def make(self, **kwargs):
        defaults = dict(
            n_users=400,
            fields=[TopicFieldConfig("ch", 50, 6.0),
                    TopicFieldConfig("tag", 500, 15.0, sample=True)],
            n_topics=5, seed=0)
        defaults.update(kwargs)
        return generate_topic_profiles(**defaults)

    def test_shapes_and_ground_truth(self):
        syn = self.make()
        assert syn.dataset.n_users == 400
        assert syn.topics.shape == (400,)
        assert syn.theta.shape == (400, 5)
        np.testing.assert_allclose(syn.theta.sum(axis=1), 1.0)

    def test_primary_topic_dominates_mixture(self):
        syn = self.make(topic_purity=0.9)
        assert (syn.theta.argmax(axis=1) == syn.topics).mean() > 0.99

    def test_every_user_has_features(self):
        syn = self.make()
        assert np.all(syn.dataset.field("ch").row_nnz() >= 1)

    def test_sample_flag_propagates_to_schema(self):
        syn = self.make()
        assert syn.dataset.schema["tag"].sample
        assert not syn.dataset.schema["ch"].sample

    def test_power_law_popularity(self):
        """Top decile of features holds far more than its uniform share (10%)."""
        syn = self.make(n_users=1000)
        pop = np.sort(syn.dataset.feature_popularity("tag"))[::-1]
        top_decile = pop[: max(len(pop) // 10, 1)].sum()
        assert top_decile / pop.sum() > 0.3

    def test_topic_correlation_across_fields(self):
        """Users sharing a topic overlap more than users from different topics."""
        syn = self.make(n_users=600, topic_purity=0.95)
        dense = syn.dataset.field("tag").to_dense(binary=True)
        same, diff = [], []
        rng = np.random.default_rng(0)
        for __ in range(300):
            i, j = rng.integers(0, 600, size=2)
            overlap = (dense[i] * dense[j]).sum()
            (same if syn.topics[i] == syn.topics[j] else diff).append(overlap)
        assert np.mean(same) > np.mean(diff)

    def test_weights_are_counts(self):
        syn = self.make()
        __, weights = syn.dataset.field("tag").row(0)
        assert np.all(weights >= 1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            self.make(n_users=0)
        with pytest.raises(ValueError):
            self.make(topic_purity=1.5)
        with pytest.raises(ValueError):
            self.make(n_topics=0)
        with pytest.raises(ValueError):
            generate_topic_profiles(10, [TopicFieldConfig("x", 0, 5.0)])

    def test_deterministic_given_seed(self):
        a = self.make(seed=7)
        b = self.make(seed=7)
        np.testing.assert_array_equal(a.topics, b.topics)
        np.testing.assert_allclose(a.dataset.field("tag").to_dense(),
                                   b.dataset.field("tag").to_dense())


class TestBarabasiAlbert:
    def test_shapes(self):
        ds = barabasi_albert_profiles(300, avg_features=10, max_features=500, seed=0)
        assert ds.n_users == 300
        assert ds.schema.total_vocab == 500

    def test_avg_feature_size_close_to_target(self):
        ds = barabasi_albert_profiles(1000, avg_features=20, max_features=5000, seed=0)
        avg = ds.stats().avg_features
        assert 10 < avg <= 25  # dedup pulls it slightly under the Poisson mean

    def test_vocab_never_exceeds_max(self):
        ds = barabasi_albert_profiles(500, avg_features=50, max_features=100, seed=0)
        assert ds.field("feat").indices.max() < 100

    def test_preferential_attachment_skews_degrees(self):
        """BA popularity is heavy-tailed: max degree far above the mean."""
        ds = barabasi_albert_profiles(1000, avg_features=20, max_features=2000, seed=0)
        pop = ds.feature_popularity("feat")
        used = pop[pop > 0]
        assert used.max() > 10 * used.mean()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            barabasi_albert_profiles(0, 10, 100)
        with pytest.raises(ValueError):
            barabasi_albert_profiles(10, -1, 100)


class TestPresets:
    @pytest.mark.parametrize("maker", [make_sc_like, make_kd_like, make_qb_like])
    def test_four_fields(self, maker):
        syn = maker(n_users=120, scale=0.1, seed=0)
        assert syn.dataset.field_names == ["ch1", "ch2", "ch3", "tag"]
        assert syn.dataset.schema["tag"].sample

    def test_tag_field_dominates_vocab(self):
        syn = make_sc_like(n_users=100, seed=0)
        vocabs = {s.name: s.vocab_size for s in syn.dataset.schema}
        assert vocabs["tag"] > sum(v for k, v in vocabs.items() if k != "tag")

    def test_registry(self):
        syn = get_dataset("SC", n_users=80, seed=0)
        assert syn.name == "SC-like"
        with pytest.raises(KeyError):
            get_dataset("unknown")

    def test_paper_stats_table(self):
        assert PAPER_STATS["SC"].total_vocab == 130_159
        assert PAPER_STATS["KD"].n_fields == 4

    def test_scale_shrinks(self):
        big = make_sc_like(n_users=200, scale=1.0, seed=0)
        small = make_sc_like(n_users=200, scale=0.5, seed=0)
        assert small.dataset.n_users < big.dataset.n_users
        assert small.dataset.schema.total_vocab < big.dataset.schema.total_vocab

    @pytest.mark.parametrize("n_topics", [1, 3, 8])
    def test_topic_sampler_matches_the_dense_comparison(self, n_topics):
        rng = np.random.default_rng(n_topics)
        theta = rng.dirichlet(np.ones(n_topics), size=50)
        owners = rng.integers(0, 50, size=2000)
        got = _sample_topics_per_draw(theta, owners, np.random.default_rng(0))
        u = np.random.default_rng(0).random(owners.size)
        cum = np.cumsum(theta, axis=1)
        expected = (u[:, None] > cum[owners]).sum(axis=1).clip(max=n_topics - 1)
        np.testing.assert_array_equal(got, expected)

    def test_kd_generator_bits_and_peak_memory(self):
        # The digest pins every field's CSR arrays; the peak bound fails the
        # (draws × topics) float64 gather the topic sampler used to build
        # (47.8 MB at this size, 27.7 MB without it on numpy 2.4).
        tracemalloc.start()
        try:
            dataset = make_kd_like(n_users=8192, seed=0).dataset
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        digest = hashlib.sha256()
        for name in dataset.field_names:
            csr = dataset.field(name)
            for array in (csr.indptr, csr.indices, csr.weights):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "db1776f5354d40e903e6b11dadc07ef96211498423ecc52f7a6dedad35db71ce")
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
