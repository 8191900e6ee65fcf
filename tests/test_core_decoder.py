"""Field-aware decoder: shared trunk, per-field heads, batched softmax."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.reference import (csr_from_dense, logits_for_rows,
                                   softmax_nll_chain)
from repro.core.decoder import FieldAwareDecoder, FieldOutputHead
from repro.hashing import DynamicHashTable
from repro.nn import Tensor
from repro.nn import functional as F


@pytest.fixture()
def decoder(tiny_schema):
    tables = {spec.name: DynamicHashTable() for spec in tiny_schema}
    dec = FieldAwareDecoder(tiny_schema, latent_dim=4, hidden=[8],
                            tables=tables, capacity=8, rng=0)
    return dec, tables


def _log_probs(decoder, trunk, field, rows):
    return F.log_softmax(logits_for_rows(decoder.head(field), trunk, rows))


class TestFieldOutputHead:
    def test_logits_shape(self):
        head = FieldOutputHead(DynamicHashTable(), trunk_dim=4, capacity=8, rng=0)
        trunk = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        logits = logits_for_rows(head, trunk, np.array([0, 2, 5]))
        assert logits.shape == (3, 3)

    def test_capacity_grows_for_large_rows(self):
        head = FieldOutputHead(DynamicHashTable(), trunk_dim=4, capacity=4, rng=0)
        trunk = Tensor(np.zeros((1, 4)))
        logits_for_rows(head, trunk, np.array([100]))
        assert head.capacity >= 101

    def test_growth_preserves_weights(self):
        head = FieldOutputHead(DynamicHashTable(), trunk_dim=2, capacity=4, rng=0)
        before = head.weight.data[:4].copy()
        head.ensure_capacity(100)
        np.testing.assert_allclose(head.weight.data[:4], before)
        assert head.bias.data.shape == (head.weight.data.shape[0],)

    def test_gradients_row_sparse(self):
        head = FieldOutputHead(DynamicHashTable(), trunk_dim=3, capacity=8, rng=0)
        trunk = Tensor(np.ones((2, 3)))
        logits = logits_for_rows(head, trunk, np.array([1, 3]))
        logits.sum().backward()
        assert head.weight.sparse_grad_parts
        assert head.bias.sparse_grad_parts


class TestFieldAwareDecoder:
    def test_trunk_shape(self, decoder):
        dec, __ = decoder
        out = dec.trunk(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 8)

    def test_log_probs_normalised(self, decoder):
        dec, __ = decoder
        trunk = dec.trunk(Tensor(np.random.default_rng(0).normal(size=(3, 4))))
        lp = _log_probs(dec, trunk, "tag", np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(np.exp(lp.data).sum(axis=1), 1.0, atol=1e-12)

    def test_heads_are_independent(self, decoder):
        """Different fields have different output heads (Eq. 2)."""
        dec, __ = decoder
        assert dec.head("ch1") is not dec.head("tag")
        assert dec.head("ch1").weight is not dec.head("tag").weight

    def test_trunk_shared_across_fields(self, decoder):
        dec, __ = decoder
        z = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        trunk = dec.trunk(z)
        lp1 = _log_probs(dec, trunk, "ch1", np.array([0]))
        lp2 = _log_probs(dec, trunk, "ch2", np.array([0]))
        # single-candidate softmax: log prob must be 0 (prob 1) for both
        np.testing.assert_allclose(lp1.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(lp2.data, 0.0, atol=1e-12)

    def test_recon_nll_is_one_nll_per_field(self, decoder):
        dec, __ = decoder
        rng = np.random.default_rng(2)
        trunk = dec.trunk(Tensor(rng.normal(size=(3, 4))))
        fields = ["tag", "ch1"]
        rows = [np.array([0, 1, 2, 3]), np.array([5])]
        dense = [rng.integers(0, 2, size=(3, 4)).astype(float),
                 np.ones((3, 1))]
        nlls = dec.recon_nll(trunk, fields, rows,
                             [csr_from_dense(d) for d in dense], scale=0.5)
        assert nlls.shape == (2,)
        for k, field in enumerate(fields):
            head = dec.head(field)
            chain = softmax_nll_chain(trunk, head.weight, head.bias, rows[k],
                                      dense[k], 0.5)
            np.testing.assert_allclose(nlls.data[k], chain.data, rtol=1e-12)

    def test_full_scores_alignment(self, decoder):
        dec, tables = decoder
        tables["tag"].lookup([100, 200, 300])
        dec.head("tag").ensure_capacity(3)
        z = np.random.default_rng(0).normal(size=(2, 4))
        ids, rows, logits = dec.full_scores(z, "tag")
        assert logits.shape == (2, 3)
        assert set(ids.tolist()) == {100, 200, 300}
        # logits column order matches ids order
        trunk = dec.trunk(Tensor(z)).data
        head = dec.head("tag")
        expected = trunk @ head.weight.data[rows].T + head.bias.data[rows]
        np.testing.assert_allclose(logits, expected)

    def test_full_scores_empty_table(self, decoder):
        dec, __ = decoder
        ids, rows, logits = dec.full_scores(np.zeros((2, 4)), "ch1")
        assert ids.size == 0 and logits.shape == (2, 0)

    def test_full_scores_chunked_matches_unchunked(self, decoder):
        dec, tables = decoder
        tables["ch2"].lookup(list(range(15)))
        dec.head("ch2").ensure_capacity(15)
        z = np.random.default_rng(0).normal(size=(3, 4))
        __, __, big = dec.full_scores(z, "ch2", chunk=4096)
        __, __, small = dec.full_scores(z, "ch2", chunk=4)
        np.testing.assert_allclose(big, small)

    def test_requires_hidden(self, tiny_schema):
        tables = {spec.name: DynamicHashTable() for spec in tiny_schema}
        with pytest.raises(ValueError):
            FieldAwareDecoder(tiny_schema, 4, [], tables)
