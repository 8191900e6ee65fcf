"""The embedding bag as a CSR product: values, gradients, contracts, memory.

The kernel hands raw index arrays to compiled SciPy code, so everything a
caller can get wrong is checked here against a naive per-bag Python loop —
forward and backward, on every bag shape the encoder can produce.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import HashedEmbeddingBag
from repro.data.dataset import FieldBatch
from repro.distributed.sharded import shm
from repro.nn import Parameter
from repro.nn import functional as F

TOL = {np.float32: 1e-5, np.float64: 1e-12}


def naive_bag(weight, indices, offsets, piw, grad):
    """Reference ``(out, dW)``: one Python loop over bags and their ids."""
    out = np.zeros((offsets.size - 1, weight.shape[1]), dtype=weight.dtype)
    d_weight = np.zeros_like(weight)
    for bag in range(offsets.size - 1):
        for j in range(offsets[bag], offsets[bag + 1]):
            a = weight.dtype.type(1.0 if piw is None else piw[j])
            out[bag] += a * weight[indices[j]]
            d_weight[indices[j]] += a * grad[bag]
    return out, d_weight


@st.composite
def bag_batches(draw):
    """Bags with empties, repeats inside a bag and rows shared across bags."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=0, max_size=8))
    vocab = draw(st.integers(1, 6))   # small: duplicates are the norm
    return (sizes, vocab, draw(st.booleans()), draw(st.booleans()),
            draw(st.sampled_from([np.float32, np.float64])),
            draw(st.integers(0, 10_000)))


def _operands(sizes, vocab, weighted, dtype, rng, capacity=9, dim=3):
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    indices = rng.integers(0, vocab, size=int(offsets[-1]))
    piw = rng.uniform(0.5, 2.0, size=indices.size) if weighted else None
    weight = rng.normal(size=(capacity, dim)).astype(dtype)
    grad = rng.normal(size=(len(sizes), dim)).astype(dtype)
    return weight, indices, offsets, piw, grad


class TestAgainstNaiveLoop:
    @given(bag_batches())
    @settings(max_examples=150, deadline=None)
    def test_forward_and_backward(self, case):
        sizes, vocab, weighted, sparse, dtype, seed = case
        weight, indices, offsets, piw, grad = _operands(
            sizes, vocab, weighted, dtype, np.random.default_rng(seed))
        want_out, want_grad = naive_bag(weight, indices, offsets, piw, grad)

        param = Parameter(weight.copy(), sparse=sparse)
        out = F.embedding_bag(param, indices, offsets, piw)
        out.backward(grad)
        got_grad = param.densify_grad()

        assert out.data.dtype == dtype and got_grad.dtype == dtype
        np.testing.assert_allclose(out.data, want_out, atol=TOL[dtype])
        np.testing.assert_allclose(got_grad, want_grad, atol=TOL[dtype])
        raw, bags = F.embedding_bag_data(weight, indices, offsets, piw)
        np.testing.assert_array_equal(raw, out.data)
        assert bags.size == indices.size

    def test_same_id_twice_in_a_bag_and_in_many_bags(self):
        weight = Parameter(np.arange(12.0).reshape(4, 3), sparse=True)
        indices = np.array([2, 2, 2, 1, 2])
        out = F.embedding_bag(weight, indices, np.array([0, 2, 3, 5]))
        np.testing.assert_array_equal(
            out.data, [2 * weight.data[2], weight.data[2],
                       weight.data[1] + weight.data[2]])
        out.backward(np.ones((3, 3)))
        (rows, grads), = weight.sparse_grad_parts
        np.testing.assert_array_equal(rows, [1, 2])
        np.testing.assert_array_equal(grads, [[1.0] * 3, [4.0] * 3])

    def test_all_empty_batch(self):
        weight = Parameter(np.ones((4, 3)), sparse=True)
        out = F.embedding_bag(weight, np.empty(0, dtype=np.int64),
                              np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(out.data, np.zeros((3, 3)))
        out.backward(np.ones((3, 3)))
        np.testing.assert_array_equal(weight.densify_grad(), 0.0)


class TestSparsePartContract:
    """What ``distributed.sharded``'s shard splitter and Adam rely on."""

    @given(bag_batches())
    @settings(max_examples=60, deadline=None)
    def test_one_part_rows_ascending_unique_int64(self, case):
        sizes, vocab, weighted, __, dtype, seed = case
        weight, indices, offsets, piw, grad = _operands(
            sizes, vocab, weighted, dtype, np.random.default_rng(seed))
        param = Parameter(weight, sparse=True)
        F.embedding_bag(param, indices, offsets, piw).backward(grad)
        (rows, grads), = param.sparse_grad_parts
        assert rows.dtype == np.int64
        assert np.all(np.diff(rows) > 0)
        np.testing.assert_array_equal(rows, np.unique(indices))
        assert grads.shape == (rows.size, weight.shape[1])
        assert grads.dtype == dtype


class TestUnknownIds:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_dropped_in_eval_on_both_forwards(self, weighted):
        bag = HashedEmbeddingBag(dim=3, capacity=8, rng=0)
        bag.lookup(np.array([10, 11, 12]), grow=True)
        bag.eval()
        # user 0: one known + one unknown id; user 1: only unknown; user 2: known
        field = FieldBatch(indices=np.array([10, 99, 98, 12, 11]),
                           offsets=np.array([0, 2, 3, 5]), weights=None,
                           vocab_size=100)
        piw = np.array([1.0, 5.0, 7.0, 2.0, 3.0]) if weighted else None
        w = bag.weight.data
        scale = piw if weighted else np.ones(5)
        want = np.stack([scale[0] * w[0], np.zeros(3),
                         scale[3] * w[2] + scale[4] * w[1]])
        got = bag(field, piw)
        np.testing.assert_allclose(got.data, want, atol=1e-15)
        np.testing.assert_array_equal(bag.forward_arrays(field, piw),
                                      got.data)
        got.backward(np.ones((3, 3)))
        (rows, grads), = bag.weight.sparse_grad_parts
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_allclose(
            grads, np.outer(scale[[0, 4, 3]], np.ones(3)), atol=1e-15)


class TestOperandChecks:
    """The compiled kernel checks nothing, so the Python entry point must."""

    def test_row_ids_out_of_range(self):
        weight = Parameter(np.ones((4, 2)))
        for bad in (4, -1):
            with pytest.raises(IndexError, match="outside"):
                F.embedding_bag(weight, np.array([0, bad]), np.array([0, 2]))

    def test_decreasing_offsets(self):
        weight = Parameter(np.ones((4, 2)))
        with pytest.raises(ValueError, match="non-decreasing"):
            F.embedding_bag(weight, np.array([0, 1]), np.array([0, 3, 2]))

    def test_per_index_weights_length(self):
        weight = Parameter(np.ones((4, 2)))
        with pytest.raises(ValueError):
            F.embedding_bag(weight, np.array([0, 1]), np.array([0, 2]),
                            np.ones(3))

    @pytest.mark.parametrize("view", [
        lambda w: w[:, ::2],                  # strided columns
        np.asfortranarray,                    # column-major
        lambda w: w[::2],                     # strided rows
    ])
    def test_non_contiguous_weight_is_refused(self, view):
        weight = view(np.ones((8, 6)))
        with pytest.raises(ValueError, match="C-contiguous"):
            F.embedding_bag_data(weight, np.array([0]), np.array([0, 1]))

    def test_shared_memory_slab_views_are_accepted(self):
        slab = shm.create((8, 6))
        try:
            slab.array[...] = np.arange(48.0).reshape(8, 6)
            want = slab.array[2] + slab.array[5]
            for weight, ids in ((slab.array, [2, 5]), (slab.array[2:6], [0, 3])):
                out, __ = F.embedding_bag_data(weight, np.array(ids),
                                               np.array([0, 2]))
                np.testing.assert_array_equal(out, [want])
        finally:
            slab.close()


def test_forward_backward_allocates_neither_nnz_by_d_nor_capacity_by_d():
    """Peak scratch of one 2048-bag step stays O(B·D + nnz)."""
    rng = np.random.default_rng(0)
    n_bags, per_bag, dim, capacity = 2048, 12, 64, 50_000
    nnz = n_bags * per_bag
    weight = Parameter(rng.normal(size=(capacity, dim)), sparse=True)
    indices = rng.integers(0, 1500, size=nnz)       # U <= 1500 < B rows touched
    offsets = np.arange(0, nnz + 1, per_bag)
    piw = rng.random(nnz)
    grad = rng.normal(size=(n_bags, dim))
    itemsize = weight.data.itemsize

    F.embedding_bag(weight, indices, offsets, piw).backward(grad)  # warm imports
    weight.zero_grad()
    tracemalloc.start()
    try:
        F.embedding_bag(weight, indices, offsets, piw).backward(grad)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # out (B·D) + dW (U·D <= B·D) with 2x slack, plus nnz-long index arrays
    bound = 4 * n_bags * dim * itemsize + 8 * nnz * 8
    assert peak < bound, f"peak {peak / 2**20:.1f} MB >= {bound / 2**20:.1f} MB"
    assert bound < nnz * dim * itemsize          # the old [nnz, D] gather
    assert bound < capacity * dim * itemsize     # a ravel() copy of the weight
