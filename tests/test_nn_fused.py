"""Batched-softmax kernel: worker vs inline, vs the dense chain, vs finite
differences.

:func:`repro.nn.functional.sampled_softmax_nll` scores CSR targets with one
task per field.  Run with a field worker thread its fields split across two
threads, and the result must be *bit*-identical to the inline run: same loss
floats, same gradient arrays for ``h`` and every parameter.  Against the
dense reference chain of :mod:`repro.check.reference` it sums the same terms
in another order, so it is held to a dtype-scaled tolerance there — over
duplicate features (summed or binarized), weighted counts, empty rows,
candidate sets that exclude features, and a single candidate.  The tests
also check the kernel against finite differences and property-test the
gradient-coalescing segment sum against the ``np.add.at`` reference.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.reference import (chain_tolerance, csr_from_dense,
                                   dense_targets, softmax_nll_chain)
from repro.data import FieldSchema, FieldSpec, MultiFieldDataset
from repro.nn import functional as F
from repro.nn.parallel import FieldWorker
from repro.nn.tensor import Parameter, Tensor, coalesce_rows

VOCAB, DIM, BATCH, CAND = 64, 8, 12, 24
SPLIT = (8, 1, 7, 8)   # the candidate set cut into four fields, C = 1 included


def _inputs(seed: int = 0, sorted_cand: bool = True):
    rng = np.random.default_rng(seed)
    h_data = rng.normal(size=(BATCH, DIM))
    w_data = rng.normal(0.0, 0.1, size=(VOCAB, DIM))
    b_data = rng.normal(0.0, 0.1, size=VOCAB)
    cand = rng.choice(VOCAB, size=CAND, replace=False)
    if sorted_cand:
        cand = np.sort(cand)
    targets = (rng.random((BATCH, CAND)) < 0.2).astype(np.float64)
    targets[0, 0] = 3.0  # weighted (count) targets, not just binary
    return h_data, w_data, b_data, cand, targets


def _kernel(h_data, fields, scale, sparse, worker=False):
    """Run the kernel over ``fields`` = [(w_data, b_data, cand, dense)];
    returns (nlls, h.grad, [(weight, bias)])."""
    h = Tensor(h_data.copy(), requires_grad=True)
    params = [(Parameter(w.copy(), sparse=sparse),
               Parameter(b.copy(), sparse=sparse)) for w, b, *__ in fields]
    seed = np.arange(1, len(fields) + 1, dtype=h_data.dtype)  # 1 for one
    with FieldWorker() if worker else nullcontext():
        nlls = F.sampled_softmax_nll(
            h, [w for w, __ in params], [b for __, b in params],
            [cand for *__, cand, __ in fields],
            [csr_from_dense(dense) for *__, dense in fields], scale=scale)
        (nlls * Tensor(seed)).sum().backward()
    return nlls.data, h.grad, params


def _fused(h_data, w_data, b_data, cand, targets, scale, sparse):
    nlls, gh, [(weight, bias)] = _kernel(
        h_data, [(w_data, b_data, cand, targets)], scale, sparse)
    return float(nlls[0]), gh, weight, bias


def _split_fields(w_data, b_data, cand, targets):
    edges = np.cumsum((0,) + SPLIT)
    return [(w_data, b_data, cand[lo:hi], targets[:, lo:hi])
            for lo, hi in zip(edges[:-1], edges[1:])]


class TestFusedBitExactness:
    """Fields split across a worker thread: every bit of the inline run."""

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("sorted_cand", [True, False],
                             ids=["sorted", "unsorted"])
    def test_loss_and_grads_bit_exact(self, sparse, sorted_cand):
        h_data, w_data, b_data, cand, targets = _inputs(sorted_cand=sorted_cand)
        fields = _split_fields(w_data, b_data, cand, targets)
        inline = _kernel(h_data, fields, 1.0 / BATCH, sparse)
        split = _kernel(h_data, fields, 1.0 / BATCH, sparse, worker=True)

        assert inline[0].tobytes() == split[0].tobytes()
        assert np.array_equal(inline[1], split[1])
        for (w1, b1), (w2, b2) in zip(inline[2], split[2]):
            assert np.array_equal(w1.densify_grad(), w2.densify_grad())
            assert np.array_equal(b1.densify_grad(), b2.densify_grad())

    def test_sparse_params_record_single_unique_part(self):
        h_data, w_data, b_data, cand, targets = _inputs()
        __, __, weight, bias = _fused(
            h_data, w_data, b_data, cand, targets, 1.0, sparse=True)
        for param in (weight, bias):
            assert len(param.sparse_grad_parts) == 1
            rows, grads = param.sparse_grad_parts[0]
            assert np.array_equal(np.sort(rows), np.unique(rows))
            assert grads.shape[0] == rows.size

    def test_scale_applied_to_loss_and_grads(self):
        h_data, w_data, b_data, cand, targets = _inputs()
        loss1, h1, w1, b1 = _fused(h_data, w_data, b_data, cand, targets,
                                   1.0, sparse=False)
        loss2, h2, w2, b2 = _fused(h_data, w_data, b_data, cand, targets,
                                   0.25, sparse=False)
        assert loss2 == pytest.approx(0.25 * loss1)
        np.testing.assert_allclose(h2, 0.25 * h1, rtol=1e-12)
        np.testing.assert_allclose(w2.densify_grad(), 0.25 * w1.densify_grad(),
                                   rtol=1e-12)
        np.testing.assert_allclose(b2.densify_grad(), 0.25 * b1.densify_grad(),
                                   rtol=1e-12)


def _field_batch(rng):
    """Nine users over 30 features: duplicates inside rows, weighted counts,
    and an empty row."""
    rows, weights = [], []
    for user in range(9):
        n = 0 if user == 2 else int(rng.integers(1, 9))
        rows.append(rng.integers(0, 30, size=n).tolist())
        weights.append(rng.uniform(0.5, 3.0, size=n).tolist())
    schema = FieldSchema([FieldSpec("f", 30)])
    data = MultiFieldDataset.from_user_lists(schema, {"f": rows},
                                             {"f": weights})
    return data.batch(np.arange(9))["f"]


class TestKernelVsChain:
    """CSR kernel vs the dense reference chain at a dtype-scaled tolerance."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("binarize", [False, True],
                             ids=["counts", "binarized"])
    @pytest.mark.parametrize("candidates", ["all", "subset", "single"])
    def test_matches_chain(self, dtype, binarize, candidates):
        rng = np.random.default_rng(5)
        fb = _field_batch(rng)
        cand = fb.unique_features()
        if candidates == "subset":     # features outside are dropped
            cand = cand[::2]
        elif candidates == "single":
            cand = cand[:1]
        dense = dense_targets(fb, cand)
        if binarize:
            dense = (dense > 0).astype(np.float64)
        h_data = rng.normal(size=(fb.n_users, DIM)).astype(dtype)
        w_data = rng.normal(0.0, 0.3, size=(30, DIM)).astype(dtype)
        b_data = rng.normal(0.0, 0.1, size=30).astype(dtype)

        h = Tensor(h_data.copy(), requires_grad=True)
        weight = Parameter(w_data.copy(), sparse=True)
        bias = Parameter(b_data.copy(), sparse=True)
        nll = F.sampled_softmax_nll(h, [weight], [bias], [cand],
                                    [fb.csr_targets(cand, binarize)], 0.25)
        nll.sum().backward()

        rh = Tensor(h_data.copy(), requires_grad=True)
        rw = Parameter(w_data.copy(), sparse=True)
        rb = Parameter(b_data.copy(), sparse=True)
        chain = softmax_nll_chain(rh, rw, rb, cand, dense, 0.25)
        chain.backward()

        tol = chain_tolerance(dtype)
        for got, want in ((nll.data[0], chain.data), (h.grad, rh.grad),
                          (weight.densify_grad(), rw.densify_grad()),
                          (bias.densify_grad(), rb.densify_grad())):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol,
                                       atol=tol * np.abs(want).max())

    def test_mismatched_targets_rejected(self):
        h = Tensor(np.zeros((3, DIM)), requires_grad=True)
        w = Parameter(np.zeros((5, DIM)))
        b = Parameter(np.zeros(5))
        with pytest.raises(ValueError, match="do not match"):
            F.sampled_softmax_nll(h, [w], [b], [np.array([0, 1])],
                                  [csr_from_dense(np.ones((3, 3)))])
        with pytest.raises(ValueError, match="one weight"):
            F.sampled_softmax_nll(h, [], [], [], [])


class TestFusedFiniteDifference:
    """The analytic gradients must agree with central differences."""

    EPS = 1e-6

    def _loss(self, h_data, w_data, b_data, cand, targets, scale):
        logits = h_data @ w_data[cand].T + b_data[cand]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1,
                                                         keepdims=True))
        return float(-(targets * log_probs).sum() * scale)

    def test_grads_match_central_differences(self):
        h_data, w_data, b_data, cand, targets = _inputs(seed=7)
        scale = 1.0 / BATCH
        __, gh, weight, bias = _fused(h_data, w_data, b_data, cand, targets,
                                      scale, sparse=True)
        gw = weight.densify_grad()
        gb = bias.densify_grad()

        rng = np.random.default_rng(11)
        for __ in range(6):
            i, j = rng.integers(BATCH), rng.integers(DIM)
            hp, hm = h_data.copy(), h_data.copy()
            hp[i, j] += self.EPS
            hm[i, j] -= self.EPS
            num = (self._loss(hp, w_data, b_data, cand, targets, scale)
                   - self._loss(hm, w_data, b_data, cand, targets, scale)
                   ) / (2 * self.EPS)
            assert gh[i, j] == pytest.approx(num, abs=1e-6)

        for __ in range(6):
            r, j = cand[rng.integers(CAND)], rng.integers(DIM)
            wp, wm = w_data.copy(), w_data.copy()
            wp[r, j] += self.EPS
            wm[r, j] -= self.EPS
            num = (self._loss(h_data, wp, b_data, cand, targets, scale)
                   - self._loss(h_data, wm, b_data, cand, targets, scale)
                   ) / (2 * self.EPS)
            assert gw[r, j] == pytest.approx(num, abs=1e-6)

        for __ in range(6):
            r = cand[rng.integers(CAND)]
            bp, bm = b_data.copy(), b_data.copy()
            bp[r] += self.EPS
            bm[r] -= self.EPS
            num = (self._loss(h_data, w_data, bp, cand, targets, scale)
                   - self._loss(h_data, w_data, bm, cand, targets, scale)
                   ) / (2 * self.EPS)
            assert gb[r] == pytest.approx(num, abs=1e-6)

    def test_rows_outside_candidates_get_zero_grad(self):
        h_data, w_data, b_data, cand, targets = _inputs()
        __, __, weight, bias = _fused(h_data, w_data, b_data, cand, targets,
                                      1.0, sparse=True)
        outside = np.setdiff1d(np.arange(VOCAB), cand)
        assert np.all(weight.densify_grad()[outside] == 0.0)
        assert np.all(bias.densify_grad()[outside] == 0.0)


class TestCoalesceRows:
    """coalesce_rows is the segment-sum replacement for np.add.at scatter."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                    max_size=120),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_matches_add_at_on_duplicate_heavy_indices(self, idx, seed):
        rows = np.asarray(idx, dtype=np.int64)
        grads = np.random.default_rng(seed).normal(size=(rows.size, 3))
        unique, summed = coalesce_rows(rows, grads)

        reference = np.zeros((16, 3))
        np.add.at(reference, rows, grads)

        assert np.array_equal(unique, np.unique(rows))
        dense = np.zeros((16, 3))
        dense[unique] = summed
        np.testing.assert_allclose(dense, reference, rtol=1e-12, atol=1e-12)

    def test_sorted_unique_input_returned_unchanged(self):
        rows = np.array([1, 4, 9], dtype=np.int64)
        grads = np.arange(6.0).reshape(3, 2)
        out_rows, out_grads = coalesce_rows(rows, grads)
        assert out_rows is rows
        assert out_grads is grads

    def test_1d_grads(self):
        rows = np.array([3, 1, 3, 1, 1], dtype=np.int64)
        grads = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out_rows, out_grads = coalesce_rows(rows, grads)
        assert out_rows.tolist() == [1, 3]
        np.testing.assert_allclose(out_grads, [11.0, 4.0])


class TestAssumeUnique:
    """The assume_unique fast path records parts verbatim — and is a promise."""

    def test_part_recorded_as_is(self):
        p = Parameter(np.zeros((10, 4)), sparse=True)
        rows = np.array([7, 2, 5], dtype=np.int64)  # unsorted but unique
        grads = np.ones((3, 4))
        p.add_sparse_grad(rows, grads, assume_unique=True)
        stored_rows, stored_grads = p.sparse_grad_parts[0]
        assert stored_rows is rows
        assert stored_grads is grads

    def test_default_path_coalesces(self):
        p = Parameter(np.zeros((10, 4)), sparse=True)
        rows = np.array([5, 2, 5], dtype=np.int64)
        grads = np.ones((3, 4))
        p.add_sparse_grad(rows, grads)
        stored_rows, stored_grads = p.sparse_grad_parts[0]
        assert stored_rows.tolist() == [2, 5]
        np.testing.assert_allclose(stored_grads[1], 2.0 * np.ones(4))

    def test_dense_scatter_assume_unique_matches_default(self):
        rows = np.array([4, 0, 9], dtype=np.int64)
        grads = np.random.default_rng(3).normal(size=(3, 4))
        a = Parameter(np.zeros((10, 4)))
        a.scatter_add_grad(rows, grads, assume_unique=True)
        b = Parameter(np.zeros((10, 4)))
        b.scatter_add_grad(rows, grads)
        assert np.array_equal(a.grad, b.grad)
