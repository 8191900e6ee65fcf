"""Optimizers: dense vs sparse parity, convergence, state growth, and the
blocked row-sparse Adam kernel against the whole-array update it replaced."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.sharded import shm
from repro.nn import Adam, Parameter, Tensor
from repro.nn import functional as F
from repro.nn import optim
from repro.nn.optim import _coalesce, adam_step_size, adam_update_rows


class TestCoalesce:
    def test_single_part_passthrough(self):
        # Parts are duplicate-free on entry (Parameter.add_sparse_grad
        # coalesces or the caller promised uniqueness), so a single part is
        # consumed verbatim — row order included.
        rows = np.array([3, 1])
        grads = np.array([[3.0], [1.0]])
        out_rows, out_grads = _coalesce([(rows, grads)])
        assert out_rows is rows
        assert out_grads is grads

    def test_duplicates_summed(self):
        parts = [
            (np.array([0, 2]), np.array([[1.0], [2.0]])),
            (np.array([2, 0]), np.array([[10.0], [20.0]])),
        ]
        rows, grads = _coalesce(parts)
        np.testing.assert_array_equal(rows, [0, 2])
        np.testing.assert_allclose(grads.ravel(), [21.0, 12.0])

    def test_1d_grads(self):
        parts = [
            (np.array([1]), np.array([2.0])),
            (np.array([1]), np.array([3.0])),
        ]
        rows, grads = _coalesce(parts)
        np.testing.assert_array_equal(rows, [1])
        np.testing.assert_allclose(grads, [5.0])

    def test_entry_coalesce_keeps_parts_unique(self):
        p = Parameter(np.zeros((4, 1)), sparse=True)
        p.add_sparse_grad(np.array([1, 1, 3]), np.array([[2.0], [3.0], [4.0]]))
        rows, grads = _coalesce(p.sparse_grad_parts)
        np.testing.assert_array_equal(rows, [1, 3])
        np.testing.assert_allclose(grads.ravel(), [5.0, 4.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for __ in range(300):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, 0.0, atol=1e-3)

    def test_sparse_rows_only_touched(self):
        p = Parameter(np.ones((5, 2)), sparse=True)
        opt = Adam([p], lr=0.1)
        p.add_sparse_grad(np.array([1, 3]), np.ones((2, 2)))
        opt.step()
        np.testing.assert_allclose(p.data[[0, 2, 4]], 1.0)
        assert not np.allclose(p.data[1], 1.0)
        assert not np.allclose(p.data[3], 1.0)

    def test_sparse_and_dense_update_similarly_on_first_step(self):
        data = np.ones((3, 2))
        p_sparse = Parameter(data.copy(), sparse=True)
        p_dense = Parameter(data.copy())
        grads = np.arange(6, dtype=float).reshape(3, 2) + 1.0
        p_sparse.add_sparse_grad(np.arange(3), grads)
        p_dense.grad = grads.copy()
        Adam([p_sparse], lr=0.1).step()
        Adam([p_dense], lr=0.1).step()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, atol=1e-12)

    def test_state_grows_with_parameter(self):
        p = Parameter(np.ones((2, 2)), sparse=True)
        opt = Adam([p], lr=0.1)
        p.add_sparse_grad(np.array([0]), np.ones((1, 2)))
        opt.step()
        # dynamic hash table growth: parameter doubles
        p.data = np.vstack([p.data, np.ones((2, 2))])
        p.add_sparse_grad(np.array([3]), np.ones((1, 2)))
        opt.step()  # must not raise; state grew
        assert opt._m[id(p)].shape == (4, 2)

    def test_bias_correction_first_step_magnitude(self):
        # On step 1 Adam moves by ~lr regardless of gradient scale.
        p = Parameter(np.array([0.0]))
        p.grad = np.array([1e-4])
        Adam([p], lr=0.1).step()
        assert abs(p.data[0] + 0.1) < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_non_parameter_rejected(self):
        with pytest.raises(TypeError):
            Adam([Tensor(np.zeros(1), requires_grad=True)], lr=0.1)


def unblocked_update(value, m, v, rows, grads, step_size, beta1, beta2, eps):
    """Verbatim copy of ``Adam.step``'s sparse branch before it was blocked:
    every touched row gathered at once into ``[R, D]`` temporaries."""
    m_rows = m[rows]
    m_rows *= beta1
    m_rows += (1.0 - beta1) * grads
    sq = np.multiply(grads, grads)
    sq *= (1.0 - beta2)
    v_rows = v[rows]
    v_rows *= beta2
    v_rows += sq
    m[rows] = m_rows
    v[rows] = v_rows
    denom = np.sqrt(v_rows, out=v_rows)
    denom += eps
    update = np.multiply(m_rows, step_size, out=m_rows)
    update /= denom
    value[rows] -= update


def _block_rows(dtype, width) -> int:
    return optim._BLOCK_BYTES // (np.dtype(dtype).itemsize * (width or 1))


def _state(rng, capacity, width, dtype):
    shape = (capacity,) if width is None else (capacity, width)
    return (rng.normal(size=shape).astype(dtype),
            rng.normal(0.0, 0.01, size=shape).astype(dtype),
            (rng.random(shape) * 0.01).astype(dtype))


HYPER = (0.9, 0.999, 1e-8)


class TestBlockedRowKernel:
    """``adam_update_rows`` changes memory traffic, not arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           dtype=st.sampled_from([np.float32, np.float64]),
           # None: 1-D state (an output bias); 256: the encoder's row width
           width=st.sampled_from([None, 1, 5, 256, 300]),
           # row counts around the block boundaries, in blocks + a remainder
           blocks=st.sampled_from([0, 1, 2, 3]),
           extra=st.integers(-1, 7),
           sort_rows=st.booleans(),
           t=st.integers(1, 50))
    def test_bit_equal_to_the_unblocked_update(self, seed, dtype, width,
                                               blocks, extra, sort_rows, t):
        rng = np.random.default_rng(seed)
        n_rows = max(0, blocks * _block_rows(dtype, width) + extra)
        capacity = n_rows + 11
        rows = rng.permutation(capacity)[:n_rows]       # unique, unsorted
        if sort_rows:
            rows.sort()
        grads = rng.normal(size=(n_rows,) + (() if width is None else (width,))
                           ).astype(dtype)
        ref = _state(rng, capacity, width, dtype)
        got = [a.copy() for a in ref]
        step = adam_step_size(1e-3, 0.9, 0.999, t)
        grads_before = grads.copy()

        unblocked_update(*ref, rows, grads.copy(), step, *HYPER)
        adam_update_rows(*got, rows, grads, step, *HYPER)

        for name, a, b in zip(("value", "m", "v"), ref, got):
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(grads, grads_before)  # caller-visible

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_steps_with_decay_and_growth_match_the_reference(self, dtype):
        """Through ``Adam.step``: a parameter that a dynamic hash table grows
        between steps (moments grow with it).  Adam has no weight decay, so
        the decay is 0."""
        rng = np.random.default_rng(5)
        width, lr = 256, 1e-2
        value, m, v = _state(rng, 80, width, dtype)
        m[...] = 0
        v[...] = 0
        param = Parameter(value.copy(), sparse=True)
        opt = Adam([param], lr=lr)
        for t, capacity in enumerate((80, 80, 200, 200), start=1):
            if capacity != value.shape[0]:
                fresh = rng.normal(size=(capacity - value.shape[0], width)
                                   ).astype(dtype)
                param.data = np.vstack([param.data, fresh])
                value = np.vstack([value, fresh])
                pad = np.zeros_like(fresh)
                m, v = np.vstack([m, pad]), np.vstack([v, pad])
            rows = rng.permutation(capacity)[:70]   # > one block in float64
            grads = rng.normal(size=(70, width)).astype(dtype)
            param.add_sparse_grad(rows, grads, assume_unique=True)
            opt.step()
            param.zero_grad()
            unblocked_update(value, m, v, rows, grads,
                             adam_step_size(lr, 0.9, 0.999, t), *HYPER)
            np.testing.assert_array_equal(param.data, value, err_msg=f"t={t}")
            np.testing.assert_array_equal(opt._m[id(param)], m)
            np.testing.assert_array_equal(opt._v[id(param)], v)

    def test_shared_memory_slab_state(self):
        """The sharded trainer's shard owners pass slab views."""
        rng = np.random.default_rng(9)
        ref = _state(rng, 120, 256, np.float32)
        slabs = [shm.create(a.shape, a.dtype) for a in ref]
        try:
            for slab, a in zip(slabs, ref):
                slab.array[...] = a
            rows = rng.permutation(120)[:100]
            grads = rng.normal(size=(100, 256)).astype(np.float32)
            step = adam_step_size(1e-3, 0.9, 0.999, 3)
            adam_update_rows(*(s.array for s in slabs), rows, grads, step,
                             *HYPER)
            unblocked_update(*ref, rows, grads, step, *HYPER)
            for slab, a in zip(slabs, ref):
                np.testing.assert_array_equal(slab.array, a)
        finally:
            for slab in slabs:
                slab.close()

    def test_scratch_is_block_sized_whatever_the_row_count(self):
        rng = np.random.default_rng(0)
        capacity, width = 20_000, 256
        state = _state(rng, capacity, width, np.float64)
        peaks = {}
        for n_rows in (2_000, 16_000):
            rows = rng.permutation(capacity)[:n_rows]
            grads = rng.normal(size=(n_rows, width))
            tracemalloc.start()
            try:
                adam_update_rows(*state, rows, grads, 1e-3, *HYPER)
                __, peaks[n_rows] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # three gathered blocks plus NumPy's ufunc buffering, nothing per row
        bound = 6 * optim._BLOCK_BYTES
        assert max(peaks.values()) < bound, peaks
        assert bound < 2_000 * width * 8     # one [R, D] temporary of the old path

    def test_mixed_precision_is_refused(self):
        value, m, v = _state(np.random.default_rng(0), 8, 4, np.float32)
        rows, grads = np.arange(3), np.ones((3, 4))     # float64 gradient
        with pytest.raises(TypeError, match="float64"):
            adam_update_rows(value, m, v, rows, grads, 1e-3, *HYPER)
        param = Parameter(value, sparse=True)
        param.add_sparse_grad(rows, grads, assume_unique=True)
        with pytest.raises(TypeError, match="float64"):
            Adam([param]).step()
        dense = Parameter(np.zeros(4, dtype=np.float32), name="bias")
        dense.grad = np.ones(4)
        with pytest.raises(TypeError, match="bias is float64"):
            Adam([dense]).step()

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_row_ids_outside_the_state_are_refused(self, bad):
        value, m, v = _state(np.random.default_rng(0), 8, 4, np.float64)
        before = value.copy()
        with pytest.raises(IndexError):
            adam_update_rows(value, m, v, np.array([2, bad]), np.ones((2, 4)),
                             1e-3, *HYPER)
        np.testing.assert_array_equal(value, before)     # nothing half-applied


class TestEndToEndOptimization:
    def test_sparse_embedding_regression(self):
        """Embedding-bag + Adam learns a simple additive target."""
        rng = np.random.default_rng(0)
        w = Parameter(rng.normal(0, 0.1, size=(10, 1)), sparse=True)
        true = rng.normal(size=(10, 1))
        bags = [rng.integers(0, 10, size=3) for __ in range(50)]
        targets = np.array([[true[b].sum()] for b in bags])
        opt = Adam([w], lr=0.05)
        for __ in range(200):
            opt.zero_grad()
            idx = np.concatenate(bags)
            off = np.arange(0, 3 * len(bags) + 1, 3)
            pred = F.embedding_bag(w, idx, off)
            loss = ((pred - Tensor(targets)) ** 2.0).sum()
            loss.backward()
            opt.step()
        final = float(((w.data - true) ** 2).mean())
        # recoverable up to a constant shift across co-occurring items;
        # prediction error is the real check
        pred = np.array([[w.data[b].sum()] for b in bags])
        assert float(((pred - targets) ** 2).mean()) < 1e-2
