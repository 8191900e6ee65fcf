"""Dtype propagation: every op/layer/loss preserves float32 end to end.

Float32 training (``Trainer(precision="float32")``, the default) only
pays off if no op silently upcasts to float64 mid-graph — one stray
``np.float64`` constant and every downstream buffer doubles in width.  The
sweep below runs each differentiable building block in both precisions and
asserts the output *and the gradients* keep the input dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.reference import csr_from_dense
from repro.core import FVAE, FVAEConfig
from repro.core.trainer import Trainer
from repro.obs.callbacks import TrainerCallback
from repro.nn import (MLP, Linear, Parameter, Tensor, functional as F,
                      gaussian_kl, gaussian_kl_to, mse, multinomial_nll)

DTYPES = [np.float32, np.float64]


def _t(rng, shape, dtype, requires_grad=True):
    return Tensor(rng.normal(size=shape).astype(dtype),
                  requires_grad=requires_grad)


def _param(rng, shape, dtype, sparse=False):
    return Parameter(rng.normal(0.0, 0.1, size=shape).astype(dtype),
                     sparse=sparse)


def _bag_args(rng):
    indices = rng.integers(0, 16, size=10)
    offsets = np.array([0, 3, 7, 10], dtype=np.int64)
    return indices, offsets


# name -> build(rng, dtype) returning (scalar_loss, wrt_tensors)
def _unary(op_name):
    def build(rng, dtype):
        x = _t(rng, (4, 3), dtype)
        return getattr(F, op_name)(x).sum(), [x]
    return build


def _case_log(rng, dtype):
    x = Tensor((rng.random((4, 3)) + 0.5).astype(dtype), requires_grad=True)
    return F.log(x).sum(), [x]


def _case_rows(rng, dtype):
    w = _param(rng, (8, 5), dtype, sparse=True)
    return F.rows(w, np.array([1, 3, 3, 6])).sum(), [w]


def _case_take(rng, dtype):
    w = _param(rng, (12,), dtype, sparse=True)
    return F.take(w, np.array([0, 4, 4, 9])).sum(), [w]


def _case_embedding_bag(rng, dtype):
    w = _param(rng, (16, 6), dtype, sparse=True)
    indices, offsets = _bag_args(rng)
    weights = rng.random(indices.size).astype(dtype)
    return F.embedding_bag(w, indices, offsets, weights).sum(), [w]


def _case_sampled_softmax(rng, dtype):
    h = _t(rng, (3, 6), dtype)
    w = _param(rng, (20, 6), dtype, sparse=True)
    b = Parameter(np.zeros(20, dtype=dtype), sparse=True)
    cand = np.array([0, 2, 5, 9, 13])
    targets = csr_from_dense((rng.random((3, 5)) < 0.4).astype(np.float64))
    out = F.sampled_softmax_nll(h, [w], [b], [cand], [targets], scale=0.5)
    return out.sum(), [h, w, b]


def _case_softmax(rng, dtype):
    x = _t(rng, (4, 5), dtype)
    return (F.softmax(x, axis=-1) * 2.0).sum(), [x]


def _case_log_softmax(rng, dtype):
    x = _t(rng, (4, 5), dtype)
    return F.log_softmax(x, axis=-1).sum(), [x]


def _case_dropout(rng, dtype):
    x = _t(rng, (6, 4), dtype)
    return F.dropout(x, 0.4, np.random.default_rng(7)).sum(), [x]


def _case_concat(rng, dtype):
    a, b = _t(rng, (3, 2), dtype), _t(rng, (3, 4), dtype)
    return F.concat([a, b], axis=-1).sum(), [a, b]


def _case_stack_rows(rng, dtype):
    a, b = _t(rng, (5,), dtype), _t(rng, (5,), dtype)
    return F.stack_rows([a, b]).sum(), [a, b]


def _case_linear(rng, dtype):
    layer = Linear(4, 3).astype(dtype)
    x = _t(rng, (5, 4), dtype)
    return layer(x).sum(), [x] + list(layer.parameters())


def _case_mlp(rng, dtype):
    mlp = MLP([4, 6, 2], activation="tanh").astype(dtype)
    x = _t(rng, (3, 4), dtype)
    return mlp(x).sum(), [x] + list(mlp.parameters())


def _case_mse(rng, dtype):
    pred = _t(rng, (4, 3), dtype)
    target = rng.normal(size=(4, 3)).astype(dtype)
    return mse(pred, target), [pred]


def _case_multinomial_nll(rng, dtype):
    logits = _t(rng, (3, 6), dtype)
    targets = rng.integers(0, 3, size=(3, 6)).astype(dtype)
    return multinomial_nll(F.log_softmax(logits, axis=-1), targets), [logits]


def _case_gaussian_kl(rng, dtype):
    mu, logvar = _t(rng, (4, 3), dtype), _t(rng, (4, 3), dtype)
    return gaussian_kl(mu, logvar), [mu, logvar]


def _case_gaussian_kl_to(rng, dtype):
    mu, logvar = _t(rng, (4, 3), dtype), _t(rng, (4, 3), dtype)
    prior_mu = rng.normal(size=(4, 3)).astype(dtype)
    prior_lv = rng.normal(size=(4, 3)).astype(dtype)
    return gaussian_kl_to(mu, logvar, prior_mu, prior_lv), [mu, logvar]


CASES = {
    "relu": _unary("relu"),
    "tanh": _unary("tanh"),
    "sigmoid": _unary("sigmoid"),
    "exp": _unary("exp"),
    "softplus": _unary("softplus"),
    "log": _case_log,
    "rows": _case_rows,
    "take": _case_take,
    "embedding_bag": _case_embedding_bag,
    "sampled_softmax_nll": _case_sampled_softmax,
    "softmax": _case_softmax,
    "log_softmax": _case_log_softmax,
    "dropout": _case_dropout,
    "concat": _case_concat,
    "stack_rows": _case_stack_rows,
    "Linear": _case_linear,
    "MLP": _case_mlp,
    "mse": _case_mse,
    "multinomial_nll": _case_multinomial_nll,
    "gaussian_kl": _case_gaussian_kl,
    "gaussian_kl_to": _case_gaussian_kl_to,
}


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("case", sorted(CASES))
def test_op_preserves_dtype(case, dtype):
    rng = np.random.default_rng(0)
    loss, wrt = CASES[case](rng, dtype)
    assert loss.data.dtype == dtype, f"{case}: forward upcast to {loss.data.dtype}"
    loss.backward()
    for i, t in enumerate(wrt):
        grad = t.densify_grad() if isinstance(t, Parameter) else t.grad
        assert grad is not None, f"{case}: wrt[{i}] got no gradient"
        assert grad.dtype == dtype, \
            f"{case}: wrt[{i}] gradient upcast to {grad.dtype}"


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("weights", [None, np.float32, np.float64],
                         ids=["unweighted", "w32", "w64"])
def test_embedding_bag_follows_the_weight_dtype(dtype, sparse, weights):
    # The per-index weights are cast to the embedding dtype, whatever they
    # arrive as: float64 input weights must not widen a float32 model.
    rng = np.random.default_rng(0)
    w = _param(rng, (16, 6), dtype, sparse=sparse)
    indices, offsets = _bag_args(rng)
    piw = None if weights is None else rng.random(indices.size).astype(weights)
    raw, __ = F.embedding_bag_data(w.data, indices, offsets, piw)
    out = F.embedding_bag(w, indices, offsets, piw)
    assert raw.dtype == dtype and out.data.dtype == dtype
    out.sum().backward()
    assert w.densify_grad().dtype == dtype
    for __, grad_rows in w.sparse_grad_parts:
        assert grad_rows.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_ndarray_tensor_interop_keeps_tensor_dtype(dtype):
    # __array_priority__ routes ndarray <op> Tensor to the reflected
    # operators; without it numpy iterates the Tensor element-wise and the
    # result is a float64 object array of per-element graph nodes
    x = Tensor(np.ones((2, 3), dtype=dtype), requires_grad=True)
    left = np.full((2, 3), 2.0, dtype=dtype) - x
    assert isinstance(left, Tensor)
    assert left.data.dtype == dtype
    left.sum().backward()
    assert x.grad.dtype == dtype


class TestFloat32Training:
    def test_fvae_float32_fit_stays_float32(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, FVAEConfig(
            latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
            anneal_steps=5, embedding_capacity=16, seed=0))
        trainer = Trainer(model, lr=1e-3, precision="float32")
        history = trainer.fit(tiny_dataset, epochs=2, batch_size=3, rng=0)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert all(np.isfinite(e.loss) for e in history.epochs)

    def test_float32_fit_keeps_optimizer_state_float32(self, tiny_schema,
                                                       tiny_dataset):
        # 6 users / batch 4 leaves a ragged last batch every epoch
        model = FVAE(tiny_schema, _tiny_config())
        trainer = Trainer(model, lr=1e-3, precision="float32")
        history = trainer.fit(tiny_dataset, epochs=3, batch_size=4, rng=0)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert all(np.isfinite(e.loss) for e in history.epochs)
        # optimizer state adopted the cast dtype (moments built lazily)
        for key, state in trainer.optimizer.state_arrays().items():
            if key != "t":
                assert state.dtype == np.float32, key

    def test_float32_and_float64_losses_agree_loosely(self, tiny_schema,
                                                      tiny_dataset):
        def run(precision):
            model = FVAE(tiny_schema, FVAEConfig(
                latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                anneal_steps=5, embedding_capacity=16, seed=0))
            trainer = Trainer(model, lr=1e-3, precision=precision)
            hist = trainer.fit(tiny_dataset, epochs=2, batch_size=3, rng=0)
            return [e.loss for e in hist.epochs]

        f64 = np.asarray(run(None))
        f32 = np.asarray(run("float32"))
        np.testing.assert_allclose(f32, f64, rtol=1e-3)


def _tiny_config(**overrides) -> FVAEConfig:
    return FVAEConfig(latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                      anneal_steps=5, embedding_capacity=16, seed=0,
                      **overrides)


class _StepProbe(TrainerCallback):
    """Per-step losses, plus every dtype the first step left behind."""

    def __init__(self) -> None:
        self.losses: list[float] = []
        self.dtypes: dict[str, set] = {}

    def on_batch_end(self, trainer, epoch, step, loss, diagnostics) -> None:
        self.losses.append(loss)
        if self.dtypes:
            return
        found = {"param": set(), "grad": set(), "moment": set()}
        for p in trainer.model.parameters():
            found["param"].add(p.data.dtype)
            if p.grad is not None:
                found["grad"].add(p.grad.dtype)
            found["grad"].update(g.dtype for __, g in p.sparse_grad_parts)
        for key, state in trainer.optimizer.state_arrays().items():
            if key != "t":
                found["moment"].add(state.dtype)
        self.dtypes = found


class TestDefaultPrecision:
    # both decoder paths: the batched softmax and the full-vocabulary ablation
    @pytest.mark.parametrize("batched_softmax", [True, False])
    def test_default_fit_step_is_float32_throughout(self, tiny_schema,
                                                    tiny_dataset,
                                                    batched_softmax):
        probe = _StepProbe()
        FVAE(tiny_schema, _tiny_config(batched_softmax=batched_softmax)).fit(
            tiny_dataset, epochs=1, batch_size=3, callbacks=[probe])
        assert probe.dtypes == {"param": {np.dtype(np.float32)},
                                "grad": {np.dtype(np.float32)},
                                "moment": {np.dtype(np.float32)}}

    def test_float64_stays_selectable_and_reproduces_pinned_losses(
            self, tiny_schema, tiny_dataset):
        # Literals from the commit before float32 became the default (when
        # float64 was): the first three per-step losses of this run.
        probe = _StepProbe()
        FVAE(tiny_schema, _tiny_config()).fit(
            tiny_dataset, epochs=2, batch_size=2, rng=0, callbacks=[probe],
            precision="float64")
        assert probe.dtypes["param"] == {np.dtype(np.float64)}
        # rel 1e-9: far inside float32's 1e-7, outside cross-BLAS drift
        assert probe.losses[:3] == pytest.approx(
            [2.1518139039639657, 1.103269171649152, 2.838848133877579],
            rel=1e-9)
