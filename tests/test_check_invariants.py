"""repro.check.invariants: verifiers, trainer callback, the check gate."""

from __future__ import annotations

import io
import re

import numpy as np
import pytest

from repro.check import (InvariantCallback, elbo_consistent, finite_grads,
                         finite_params, kl_nonneg, moment_shapes,
                         table_bijection)
from repro.cli import main
from repro.core import FVAE, FVAEConfig
from repro.core.trainer import Trainer
from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.obs import runtime as obs


def tiny_model(seed: int = 0) -> Linear:
    return Linear(3, 2, rng=np.random.default_rng(seed))


def good_diag() -> dict:
    return {"loss": 2.5, "recon": 2.0, "kl": 2.5, "beta": 0.2}


class TestVerifiers:
    def test_finite_params_clean(self):
        assert finite_params(tiny_model()) == []

    def test_finite_params_catches_nan(self):
        model = tiny_model()
        model.weight.data[0, 0] = np.nan
        violations = finite_params(model)
        assert len(violations) == 1
        assert violations[0].check == "finite_params"
        assert "weight" in violations[0].subject

    def test_finite_grads_catches_inf_dense(self):
        model = tiny_model()
        model.weight.grad = np.full_like(model.weight.data, np.inf)
        assert len(finite_grads(model)) == 1

    def test_finite_grads_catches_bad_sparse_part(self):
        model = tiny_model()
        model.weight.sparse_grad_parts.append(
            (np.array([0]), np.array([[np.nan, 1.0, 2.0]])))
        violations = finite_grads(model)
        assert violations and "sparse" in violations[0].subject
        model.weight.zero_grad()

    def test_finite_grads_catches_out_of_range_rows(self):
        model = tiny_model()
        model.weight.sparse_grad_parts.append(
            (np.array([99]), np.ones((1, 3))))
        violations = finite_grads(model)
        assert any("row indices" in v.message for v in violations)
        model.weight.zero_grad()

    def test_kl_nonneg(self):
        assert kl_nonneg({"kl": 0.3}) == []
        assert kl_nonneg({"kl": -1e-12}) == []  # roundoff tolerated
        assert len(kl_nonneg({"kl": -0.5})) == 1
        assert kl_nonneg({}) == []  # no KL reported: nothing to check

    def test_elbo_consistent(self):
        assert elbo_consistent(good_diag()) == []
        bad = dict(good_diag(), loss=99.0)
        violations = elbo_consistent(bad)
        assert len(violations) == 1 and "recon + beta*kl" in violations[0].message
        assert elbo_consistent({"loss": 1.0}) == []  # partial diag: skip

    def test_table_bijection_on_real_model(self, tiny_schema):
        model = FVAE(tiny_schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                             decoder_hidden=[8], seed=0))
        assert table_bijection(model) == []
        # Corrupt one table: duplicate row assignment breaks the bijection
        table = model.encoder.bag("tag").table
        table.lookup([5, 6, 7])
        table._index[6] = table._index[5]
        violations = table_bijection(model)
        assert violations and violations[0].check == "table_bijection"

    def test_moment_shapes(self):
        model = tiny_model()
        opt = Adam(list(model.parameters()), lr=1e-3)
        model.weight.grad = np.ones_like(model.weight.data)
        model.bias.grad = np.ones_like(model.bias.data)
        opt.step()
        assert moment_shapes(opt) == []
        opt._m[id(model.weight)] = np.zeros((5, 9))  # corrupt a moment buffer
        violations = moment_shapes(opt)
        assert violations and violations[0].check == "moment_shapes"


class TestCallback:
    def test_clean_training_run_has_no_violations(self, tiny_dataset):
        model = FVAE(tiny_dataset.schema,
                     FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                decoder_hidden=[8], seed=0))
        callback = InvariantCallback()
        Trainer(model, lr=1e-3).fit(tiny_dataset, epochs=2, batch_size=3,
                                    rng=0, callbacks=[callback])
        assert callback.violations == []

    def test_non_strict_accumulates_and_counts(self):
        callback = InvariantCallback()
        trainer_stub = type("T", (), {"model": tiny_model()})()
        with obs.session() as telemetry:   # every step is checked
            callback.on_batch_end(trainer_stub, 0, 1, 2.0, {"kl": -1.0})
            callback.on_batch_end(trainer_stub, 0, 2, 2.0, {"kl": -1.0})
        assert len(callback.violations) == 2
        counter = telemetry.registry.get("invariant.violations",
                                         {"check": "kl_nonneg"})
        assert counter.value == 2


def _overallocating_state(self, p):
    """Adam's moment lookup with an off-by-one capacity bug: moments are
    allocated one row longer than their parameter, and a view of the
    right length is handed to the update, so training runs on unaware."""
    key = id(p)
    want = (p.data.shape[0] + 1,) + p.data.shape[1:]
    if key not in self._m or self._m[key].shape[0] < want[0]:
        for moments in (self._m, self._v):
            grown = np.zeros(want, dtype=p.data.dtype)
            old = moments.get(key)
            if old is not None:
                grown[:old.shape[0]] = old
            moments[key] = grown
    n = p.data.shape[0]
    return self._m[key][:n], self._v[key][:n]


class TestCheckGate:
    """``repro check`` trains its golden mini-run under the callback, so a
    seeded mutation that breaks an invariant fails the command by name."""

    def test_overallocated_adam_moments_fail_the_gate(self, monkeypatch):
        # Training numerics are unchanged, so every oracle and golden digest
        # passes under this mutation: moment_shapes is the only check that
        # sees it.
        monkeypatch.setattr(Adam, "_state", _overallocating_state)
        out = io.StringIO()
        assert main(["check", "--quick"], out=out) == 1
        text = out.getvalue()
        assert "run: invariant moment_shapes[" in text
        assert re.search(r"^oracles: .* — 0 failed$", text, re.MULTILINE)
        assert "check: FAIL" in text
