"""Table growth at the training precision is bit-identical to grow-then-cast.

``FVAE.fit`` casts the model (builds its ``Trainer``) before the warm start
grows the hashed tables, so a float32 run never holds float64 tables.  The
old order — grow in float64, then cast — is still what ``Trainer`` does when
``initialize_from_dataset`` runs first, and is the reference here: after the
same steps the parameters and Adam moments must match bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig
from repro.core.trainer import Trainer
from repro.data import make_kd_like
from repro.nn import init
from repro.obs.callbacks import TrainerCallback
from repro.resilience import Checkpointer

FIT = dict(epochs=2, batch_size=128, lr=1e-3, rng=0)


class Kill(RuntimeError):
    """Stand-in for SIGKILL: raised from a callback to abort training."""


class Capture(TrainerCallback):
    """Keeps the trainer (for its optimizer); optionally kills after n steps."""

    def __init__(self, kill_after: int | None = None) -> None:
        self.trainer = None
        self.kill_after = kill_after
        self.steps = 0

    def on_batch_end(self, trainer, epoch, step, loss, diagnostics) -> None:
        self.trainer = trainer
        self.steps += 1
        if self.steps == self.kill_after:
            raise Kill()


@pytest.fixture(scope="module")
def dataset():
    return make_kd_like(n_users=512, seed=3).dataset


@pytest.fixture(autouse=True)
def small_draws(monkeypatch):
    # A few rows per draw, so every growth spans many chunks.
    monkeypatch.setattr(init, "_DRAW_BYTES", 200)


def make_model(dataset) -> FVAE:
    return FVAE(dataset.schema, FVAEConfig(
        latent_dim=4, encoder_hidden=[16], decoder_hidden=[16],
        embedding_capacity=16, anneal_steps=5, seed=0))


def grow_then_cast(dataset, precision, warm_start_bias=True):
    model = make_model(dataset)
    if warm_start_bias:
        model.initialize_from_dataset(dataset)
    trainer = Trainer(model, lr=FIT["lr"], precision=precision)
    trainer.fit(dataset, epochs=FIT["epochs"], batch_size=FIT["batch_size"],
                rng=FIT["rng"])
    return model, trainer.optimizer


def assert_same_state(model, optimizer, ref_model, ref_optimizer):
    ref_state = ref_model.state_dict()
    for key, value in model.state_dict().items():
        assert value.dtype == ref_state[key].dtype, key
        np.testing.assert_array_equal(value, ref_state[key], err_msg=key)
    ref_moments = ref_optimizer.state_arrays()
    moments = optimizer.state_arrays()
    assert set(moments) == set(ref_moments)
    for key, value in moments.items():
        assert value.dtype == ref_moments[key].dtype, key
        np.testing.assert_array_equal(value, ref_moments[key], err_msg=key)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grow_rows_matches_one_float64_draw(dtype):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    table = np.arange(6.0).reshape(3, 2).astype(dtype)
    grown = init.grow_rows(table, 40, rng, 0.01)      # 37 rows, 4 draws
    assert grown.shape == (40, 2) and grown.dtype == dtype
    expected = np.concatenate(
        [table.astype(np.float64), ref_rng.normal(0.0, 0.01, size=(37, 2))])
    np.testing.assert_array_equal(grown, expected.astype(dtype))
    # The stream continues where one draw would have left it.
    assert rng.random() == ref_rng.random()
    assert init.grow_rows(table, 4, rng, 0.01).shape == (6, 2)


@pytest.mark.parametrize("precision", ["float32", "float64", None])
@pytest.mark.parametrize("warm_start_bias", [True, False])
def test_fit_grows_at_precision_bit_identically(dataset, precision,
                                                warm_start_bias):
    ref_model, ref_optimizer = grow_then_cast(dataset, precision,
                                              warm_start_bias)
    model, capture = make_model(dataset), Capture()
    model.fit(dataset, precision=precision, warm_start_bias=warm_start_bias,
              callbacks=[capture], **FIT)
    assert_same_state(model, capture.trainer.optimizer, ref_model,
                      ref_optimizer)


def test_kill_and_resume_matches_grow_then_cast(dataset, tmp_path):
    ref_model, ref_optimizer = grow_then_cast(dataset, "float32")
    ck = Checkpointer(tmp_path, keep_last=20)
    with pytest.raises(Kill):
        make_model(dataset).fit(dataset, checkpointer=ck, checkpoint_every=1,
                                callbacks=[Capture(kill_after=5)], **FIT)
    resumed, capture = make_model(dataset), Capture()
    resumed.fit(dataset, checkpointer=ck, resume_from=True,
                callbacks=[capture], **FIT)
    assert_same_state(resumed, capture.trainer.optimizer, ref_model,
                      ref_optimizer)
