"""Trainer and annealing schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVAE, ConstantBeta, FVAEConfig, LinearAnnealing, Trainer


def make_model(tiny_schema):
    return FVAE(tiny_schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                        decoder_hidden=[8], anneal_steps=5,
                                        embedding_capacity=16, seed=0))


class TestAnnealing:
    def test_linear_ramp(self):
        sched = LinearAnnealing(peak=0.4, anneal_steps=100)
        assert sched(0) == 0.0
        np.testing.assert_allclose(sched(50), 0.2)
        assert sched(100) == 0.4
        assert sched(10_000) == 0.4  # capped at peak

    def test_zero_steps_is_constant(self):
        sched = LinearAnnealing(peak=0.3, anneal_steps=0)
        assert sched(0) == 0.3

    def test_constant(self):
        sched = ConstantBeta(0.7)
        assert sched(0) == sched(999) == 0.7

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            LinearAnnealing(-0.1, 10)
        with pytest.raises(ValueError):
            LinearAnnealing(0.1, -1)
        with pytest.raises(ValueError):
            ConstantBeta(-1.0)

    def test_reprs(self):
        assert "0.4" in repr(LinearAnnealing(0.4, 10))
        assert "0.7" in repr(ConstantBeta(0.7))


class TestTrainer:
    def test_history_length(self, tiny_schema, tiny_dataset):
        trainer = Trainer(make_model(tiny_schema), lr=1e-3)
        history = trainer.fit(tiny_dataset, epochs=3, batch_size=3)
        assert len(history.epochs) == 3
        assert history.epochs[2].cumulative_time >= history.epochs[0].cumulative_time

    def test_invalid_epochs(self, tiny_schema, tiny_dataset):
        trainer = Trainer(make_model(tiny_schema))
        with pytest.raises(ValueError):
            trainer.fit(tiny_dataset, epochs=0)

    def test_eval_fn_called_with_eval_mode(self, tiny_schema, tiny_dataset):
        model = make_model(tiny_schema)
        modes = []

        def eval_fn():
            modes.append(model.training)
            return {"metric": 1.0}

        Trainer(model, lr=1e-3).fit(tiny_dataset, epochs=2, batch_size=3,
                                    eval_fn=eval_fn)
        assert modes == [False, False]

    def test_max_seconds_stops_early(self, tiny_schema, tiny_dataset):
        history = Trainer(make_model(tiny_schema)).fit(
            tiny_dataset, epochs=10_000, batch_size=3, max_seconds=0.3)
        assert history.total_time < 5.0
        assert len(history.epochs) < 10_000

    def test_max_seconds_checked_inside_batch_loop(self, tiny_schema,
                                                   tiny_dataset):
        # A budget far below one batch's cost must stop after the FIRST batch
        # of the FIRST epoch, not at the epoch boundary.
        history = Trainer(make_model(tiny_schema)).fit(
            tiny_dataset, epochs=10_000, batch_size=1, max_seconds=1e-9)
        assert len(history.epochs) == 1
        record = history.epochs[0]
        assert record.interrupted
        assert record.n_batches == 1  # partial epoch recorded honestly
        assert np.isfinite(record.loss)

    def test_partial_epoch_recorded_honestly(self, tiny_schema, tiny_dataset):
        full = Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=1,
                                                    batch_size=2)
        assert full.epochs[0].n_batches == 3  # 6 users / batches of 2
        assert not full.epochs[0].interrupted
        cut = Trainer(make_model(tiny_schema)).fit(
            tiny_dataset, epochs=5, batch_size=2, max_seconds=1e-9)
        assert cut.epochs[-1].n_batches < 3
        assert cut.epochs[-1].interrupted

    def test_empty_dataset_epoch_yields_nan_not_inf(self, tiny_schema,
                                                    tiny_dataset):
        empty = tiny_dataset.subset(np.array([], dtype=np.int64))
        history = Trainer(make_model(tiny_schema)).fit(empty, epochs=2,
                                                       batch_size=4)
        assert len(history.epochs) == 2
        for record in history.epochs:
            assert record.n_batches == 0
            assert np.isnan(record.users_per_second)
        assert np.isnan(history.throughput)
        assert not np.isinf(history.throughput)

    def test_throughput_ignores_unmeasurable_epochs(self):
        from repro.core.trainer import EpochRecord, TrainHistory
        history = TrainHistory(epochs=[
            EpochRecord(epoch=0, loss=1.0, recon=1.0, kl=0.0, beta=0.1,
                        epoch_time=2.0, cumulative_time=2.0,
                        users_per_second=100.0, n_batches=4),
            EpochRecord(epoch=1, loss=1.0, recon=1.0, kl=0.0, beta=0.1,
                        epoch_time=0.01, cumulative_time=2.01,
                        users_per_second=float("nan"), n_batches=0),
        ])
        assert history.throughput == pytest.approx(100.0)

    def test_callbacks_default_none(self, tiny_schema, tiny_dataset):
        history = Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=1,
                                                       batch_size=3,
                                                       callbacks=None)
        assert len(history.epochs) == 1


class TestTrainerLogging:
    def test_epoch_progress_via_logging(self, tiny_schema, tiny_dataset,
                                        caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.core.trainer"):
            Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=2,
                                                 batch_size=3)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.core.trainer"]
        assert len(messages) == 2
        assert "[epoch 0]" in messages[0] and "loss=" in messages[0]

    def test_verbose_attaches_stream_handler_once(self, tiny_schema,
                                                  tiny_dataset, capsys):
        import logging

        logger = logging.getLogger("repro.core.trainer")
        before = list(logger.handlers)
        try:
            Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=1,
                                                 batch_size=3, verbose=True)
            Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=1,
                                                 batch_size=3, verbose=True)
            ours = [h for h in logger.handlers
                    if getattr(h, "_repro_verbose", False)]
            assert len(ours) == 1  # idempotent across fits
            assert "[epoch 0]" in capsys.readouterr().err
        finally:
            for handler in list(logger.handlers):
                if handler not in before:
                    logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)

    def test_quiet_by_default(self, tiny_schema, tiny_dataset, capsys):
        Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=1,
                                             batch_size=3)
        captured = capsys.readouterr()
        assert "[epoch" not in captured.out
        assert "[epoch" not in captured.err

    def test_model_left_in_eval_mode(self, tiny_schema, tiny_dataset):
        model = make_model(tiny_schema)
        Trainer(model).fit(tiny_dataset, epochs=1, batch_size=3)
        assert not model.training

    def test_history_series(self, tiny_schema, tiny_dataset):
        history = Trainer(make_model(tiny_schema)).fit(tiny_dataset, epochs=3,
                                                       batch_size=3)
        assert len(history.series("loss")) == 3
        assert history.series("epoch") == [0, 1, 2]

    def test_empty_history_aggregates(self):
        from repro.core.trainer import TrainHistory
        history = TrainHistory()
        assert history.total_time == 0.0
        assert np.isnan(history.final_loss)
        assert np.isnan(history.throughput)
