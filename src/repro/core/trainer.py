"""Mini-batch training loop (Algorithm 1) with timing instrumentation.

The trainer is deliberately model-agnostic: anything exposing
``loss_on_batch(batch, step) -> (loss Tensor, diagnostics dict)`` and
``parameters()`` can be trained.  Timing is tracked per epoch and cumulatively
so the speed benchmarks (Table V, Fig 6) read throughput straight from the
training history.

Observability: every batch emits per-stage spans (``batch_iter`` / ``forward``
/ ``backward`` / ``optimizer_step``) through :mod:`repro.obs` —
free when no telemetry session is installed — and ``fit`` drives an optional
list of callbacks (see :class:`repro.obs.callbacks.TrainerCallback`).
Progress output goes through the ``repro.core.trainer`` logger;
``verbose=True`` attaches a stream handler as a convenience.

Two cores: ``fit`` owns one field worker thread for its duration when that
thread gets a core of its own (two CPUs beside single-threaded BLAS, as the
benchmark runs) and joins it however ``fit`` exits.  The decoder's
per-field softmax tasks split between the caller and that worker
(:mod:`repro.nn.parallel`); outside ``fit`` the same tasks run inline.

Resilience: ``fit`` integrates with :class:`repro.resilience.Checkpointer`.
With ``checkpointer=`` set, an atomic checkpoint (parameters, optimizer
moments, hash tables, RNG states, epoch/batch cursor, partial-epoch
accumulators) is written every ``checkpoint_every`` optimizer steps and at
every epoch boundary; ``resume_from=`` restores one and continues the run
**bit-exactly** — the resumed run draws the same shuffles and the same noise
as the uninterrupted run, so final parameters match to the last bit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import MultiFieldDataset
from repro.nn.optim import Adam
from repro.nn.parallel import field_worker
from repro.obs import runtime as obs
from repro.perf.pipeline import SyncLoader, n_batches
from repro.resilience.checkpoint import (Checkpoint, CheckpointError,
                                         Checkpointer, check_resume_batch_size,
                                         model_state_arrays,
                                         restore_model_state)
from repro.utils.rng import (capture_rng_tree, get_generator_state, new_rng,
                             restore_rng_tree, set_generator_state)

__all__ = ["EpochRecord", "TrainHistory", "Trainer", "TrainingLedger"]

logger = logging.getLogger(__name__)


def _attach_verbose_handler() -> None:
    """Attach a plain stream handler for ``verbose=True`` runs (idempotent)."""
    if not any(getattr(h, "_repro_verbose", False) for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        handler._repro_verbose = True
        logger.addHandler(handler)
    if logger.getEffectiveLevel() > logging.INFO:
        logger.setLevel(logging.INFO)


@dataclass
class EpochRecord:
    """Summary of one training epoch."""

    epoch: int
    loss: float
    recon: float
    kl: float
    beta: float
    epoch_time: float
    cumulative_time: float
    users_per_second: float
    eval_metrics: dict[str, float] = field(default_factory=dict)
    n_batches: int = 0
    interrupted: bool = False  # epoch cut short by the max_seconds budget


@dataclass
class TrainHistory:
    """Sequence of epoch records plus run-level aggregates."""

    epochs: list[EpochRecord] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.epochs[-1].cumulative_time if self.epochs else 0.0

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss if self.epochs else float("nan")

    @property
    def throughput(self) -> float:
        """Mean training throughput in users/second.

        Epochs that saw no batches (empty dataset) carry ``nan`` rates and are
        excluded; with no measurable epoch at all the throughput is ``nan``.
        """
        measured = [r for r in self.epochs
                    if np.isfinite(r.users_per_second) and r.epoch_time > 0]
        total_time = sum(r.epoch_time for r in measured)
        if total_time <= 0:
            return float("nan")
        total_users = sum(r.users_per_second * r.epoch_time for r in measured)
        return total_users / total_time

    def series(self, key: str) -> list[float]:
        """Column view over epochs: ``loss``, ``kl``, ``cumulative_time``, …"""
        return [getattr(r, key) for r in self.epochs]


class TrainingLedger:
    """A run's bookkeeping: ``step``, ``epoch``, batch ``cursor``, the epoch's
    shuffle ``order`` (drawn from ``rng``), its per-step accumulators, the
    seconds trained and the finished epochs' ``history``.

    :class:`Trainer` and :class:`~repro.distributed.sharded.ShardedTrainer`
    both record steps, build each :class:`EpochRecord` and checkpoint this
    section through it, so the two count epochs, losses and time alike.
    """

    def __init__(self, rng: np.random.Generator, step: int = 0) -> None:
        self.rng = rng
        self.step = step
        self.epoch = 0
        self.history = TrainHistory()
        self.elapsed = 0.0       # seconds trained before the running epoch
        self._started: float | None = None
        self._clear_epoch()

    def _clear_epoch(self) -> None:
        self.cursor = 0          # batches of this epoch done
        self.order: np.ndarray | None = None
        self.losses: list[float] = []
        self.recons: list[float] = []
        self.kls: list[float] = []
        self.betas: list[float] = []
        self.n_seen = 0

    @property
    def seconds(self) -> float:
        """Seconds trained, the running epoch's so far included."""
        if self._started is None:
            return self.elapsed
        return self.elapsed + (time.perf_counter() - self._started)

    def begin_epoch(self, n_users: int) -> None:
        """Draw the epoch's shuffle (unless resuming it) and start its clock."""
        if self.order is None:
            self.order = np.arange(n_users)
            self.rng.shuffle(self.order)
        self._started = time.perf_counter()

    def add(self, loss: float, recon: float, kl: float, beta: float,
            users: int) -> None:
        """Record one optimizer step over ``users`` users."""
        self.losses.append(loss)
        self.recons.append(recon)
        self.kls.append(kl)
        self.betas.append(beta)
        self.n_seen += users
        self.step += 1
        self.cursor += 1

    def close_epoch(self, interrupted: bool = False) -> EpochRecord:
        """Stop the epoch's clock and summarise it (not yet in ``history``)."""
        epoch_time = time.perf_counter() - self._started
        self._started = None
        self.elapsed += epoch_time
        losses = self.losses
        return EpochRecord(
            epoch=self.epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            recon=float(np.mean(self.recons)) if losses else float("nan"),
            kl=float(np.mean(self.kls)) if losses else float("nan"),
            beta=self.betas[-1] if losses else float("nan"),
            epoch_time=epoch_time,
            cumulative_time=self.elapsed,
            users_per_second=(self.n_seen / epoch_time
                              if losses and epoch_time > 0 else float("nan")),
            n_batches=len(losses),
            interrupted=interrupted,
        )

    def next_epoch(self) -> None:
        self.epoch += 1
        self._clear_epoch()

    def write(self, arrays: dict, meta: dict, model) -> None:
        """Add this section to a checkpoint's ``arrays`` and ``meta``."""
        if self.cursor > 0 and self.order is not None:
            arrays["epoch_order"] = np.asarray(self.order, dtype=np.int64)
            arrays["partial/losses"] = np.asarray(self.losses)
            arrays["partial/recons"] = np.asarray(self.recons)
            arrays["partial/kls"] = np.asarray(self.kls)
            arrays["partial/betas"] = np.asarray(self.betas)
        meta.update(
            step=int(self.step), epoch=int(self.epoch),
            cursor=int(self.cursor), n_seen=int(self.n_seen),
            elapsed=float(self.seconds),
            history=[asdict(record) for record in self.history.epochs],
            rng={"trainer": get_generator_state(self.rng),
                 "model": capture_rng_tree(model)})

    def restore(self, checkpoint: Checkpoint, batch_size: int, model) -> None:
        """Continue from what :meth:`write` saved, RNG states included.

        A mid-epoch section resumes only at the batch size it was taken
        with (:func:`~repro.resilience.checkpoint.check_resume_batch_size`).
        """
        meta, arrays = checkpoint.meta, checkpoint.arrays
        order = arrays.get("epoch_order")
        check_resume_batch_size(meta, order, batch_size)
        self._clear_epoch()
        self._started = None
        self.step = int(meta["step"])
        self.epoch = int(meta.get("epoch", 0))
        self.elapsed = float(meta.get("elapsed", 0.0))
        self.history.epochs = [EpochRecord(**record)
                               for record in meta.get("history", [])]
        if int(meta.get("cursor", 0)) > 0 and order is not None:
            self.cursor = int(meta["cursor"])
            self.order = order
            self.losses = arrays["partial/losses"].tolist()
            self.recons = arrays["partial/recons"].tolist()
            self.kls = arrays["partial/kls"].tolist()
            self.betas = arrays["partial/betas"].tolist()
            self.n_seen = int(meta.get("n_seen", 0))
        rng_states = meta.get("rng", {})
        if "trainer" in rng_states:
            set_generator_state(self.rng, rng_states["trainer"])
        restore_rng_tree(model, rng_states.get("model", {}))


class Trainer:
    """Runs Algorithm 1: shuffled mini-batches, noisy gradients, Adam updates.

    Parameters
    ----------
    model:
        Object with ``loss_on_batch``, ``parameters()``, ``train()``/``eval()``.
    lr:
        Adam's learning rate.
    precision:
        Training dtype the model is cast to: ``"float32"`` (default — the
        precision the paper and its VAE baselines train at) or
        ``"float64"`` (what ``repro.check`` pins its goldens and oracles
        at); ``None`` leaves the model's dtype alone.
    """

    def __init__(self, model, lr: float = 1e-3,
                 precision: str | None = "float32") -> None:
        self.model = model
        self.precision = None if precision is None else np.dtype(precision)
        if precision is not None:
            # Cast before the optimizer is built so Adam's lazily-allocated
            # moments adopt the parameter dtype (see Module.astype).
            model.astype(self.precision)
        self.optimizer = Adam(model.parameters(), lr=lr)

    def fit(self, dataset: MultiFieldDataset, epochs: int = 10,
            batch_size: int = 512,
            rng: np.random.Generator | int | None = 0,
            eval_fn: Callable[[], dict[str, float]] | None = None,
            max_seconds: float | None = None,
            callbacks: Sequence | None = None,
            verbose: bool = False,
            checkpointer: Checkpointer | str | Path | None = None,
            checkpoint_every: int = 0,
            resume_from: Checkpoint | str | Path | bool | None = None,
            ) -> TrainHistory:
        """Train for up to ``epochs`` epochs (or until ``max_seconds`` elapse).

        ``eval_fn`` is called after every full epoch (training mode is
        restored afterwards) and its metrics land in the epoch's record.
        The ``max_seconds`` budget is checked after every batch, so long
        epochs stop promptly; a cut-short epoch is still recorded (with
        ``interrupted=True`` and its true ``n_batches``).  ``callbacks`` are
        driven through the :class:`~repro.obs.callbacks.TrainerCallback`
        hooks.

        Crash safety: pass ``checkpointer=`` (a
        :class:`~repro.resilience.Checkpointer` or a directory path) to
        snapshot the full training state every ``checkpoint_every`` optimizer
        steps (``0`` → epoch boundaries only).  ``resume_from`` accepts a
        checkpoint file path, a loaded :class:`~repro.resilience.Checkpoint`
        or ``True`` (= latest from ``checkpointer``; starts fresh when none
        exists yet) and continues the interrupted run bit-deterministically
        — including mid-epoch, via the saved shuffle order and batch cursor.
        A mid-epoch checkpoint resumes only at the batch size it was taken
        with: the cursor counts batches, so another size would skip or repeat
        users (:class:`~repro.resilience.CheckpointError`).

        Parameters, losses and optimizer state are bit-identical whether the
        field worker runs or not.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive: {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0: {checkpoint_every}")
        ledger = TrainingLedger(new_rng(rng),
                                step=getattr(self.model, "_step", 0))
        callbacks = list(callbacks or ())
        if verbose:
            _attach_verbose_handler()
        if isinstance(checkpointer, (str, Path)):
            checkpointer = Checkpointer(checkpointer)

        checkpoint = self._resolve_resume(resume_from, checkpointer)
        if checkpoint is not None:
            self._restore_checkpoint(checkpoint, batch_size, ledger)
            obs.count("checkpoint.resumes")
            logger.info("resumed from %s (epoch %d, batch %d, step %d)",
                        checkpoint.path, ledger.epoch, ledger.cursor,
                        ledger.step)
            if ledger.epoch >= epochs and ledger.cursor == 0:
                self.model.eval()
                return ledger.history
        base_elapsed = ledger.elapsed  # max_seconds counts this call only

        for cb in callbacks:
            cb.on_train_start(self, dataset)

        n_users = len(dataset)
        total_batches = n_batches(n_users, batch_size)

        with field_worker() as worker:
            while ledger.epoch < epochs:
                epoch = ledger.epoch
                self.model.train()
                for cb in callbacks:
                    cb.on_epoch_start(self, epoch)
                # A resumed epoch replays its saved shuffle from its cursor.
                ledger.begin_epoch(n_users)
                interrupted = False
                with obs.span("epoch"):
                    batches = SyncLoader().epoch(dataset, ledger.order,
                                                 batch_size, ledger.cursor)
                    try:
                        for __ in range(ledger.cursor, total_batches):
                            with obs.span("batch_iter"):
                                batch = next(batches)
                            with obs.span("forward"):
                                self.optimizer.zero_grad()
                                loss, diag = self.model.loss_on_batch(
                                    batch, ledger.step)
                            with obs.span("backward"):
                                loss.backward()
                            with obs.span("optimizer_step"):
                                self.optimizer.step()
                            ledger.add(diag.get("loss", loss.item()),
                                       diag.get("recon", float("nan")),
                                       diag.get("kl", float("nan")),
                                       diag.get("beta", float("nan")),
                                       batch.n_users)
                            times = (None if worker is None
                                     else worker.take_times())
                            if obs.enabled():
                                self._observe_step(batch.n_users, times)
                            if checkpointer is not None and checkpoint_every \
                                    and ledger.step % checkpoint_every == 0:
                                self._save_checkpoint(checkpointer, ledger)
                            for cb in callbacks:
                                cb.on_batch_end(self, epoch, ledger.step,
                                                ledger.losses[-1], diag)
                            if max_seconds is not None and ledger.seconds \
                                    - base_elapsed >= max_seconds:
                                interrupted = True
                                break
                    finally:
                        # Retire the loader mid-epoch on a budget break or an
                        # early exit.
                        batches.close()
                record = ledger.close_epoch(interrupted)

                if interrupted and checkpointer is not None:
                    # Snapshot the in-progress epoch so a later run can resume it
                    # from this exact batch.  (Saved before the partial record is
                    # appended: the checkpointed history only holds full epochs.)
                    self._save_checkpoint(checkpointer, ledger)

                if eval_fn is not None and not interrupted:
                    was_training = self.model.training
                    self.model.eval()
                    record.eval_metrics = dict(eval_fn())
                    if was_training:
                        self.model.train()

                ledger.history.epochs.append(record)
                for cb in callbacks:
                    cb.on_epoch_end(self, record)
                if logger.isEnabledFor(logging.INFO):
                    extra = " ".join(f"{k}={v:.4f}"
                                     for k, v in record.eval_metrics.items())
                    flag = " (interrupted)" if interrupted else ""
                    logger.info("[epoch %d] loss=%.4f kl=%.4f time=%.2fs %s%s",
                                epoch, record.loss, record.kl,
                                record.cumulative_time, extra, flag)

                if interrupted:
                    break
                ledger.next_epoch()
                if checkpointer is not None:
                    self._save_checkpoint(checkpointer, ledger)
                if max_seconds is not None \
                        and ledger.elapsed - base_elapsed >= max_seconds:
                    break

            self.model.eval()
            for cb in callbacks:
                cb.on_train_end(self, ledger.history)
        return ledger.history

    @staticmethod
    def _observe_step(n_users: int, times: tuple[float, float] | None) -> None:
        """Per-step telemetry, called only while a session is installed."""
        obs.count("trainer.batches")
        obs.count("trainer.users", n_users)
        if times is not None:
            # The caller's wait for the field worker after finishing its own
            # group, against the worker's busy time: a second vCPU taken by
            # a neighbour shows as wait rising toward busy.
            obs.observe("trainer.field_worker.wait_ms", 1e3 * times[0])
            obs.observe("trainer.field_worker.busy_ms", 1e3 * times[1])

    # -- checkpoint plumbing ---------------------------------------------------

    @staticmethod
    def _resolve_resume(resume_from, checkpointer: Checkpointer | None,
                        ) -> Checkpoint | None:
        """Turn the accepted ``resume_from`` forms into a Checkpoint."""
        if resume_from is None or resume_from is False:
            return None
        if isinstance(resume_from, Checkpoint):
            return resume_from
        if resume_from is True:
            if checkpointer is None:
                raise ValueError(
                    "resume_from=True requires a checkpointer to resume from")
            return checkpointer.latest()  # None on a cold start: begin fresh
        path = Path(resume_from)
        return Checkpointer(path.parent).load(path)

    def _save_checkpoint(self, checkpointer: Checkpointer,
                         ledger: TrainingLedger) -> Path:
        arrays = model_state_arrays(self.model)
        for key, value in self.optimizer.state_arrays().items():
            arrays[f"opt/{key}"] = value
        meta = {"model_step": int(getattr(self.model, "_step", ledger.step)),
                "optimizer": "Adam"}
        ledger.write(arrays, meta, self.model)
        return checkpointer.save(arrays, meta, step=ledger.step)

    def _restore_checkpoint(self, checkpoint: Checkpoint, batch_size: int,
                            ledger: TrainingLedger) -> None:
        meta, arrays = checkpoint.meta, checkpoint.arrays
        saved_opt = meta.get("optimizer")
        if saved_opt and saved_opt != "Adam":
            raise CheckpointError(
                f"checkpoint was taken with {saved_opt}, but this trainer "
                "uses Adam")
        saved = {arr.dtype for name, arr in arrays.items() if name.startswith("param/")}
        if self.precision is not None and saved - {self.precision}:
            raise CheckpointError(
                f"checkpoint holds {', '.join(sorted(map(str, saved)))} "
                f"parameters, but this trainer trains at {self.precision}")
        ledger.restore(checkpoint, batch_size, self.model)
        restore_model_state(self.model, arrays)
        self.optimizer.load_state_arrays(
            {name[len("opt/"):]: arr for name, arr in arrays.items()
             if name.startswith("opt/")})
        if hasattr(self.model, "_step"):
            self.model._step = int(meta.get("model_step", ledger.step))
