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
from repro.utils.timer import Timer

__all__ = ["EpochRecord", "TrainHistory", "Trainer"]

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


@dataclass
class _EpochProgress:
    """Mutable within-epoch accumulators (checkpointed mid-epoch)."""

    losses: list[float] = field(default_factory=list)
    recons: list[float] = field(default_factory=list)
    kls: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    n_seen: int = 0


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
            resume_from: Checkpoint | Checkpointer | str | Path | bool | None = None,
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
        checkpoint file, a checkpoint directory, a loaded
        :class:`~repro.resilience.Checkpoint`, or ``True`` (= latest from
        ``checkpointer``; starts fresh when none exists yet) and continues
        the interrupted run bit-deterministically — including mid-epoch, via
        the saved shuffle order and batch cursor.  A mid-epoch checkpoint
        resumes only at the batch size it was taken with: the cursor counts
        batches, so another size would skip or repeat users
        (:class:`~repro.resilience.CheckpointError`).

        Parameters, losses and optimizer state are bit-identical whether the
        field worker runs or not.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive: {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0: {checkpoint_every}")
        rng = new_rng(rng)
        callbacks = list(callbacks or ())
        if verbose:
            _attach_verbose_handler()
        if isinstance(checkpointer, (str, Path)):
            checkpointer = Checkpointer(checkpointer)
        history = TrainHistory()
        timer = Timer()
        step = getattr(self.model, "_step", 0)
        base_elapsed = 0.0
        start_epoch = 0
        resume_cursor = 0
        resume_order: np.ndarray | None = None
        resume_progress: _EpochProgress | None = None

        checkpoint = self._resolve_resume(resume_from, checkpointer)
        if checkpoint is not None:
            (step, start_epoch, resume_cursor, resume_order, resume_progress,
             base_elapsed) = self._restore_checkpoint(checkpoint, batch_size,
                                                      rng, history)
            obs.count("checkpoint.resumes")
            logger.info("resumed from %s (epoch %d, batch %d, step %d)",
                        checkpoint.path, start_epoch, resume_cursor, step)
            if start_epoch >= epochs and resume_cursor == 0:
                self.model.eval()
                return history

        for cb in callbacks:
            cb.on_train_start(self, dataset)

        n_users = len(dataset)
        total_batches = n_batches(n_users, batch_size)

        budget_exhausted = False
        with field_worker() as worker:
            for epoch in range(start_epoch, epochs):
                self.model.train()
                for cb in callbacks:
                    cb.on_epoch_start(self, epoch)
                if epoch == start_epoch and resume_cursor > 0 \
                        and resume_order is not None:
                    # Mid-epoch resume: replay the interrupted epoch's shuffle
                    # order from the saved batch cursor.
                    order = resume_order
                    first_batch = resume_cursor
                    progress = resume_progress or _EpochProgress()
                else:
                    order = np.arange(n_users)
                    rng.shuffle(order)
                    first_batch = 0
                    progress = _EpochProgress()
                cursor = first_batch
                interrupted = False
                timer.start()
                with obs.span("epoch"):
                    batches = SyncLoader().epoch(dataset, order, batch_size,
                                                 first_batch)
                    try:
                        for b in range(first_batch, total_batches):
                            with obs.span("batch_iter"):
                                batch = next(batches)
                            with obs.span("forward"):
                                self.optimizer.zero_grad()
                                loss, diag = self.model.loss_on_batch(batch, step)
                            with obs.span("backward"):
                                loss.backward()
                            with obs.span("optimizer_step"):
                                self.optimizer.step()
                            step += 1
                            cursor = b + 1
                            progress.n_seen += batch.n_users
                            progress.losses.append(diag.get("loss", loss.item()))
                            progress.recons.append(diag.get("recon", float("nan")))
                            progress.kls.append(diag.get("kl", float("nan")))
                            progress.betas.append(diag.get("beta", float("nan")))
                            times = (None if worker is None
                                     else worker.take_times())
                            if obs.enabled():
                                self._observe_step(batch.n_users, times)
                            if checkpointer is not None and checkpoint_every \
                                    and step % checkpoint_every == 0:
                                self._save_checkpoint(
                                    checkpointer, rng, history, step=step,
                                    epoch=epoch, cursor=cursor, order=order,
                                    progress=progress,
                                    elapsed=base_elapsed + timer.current)
                            for cb in callbacks:
                                cb.on_batch_end(self, epoch, step,
                                                progress.losses[-1], diag)
                            if max_seconds is not None \
                                    and timer.current >= max_seconds:
                                interrupted = True
                                budget_exhausted = True
                                break
                    finally:
                        # Retire the loader mid-epoch on a budget break or an
                        # early exit.
                        batches.close()
                epoch_time = timer.stop()

                if interrupted and checkpointer is not None:
                    # Snapshot the in-progress epoch so a later run can resume it
                    # from this exact batch.  (Saved before the partial record is
                    # appended: the checkpointed history only holds full epochs.)
                    self._save_checkpoint(
                        checkpointer, rng, history, step=step, epoch=epoch,
                        cursor=cursor, order=order, progress=progress,
                        elapsed=base_elapsed + timer.elapsed)

                losses = progress.losses
                record = EpochRecord(
                    epoch=epoch,
                    loss=float(np.mean(losses)) if losses else float("nan"),
                    recon=float(np.mean(progress.recons)) if losses else float("nan"),
                    kl=float(np.mean(progress.kls)) if losses else float("nan"),
                    beta=progress.betas[-1] if losses else float("nan"),
                    epoch_time=epoch_time,
                    cumulative_time=base_elapsed + timer.elapsed,
                    users_per_second=(progress.n_seen / epoch_time
                                      if losses and epoch_time > 0
                                      else float("nan")),
                    n_batches=len(losses),
                    interrupted=interrupted,
                )

                if eval_fn is not None and not interrupted:
                    was_training = self.model.training
                    self.model.eval()
                    record.eval_metrics = dict(eval_fn())
                    if was_training:
                        self.model.train()

                history.epochs.append(record)
                for cb in callbacks:
                    cb.on_epoch_end(self, record)
                if logger.isEnabledFor(logging.INFO):
                    extra = " ".join(f"{k}={v:.4f}"
                                     for k, v in record.eval_metrics.items())
                    flag = " (interrupted)" if interrupted else ""
                    logger.info("[epoch %d] loss=%.4f kl=%.4f time=%.2fs %s%s",
                                epoch, record.loss, record.kl,
                                record.cumulative_time, extra, flag)

                if budget_exhausted:
                    break
                if checkpointer is not None:
                    self._save_checkpoint(
                        checkpointer, rng, history, step=step, epoch=epoch + 1,
                        cursor=0, order=None, progress=None,
                        elapsed=base_elapsed + timer.elapsed)
                if max_seconds is not None and timer.elapsed >= max_seconds:
                    break

            self.model.eval()
            for cb in callbacks:
                cb.on_train_end(self, history)
        return history

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
        """Turn the many accepted ``resume_from`` forms into a Checkpoint."""
        if resume_from is None or resume_from is False:
            return None
        if isinstance(resume_from, Checkpoint):
            return resume_from
        if resume_from is True:
            if checkpointer is None:
                raise ValueError(
                    "resume_from=True requires a checkpointer to resume from")
            return checkpointer.latest()  # None on a cold start: begin fresh
        if isinstance(resume_from, Checkpointer):
            checkpoint = resume_from.latest()
            if checkpoint is None:
                raise CheckpointError(
                    f"no valid checkpoint under {resume_from.directory}")
            return checkpoint
        path = Path(resume_from)
        if path.is_dir():
            checkpoint = Checkpointer(path).latest()
            if checkpoint is None:
                raise CheckpointError(f"no valid checkpoint under {path}")
            return checkpoint
        return Checkpointer(path.parent).load(path)

    def _save_checkpoint(self, checkpointer: Checkpointer,
                         rng: np.random.Generator, history: TrainHistory, *,
                         step: int, epoch: int, cursor: int,
                         order: np.ndarray | None,
                         progress: _EpochProgress | None,
                         elapsed: float) -> Path:
        arrays = model_state_arrays(self.model)
        for key, value in self.optimizer.state_arrays().items():
            arrays[f"opt/{key}"] = value
        if cursor > 0 and order is not None and progress is not None:
            arrays["epoch_order"] = np.asarray(order, dtype=np.int64)
            arrays["partial/losses"] = np.asarray(progress.losses)
            arrays["partial/recons"] = np.asarray(progress.recons)
            arrays["partial/kls"] = np.asarray(progress.kls)
            arrays["partial/betas"] = np.asarray(progress.betas)
        meta = {
            "step": int(step),
            "epoch": int(epoch),
            "cursor": int(cursor),
            "n_seen": int(progress.n_seen) if progress is not None else 0,
            "elapsed": float(elapsed),
            "model_step": int(getattr(self.model, "_step", step)),
            "optimizer": "Adam",
            "history": [asdict(record) for record in history.epochs],
            "rng": {"trainer": get_generator_state(rng),
                    "model": capture_rng_tree(self.model)},
        }
        return checkpointer.save(arrays, meta, step=step)

    def _restore_checkpoint(self, checkpoint: Checkpoint, batch_size: int,
                            rng: np.random.Generator, history: TrainHistory):
        meta, arrays = checkpoint.meta, checkpoint.arrays
        saved_opt = meta.get("optimizer")
        if saved_opt and saved_opt != "Adam":
            raise CheckpointError(
                f"checkpoint was taken with {saved_opt}, but this trainer "
                "uses Adam")
        check_resume_batch_size(meta, arrays.get("epoch_order"), batch_size)
        saved = {arr.dtype for name, arr in arrays.items() if name.startswith("param/")}
        if self.precision is not None and saved - {self.precision}:
            raise CheckpointError(
                f"checkpoint holds {', '.join(sorted(map(str, saved)))} "
                f"parameters, but this trainer trains at {self.precision}")
        restore_model_state(self.model, arrays)
        self.optimizer.load_state_arrays(
            {name[len("opt/"):]: arr for name, arr in arrays.items()
             if name.startswith("opt/")})
        step = int(meta["step"])
        if hasattr(self.model, "_step"):
            self.model._step = int(meta.get("model_step", step))
        rng_states = meta.get("rng", {})
        if "trainer" in rng_states:
            set_generator_state(rng, rng_states["trainer"])
        restore_rng_tree(self.model, rng_states.get("model", {}))
        history.epochs = [EpochRecord(**record)
                          for record in meta.get("history", [])]
        cursor = int(meta.get("cursor", 0))
        order = arrays.get("epoch_order")
        progress = None
        if cursor > 0 and order is not None:
            progress = _EpochProgress(
                losses=arrays["partial/losses"].tolist(),
                recons=arrays["partial/recons"].tolist(),
                kls=arrays["partial/kls"].tolist(),
                betas=arrays["partial/betas"].tolist(),
                n_seen=int(meta.get("n_seen", 0)))
        return (step, int(meta.get("epoch", 0)), cursor, order, progress,
                float(meta.get("elapsed", 0.0)))
