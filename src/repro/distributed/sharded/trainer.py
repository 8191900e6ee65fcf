"""Multi-process sharded parameter-server training.

``n_workers`` real OS processes train one FVAE synchronously, with every
row-sparse parameter sharded by feature-id hash across the workers (each
worker doubles as the parameter server for its shard — the colocated-PS
deployment).

Layout (per step):

* **state** — every (field, parameter) shard lives in a named
  ``multiprocessing.shared_memory`` slab in the PR-5 columnar ``(slots,
  dim)`` layout; dense parameters live in shared slabs the driver's model
  points at directly, so the post-step dense update is broadcast by the MMU,
  not by messages.  Workers *pull* the rows a batch touches as vectorised
  gathers from the slabs — zero-copy reads, no serialisation.
* **gradients** — after backward, each worker coalesces its row-sparse
  gradients (PR-3 ``coalesce_rows``) and splits them by owning shard; the
  coalesced ``(rows, grads)`` pairs are the on-wire format, routed through
  the driver to the owning worker, which runs the optimizer's own row
  kernel (:func:`repro.nn.optim.adam_update_rows`) on its slab.
* **determinism** — the driver alone consumes RNG: it draws the epoch
  shuffle, the reparameterisation noise and the candidate sets in exactly
  the order the single-process ``Trainer.fit`` reference would, then ships
  each worker its slice.  With one worker the run is **bit-identical** to
  the reference; with many workers results differ only in float summation
  order (the ``distributed.sharded_vs_single_process`` oracle pins the
  tolerance).
* **faults** — a :class:`~repro.resilience.FaultSchedule`'s events SIGKILL
  real worker processes mid-run; the driver detects the dead pipe, kills
  the survivors, rolls every shard back to the latest
  :class:`~repro.resilience.Checkpointer` checkpoint (parameters, Adam
  moments, and the :class:`~repro.core.trainer.TrainingLedger` section
  ``Trainer`` checkpoints too: RNG states, epoch cursor, partial epoch,
  history, seconds trained), respawns the pool and replays —
  bit-identically to an uninterrupted sharded run.  ``python -m repro
  faults`` measures what each recovery costs.

Determinism rules (validated up front): the full feature vocabulary must be
pre-registered (``initialize_from_dataset``) so tables never grow mid-run,
and input/feature dropout must be off — those draw inside the worker
forward, which the driver cannot plan.  Candidate sampling
(``sampling_rate < 1``) *is* supported: the draw happens driver-side.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.trainer import TrainHistory, TrainingLedger
from repro.distributed.sharded import shm
from repro.distributed.sharded.layout import FieldLayout, build_field_layout
from repro.nn.optim import (BETA1, BETA2, EPS, Adam, _coalesce,
                            adam_step_size, adam_update_rows)
from repro.obs import runtime as obs
from repro.perf.pipeline import n_batches
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.faults import FaultSchedule
from repro.utils.rng import new_rng

__all__ = ["ShardedTrainer", "WorkerDiedError"]

_STATE_KEYS = ("value", "m", "v")


class WorkerDiedError(RuntimeError):
    """A worker process died (or stopped responding) mid-step."""

    def __init__(self, rank: int, reason: str) -> None:
        super().__init__(f"worker {rank} died: {reason}")
        self.rank = rank


@dataclass
class _SparseState:
    """One row-sparse parameter: its layout and per-shard state slabs."""

    pkey: str
    fieldname: str
    param: object                 # repro.nn.tensor.Parameter
    layout: FieldLayout
    slabs: dict                   # {"value"|"m"|"v": [Slab per shard]}

    def arrays(self, which: str) -> list[np.ndarray]:
        return [slab.array for slab in self.slabs[which]]


@dataclass
class _WorkerCtx:
    """Everything a forked worker inherits (never pickled: fork start method)."""

    rank: int
    n_workers: int
    model: object
    dataset: object
    sparse: dict                  # pkey -> _SparseState
    dense_params: list
    lr: float


def _pull_touched(ctx: _WorkerCtx, batch, candidates: dict) -> None:
    """Refresh the rows this step reads from the authoritative shard slabs."""
    model = ctx.model
    for fname, fb in batch.fields.items():
        if fb.indices.size == 0:
            continue
        bag = model.encoder.bag(fname)
        rows = bag.table.rows_for_ids(fb.unique_features())
        state = ctx.sparse[f"bag_w.{fname}"]
        state.layout.pull_rows(rows, state.arrays("value"), bag.weight.data)
    for fname, cand in candidates.items():
        head = model.decoder.head(fname)
        rows = head.table.rows_for_ids(np.asarray(cand))
        rows = rows[rows >= 0]
        if rows.size == 0:
            continue
        for pkey, dest in ((f"head_w.{fname}", head.weight.data),
                           (f"head_b.{fname}", head.bias.data)):
            state = ctx.sparse[pkey]
            state.layout.pull_rows(rows, state.arrays("value"), dest)


def _compute_step(ctx: _WorkerCtx, msg: tuple) -> tuple:
    __, step, beta, total_users, idx, eps, candidates = msg
    # CPU seconds, not wall: on a machine with fewer cores than workers the
    # processes time-slice, and wall time would charge each worker for the
    # others' turns.  CPU time is what a dedicated core would deliver, which
    # is what the critical-path scaling metric models.
    t0 = time.process_time()
    if idx.size == 0:
        return ("grads", ctx.rank, 0.0, {}, 0, 0.0, None, {})
    model = ctx.model
    batch = ctx.dataset.batch(idx)
    _pull_touched(ctx, batch, candidates)
    model.zero_grad()
    model._step = step
    loss, diag = model.elbo_components(
        batch, beta=beta, candidates=candidates, noise=eps,
        recon_scale=1.0 / total_users, kl_weight=idx.size / total_users)
    loss.backward()
    dense = [None if p.grad is None else np.asarray(p.grad)
             for p in ctx.dense_params]
    buckets: dict[str, list] = {}
    for pkey, state in ctx.sparse.items():
        if not state.param.sparse_grad_parts:
            continue
        rows, grads = _coalesce(state.param.sparse_grad_parts)
        shards = state.layout.shard_of_row[rows]
        per_shard = []
        for s in range(ctx.n_workers):
            mine = shards == s
            per_shard.append((rows[mine], grads[mine]) if mine.any() else None)
        buckets[pkey] = per_shard
    seconds = time.process_time() - t0
    return ("grads", ctx.rank, float(loss.item()), diag, int(idx.size),
            seconds, dense, buckets)


def _apply_shard(ctx: _WorkerCtx, msg: tuple) -> tuple:
    __, adam_t, routed = msg
    t0 = time.process_time()
    step_size = adam_step_size(ctx.lr, BETA1, BETA2, adam_t)
    for pkey, parts in routed.items():
        if not parts:
            continue
        state = ctx.sparse[pkey]
        rows, grads = _coalesce(parts)
        slots = state.layout.slot_of_row[rows]
        value, m, v = (state.slabs[which][ctx.rank].array
                       for which in _STATE_KEYS)
        adam_update_rows(value, m, v, slots, grads, step_size,
                         BETA1, BETA2, EPS)
    return ("applied", ctx.rank, time.process_time() - t0)


def _worker_loop(ctx: _WorkerCtx, conn) -> None:
    """Worker process body: serve step/apply requests until told to stop."""
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # driver went away: exit quietly
            kind = msg[0]
            if kind == "step":
                conn.send(_compute_step(ctx, msg))
            elif kind == "apply":
                conn.send(_apply_shard(ctx, msg))
            elif kind == "stop":
                conn.send(("bye", ctx.rank))
                break
    finally:
        conn.close()


class ShardedTrainer:
    """Synchronous data-parallel FVAE training on a real sharded PS.

    Parameters
    ----------
    model:
        An :class:`~repro.core.fvae.FVAE` whose tables already cover the
        dataset vocabulary (run ``initialize_from_dataset`` first) and whose
        config has ``input_dropout == feature_dropout == 0``.  Training runs
        at the model's dtype — shard slabs and Adam moments adopt it — so
        ``model.astype("float32")`` first gives the precision
        :class:`~repro.core.trainer.Trainer` defaults to.
    n_workers:
        Worker processes; also the shard count (colocated PS).
    checkpointer / checkpoint_every:
        As in :class:`~repro.core.trainer.Trainer`; required when a
        ``fault_schedule`` can kill workers.
    fault_schedule:
        Each event becomes a real ``SIGKILL`` against a worker pid; recovery
        rolls back to the latest checkpoint and replays.
    """

    def __init__(self, model, n_workers: int = 2, lr: float = 1e-3,
                 checkpointer: Checkpointer | str | Path | None = None,
                 checkpoint_every: int = 0,
                 fault_schedule: FaultSchedule | None = None,
                 recv_timeout: float = 120.0) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive: {n_workers}")
        cfg = model.config
        if cfg.input_dropout or cfg.feature_dropout:
            raise ValueError(
                "sharded training requires input_dropout=0 and "
                "feature_dropout=0: dropout draws happen inside the worker "
                "forward, which the driver cannot schedule deterministically")
        self.model = model
        self.n_workers = int(n_workers)
        self.lr = float(lr)
        if isinstance(checkpointer, (str, Path)):
            checkpointer = Checkpointer(checkpointer)
        self.checkpointer = checkpointer
        self.checkpoint_every = int(checkpoint_every)
        self.fault_schedule = fault_schedule
        if fault_schedule is not None and checkpointer is None:
            raise ValueError("fault injection requires a checkpointer: a "
                             "killed worker is recovered from the latest "
                             "checkpoint")
        self.recv_timeout = float(recv_timeout)
        self._ctx = mp.get_context("fork")
        self._dataset = None
        self._workers: list = []          # [(Process, Connection)]
        self._sparse: dict[str, _SparseState] = {}
        self._dense_params: list = []
        self._dense_slabs: list = []
        self._dense_opt: Adam | None = None
        self._adam_t = 0                  # sparse Adam steps taken
        self._fired: set = set()          # consumed fault events
        self.crashes = 0                  # SIGKILLs sent
        self.recoveries = 0
        self.step_timings: list[dict] = []

    # -- public API ------------------------------------------------------------

    def fit(self, dataset, epochs: int = 1, batch_size: int = 512,
            rng=0) -> TrainHistory:
        """Train; mirrors ``Trainer.fit``'s shuffle/step/update semantics."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive: {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        self._validate_vocabulary(dataset)
        ledger = TrainingLedger(new_rng(rng), step=self.model._step)
        self._adam_t = 0
        model = self.model
        model.train()
        frozen_before = {spec.name: model.encoder.bag(spec.name).table.frozen
                         for spec in model.schema}
        for spec in model.schema:
            model.encoder.bag(spec.name).table.freeze()
        self._dataset = dataset
        try:
            self._build_state()
            self._spawn_workers()
            self._fit_loop(dataset, epochs, batch_size, ledger)
        finally:
            self._teardown()
            self._dataset = None
            for spec in model.schema:
                model.encoder.bag(spec.name).table.frozen = \
                    frozen_before[spec.name]
            model.eval()
        return ledger.history

    # -- state construction ----------------------------------------------------

    def _validate_vocabulary(self, dataset) -> None:
        model = self.model
        for spec in model.schema:
            counts = dataset.feature_popularity(spec.name)
            observed = np.flatnonzero(counts)
            if observed.size == 0:
                continue
            rows = model.encoder.bag(spec.name).table.rows_for_ids(observed)
            if (rows < 0).any():
                raise ValueError(
                    f"field '{spec.name}': {int((rows < 0).sum())} dataset "
                    "features are not registered in the model's hash table; "
                    "run model.initialize_from_dataset(dataset) before "
                    "sharded training (tables are frozen for the run)")

    def _sparse_param_index(self) -> dict[str, tuple]:
        """``pkey -> (param, field, row_width)`` for every sparse parameter."""
        model = self.model
        out = {}
        for spec in model.schema:
            fname = spec.name
            bag = model.encoder.bag(fname)
            head = model.decoder.head(fname)
            out[f"bag_w.{fname}"] = (bag.weight, fname,
                                     bag.weight.data.shape[1])
            out[f"head_w.{fname}"] = (head.weight, fname,
                                      head.weight.data.shape[1])
            out[f"head_b.{fname}"] = (head.bias, fname, None)
        return out

    def _build_state(self) -> None:
        model = self.model
        sparse_index = self._sparse_param_index()
        sparse_ids = {id(p) for p, __, __ in sparse_index.values()}
        layouts: dict[str, FieldLayout] = {}
        for spec in model.schema:
            layouts[spec.name] = build_field_layout(
                spec.name, model.encoder.bag(spec.name).table, self.n_workers)

        self._sparse = {}
        for pkey, (param, fname, width) in sparse_index.items():
            layout = layouts[fname]
            slabs = {}
            for which in _STATE_KEYS:
                per_shard = []
                for s in range(self.n_workers):
                    n = int(layout.counts[s])
                    shape = (n,) if width is None else (n, width)
                    per_shard.append(shm.create(shape, param.data.dtype))
                slabs[which] = per_shard
            state = _SparseState(pkey=pkey, fieldname=fname, param=param,
                                 layout=layout, slabs=slabs)
            layout.scatter(param.data[: layout.n_rows], state.arrays("value"))
            self._sparse[pkey] = state

        # Dense parameters move into shared slabs the driver's model reads
        # and writes directly; forked workers see every update for free.
        self._dense_params = [p for p in model.parameters()
                              if id(p) not in sparse_ids]
        self._dense_slabs = []
        for p in self._dense_params:
            slab = shm.create(p.data.shape, p.data.dtype)
            slab.array[...] = p.data
            p.data = slab.array
            self._dense_slabs.append(slab)
        self._dense_opt = Adam(self._dense_params, lr=self.lr)

    def _spawn_workers(self) -> None:
        import scipy.sparse  # noqa: F401  (forked workers inherit it)
        self._workers = []
        for rank in range(self.n_workers):
            parent, child = self._ctx.Pipe()
            ctx = _WorkerCtx(rank=rank, n_workers=self.n_workers,
                             model=self.model, dataset=self._dataset,
                             sparse=self._sparse,
                             dense_params=self._dense_params, lr=self.lr)
            proc = self._ctx.Process(target=_worker_loop, args=(ctx, child),
                                     daemon=True, name=f"repro-shard-{rank}")
            proc.start()
            child.close()
            self._workers.append((proc, parent))

    # -- the training loop -----------------------------------------------------

    def _fit_loop(self, dataset, epochs: int, batch_size: int,
                  ledger: TrainingLedger) -> None:
        total_batches = n_batches(len(dataset), batch_size)
        if self.checkpointer is not None:
            # Bootstrap checkpoint: a crash on the very first step must have
            # something to roll back to.
            self._save_checkpoint(ledger)

        while ledger.epoch < epochs:
            ledger.begin_epoch(len(dataset))
            try:
                while ledger.cursor < total_batches:
                    self._run_batch(dataset, ledger, batch_size)
                    if self.checkpointer is not None and self.checkpoint_every \
                            and ledger.step % self.checkpoint_every == 0:
                        self._save_checkpoint(ledger)
            except WorkerDiedError:
                self.recoveries += 1
                self._recover(ledger, batch_size)
                continue  # re-enter from the recovered (epoch, cursor)
            ledger.history.epochs.append(ledger.close_epoch())
            ledger.next_epoch()
            if self.checkpointer is not None:
                self._save_checkpoint(ledger)

    def _run_batch(self, dataset, ledger: TrainingLedger,
                   batch_size: int) -> None:
        model = self.model
        step, b = ledger.step, ledger.cursor
        t_serial = time.process_time()  # CPU time: see _compute_step
        users = ledger.order[b * batch_size: (b + 1) * batch_size]
        total = int(users.size)
        beta = model.beta_schedule(step)
        model._step = step
        # Reference RNG consumption order: noise first, then candidates.
        eps = model._rng.standard_normal((total, model.config.latent_dim))
        batch = dataset.batch(users)
        candidates = model._field_candidates(batch)
        bounds = np.linspace(0, total, self.n_workers + 1).astype(np.int64)
        serial_prep = time.process_time() - t_serial

        self._fire_faults(step)
        for rank in range(self.n_workers):
            lo, hi = int(bounds[rank]), int(bounds[rank + 1])
            self._send(rank, ("step", step, beta, total, users[lo:hi],
                              eps[lo:hi], candidates))
        grads = [self._recv(rank) for rank in range(self.n_workers)]

        t_serial = time.process_time()
        # Route each worker's per-shard gradient buckets to the shard owner.
        routed = [dict() for __ in range(self.n_workers)]
        for msg in grads:
            for pkey, per_shard in msg[7].items():
                for s, part in enumerate(per_shard):
                    if part is not None:
                        routed[s].setdefault(pkey, []).append(part)
        adam_t = self._adam_t + 1
        for rank in range(self.n_workers):
            self._send(rank, ("apply", adam_t, routed[rank]))
        # Dense update (driver-side) overlaps the workers' shard applies;
        # gradients are summed in rank order so the reduction is
        # deterministic for a fixed worker count.
        for i, p in enumerate(self._dense_params):
            parts = [msg[6][i] for msg in grads
                     if msg[6] is not None and msg[6][i] is not None]
            if not parts:
                continue
            total_grad = parts[0].copy()
            for part in parts[1:]:
                total_grad += part
            p.grad = total_grad
        self._dense_opt.step()
        serial_apply = time.process_time() - t_serial
        acks = [self._recv(rank) for rank in range(self.n_workers)]

        self._adam_t = adam_t
        model._step = step + 1
        ledger.add(
            float(np.sum([msg[2] for msg in grads])),
            float(np.sum([msg[3].get("recon", 0.0)
                          for msg in grads if msg[3]])),
            float(np.sum([msg[3].get("kl", 0.0) * (msg[4] / total)
                          for msg in grads if msg[3]])),
            float(beta), total)
        self.step_timings.append({
            "compute_max": max(msg[5] for msg in grads),
            "compute_sum": float(np.sum([msg[5] for msg in grads])),
            "apply_max": max(ack[2] for ack in acks),
            "apply_sum": float(np.sum([ack[2] for ack in acks])),
            "serial": serial_prep + serial_apply,
        })

    # -- messaging -------------------------------------------------------------

    def _send(self, rank: int, msg: tuple) -> None:
        __, conn = self._workers[rank]
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDiedError(rank, f"send failed: {exc}") from exc

    def _recv(self, rank: int):
        proc, conn = self._workers[rank]
        deadline = time.monotonic() + self.recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerDiedError(rank, "recv timed out")
            try:
                if conn.poll(min(remaining, 0.2)):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerDiedError(rank, f"pipe closed: {exc}") from exc
            if not proc.is_alive():
                # Drain anything flushed before death, then report the crash.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerDiedError(rank, f"exit code {proc.exitcode}")

    # -- fault injection and recovery ------------------------------------------

    def _fire_faults(self, step: int) -> None:
        if self.fault_schedule is None:
            return
        for event in self.fault_schedule.at(step):
            if event in self._fired or not 0 <= event.worker < self.n_workers:
                continue
            self._fired.add(event)
            proc, __ = self._workers[event.worker]
            if proc.pid is not None and proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                self.crashes += 1
                obs.count("faults.injected")

    def _recover(self, ledger: TrainingLedger, batch_size: int) -> None:
        """Roll every shard back to the latest checkpoint and respawn."""
        t0 = time.perf_counter()
        checkpoint = self.checkpointer.latest() if self.checkpointer else None
        if checkpoint is None:
            raise RuntimeError("worker died but no checkpoint exists to "
                               "recover from")
        self._stop_workers(force=True)
        arrays = checkpoint.arrays
        ledger.restore(checkpoint, batch_size, self.model)
        for pkey, sstate in self._sparse.items():
            for which in _STATE_KEYS:
                sstate.layout.scatter(arrays[f"sparse/{pkey}/{which}"],
                                      sstate.arrays(which))
            n = sstate.layout.n_rows
            if n:
                sstate.param.data[:n] = arrays[f"sparse/{pkey}/value"]
        for i, p in enumerate(self._dense_params):
            p.data[...] = arrays[f"dense/{i}"]
        self._dense_opt.load_state_arrays(
            {k[len("dense_opt/"):]: v for k, v in arrays.items()
             if k.startswith("dense_opt/")})
        self._adam_t = int(checkpoint.meta["adam_t"])
        self.model._step = ledger.step
        self._spawn_workers()
        obs.observe("distributed.sharded.recovery_seconds",
                    time.perf_counter() - t0)

    def _save_checkpoint(self, ledger: TrainingLedger):
        arrays: dict[str, np.ndarray] = {}
        for pkey, sstate in self._sparse.items():
            for which in _STATE_KEYS:
                arrays[f"sparse/{pkey}/{which}"] = \
                    sstate.layout.gather(sstate.arrays(which))
        for i, p in enumerate(self._dense_params):
            arrays[f"dense/{i}"] = np.array(p.data, copy=True)
        for key, value in self._dense_opt.state_arrays().items():
            arrays[f"dense_opt/{key}"] = value
        meta = {"adam_t": self._adam_t, "n_workers": self.n_workers}
        ledger.write(arrays, meta, self.model)
        return self.checkpointer.save(arrays, meta, step=ledger.step)

    # -- teardown --------------------------------------------------------------

    def _stop_workers(self, force: bool = False) -> None:
        """Stop the pool: ask each worker to exit, or kill it (``force``).

        A forced stop follows a crash, and the survivors' shard state is
        overwritten from the checkpoint next, so they are killed rather than
        left to time out: each forked worker holds its own copy of the
        driver's pipe ends, so closing the driver's end never reaches it as
        EOF.
        """
        for proc, conn in self._workers:
            if force and proc.is_alive():
                proc.kill()
            elif proc.is_alive():
                try:
                    conn.send(("stop",))
                    if conn.poll(2.0):
                        conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
            try:
                conn.close()
            except OSError:
                pass
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=5.0)
        self._workers = []

    def _teardown(self) -> None:
        self._stop_workers()
        # Authoritative parameter state flows from the slabs back into the
        # driver's model before the shared segments disappear.
        for sstate in self._sparse.values():
            n = sstate.layout.n_rows
            if n:
                sstate.param.data[:n] = \
                    sstate.layout.gather(sstate.arrays("value"))
            for which in _STATE_KEYS:
                for slab in sstate.slabs[which]:
                    slab.close()
        self._sparse = {}
        for p, slab in zip(self._dense_params, self._dense_slabs):
            p.data = np.array(p.data, copy=True)
            slab.close()
        self._dense_slabs = []
        self._dense_params = []
