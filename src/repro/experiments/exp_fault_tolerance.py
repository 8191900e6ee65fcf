"""Fault-tolerance study — what worker crashes cost the real sharded PS.

The paper's production PS cluster trains for days, and worker crashes are
routine there.  This experiment trains one epoch on
:class:`~repro.distributed.sharded.ShardedTrainer` per crash rate, under a
seeded :class:`~repro.resilience.FaultSchedule`.  Every crash is a real
``SIGKILL`` of a worker process, and every recovery rolls all shards back to
the latest checkpoint and replays.

The table reports what was measured: crashes fired, recoveries, wall
seconds, and the overhead against the fault-free run.  It also reports
whether the final parameters equal the fault-free run's bit for bit, which
is the contract recovery must keep.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import FVAE
from repro.data import make_kd_like
from repro.distributed import ShardedTrainer
from repro.experiments.common import ExperimentScale, fvae_config_for
from repro.resilience import FaultSchedule
from repro.viz import format_table

__all__ = ["FaultRun", "FaultToleranceResult", "run_fault_tolerance"]


@dataclass
class FaultRun:
    """One measured epoch at one crash rate."""

    crash_rate: float
    crashes: int             # SIGKILLs sent
    recoveries: int
    wall_seconds: float
    overhead: float          # wall seconds over the fault-free run's, minus 1
    bit_identical: bool      # final parameters equal the fault-free run's


@dataclass
class FaultToleranceResult:
    """One :class:`FaultRun` per crash rate, the fault-free run first."""

    n_workers: int
    n_steps: int
    runs: list[FaultRun] = field(default_factory=list)

    @property
    def all_bit_identical(self) -> bool:
        return all(run.bit_identical for run in self.runs)

    def to_text(self) -> str:
        headers = ["crash rate", "crashes", "recoveries", "wall s",
                   "overhead %", "bit-identical"]
        rows = [[f"{r.crash_rate:.2%}", r.crashes, r.recoveries,
                 f"{r.wall_seconds:.2f}", f"{100.0 * r.overhead:.1f}",
                 "yes" if r.bit_identical else "NO"] for r in self.runs]
        return format_table(
            headers, rows,
            title=(f"Fault tolerance — measured crash recovery, one epoch of "
                   f"{self.n_steps} steps ({self.n_workers} ShardedTrainer "
                   f"workers, KD-like)"))


def run_fault_tolerance(scale: ExperimentScale | None = None,
                        n_workers: int = 2,
                        crash_rates: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1),
                        checkpoint_interval: int = 10,
                        ) -> FaultToleranceResult:
    """Train one epoch per crash rate and measure the recoveries.

    ``crash_rate`` is the per worker-step crash probability drawn by
    :meth:`FaultSchedule.generate` with ``scale.seed``.  The fault-free run
    is always trained first: it is the reference for overhead and for the
    bit-identity check.
    """
    scale = scale or ExperimentScale(n_users=1500, batch_size=64,
                                     latent_dim=16)
    dataset = make_kd_like(n_users=scale.n_users, seed=scale.seed).dataset
    n_steps = -(-len(dataset) // scale.batch_size)

    def train(rate: float) -> tuple[dict, ShardedTrainer, float]:
        config = fvae_config_for(scale,
                                 encoder_hidden=[2 * scale.latent_dim],
                                 decoder_hidden=[2 * scale.latent_dim],
                                 input_dropout=0.0, feature_dropout=0.0)
        model = FVAE(dataset.schema, config)
        model.initialize_from_dataset(dataset)
        model.astype("float32")
        schedule = FaultSchedule.generate(n_steps, n_workers, rate,
                                          seed=scale.seed)
        with tempfile.TemporaryDirectory() as tmp:
            trainer = ShardedTrainer(model, n_workers=n_workers, lr=scale.lr,
                                     checkpointer=tmp,
                                     checkpoint_every=checkpoint_interval,
                                     fault_schedule=schedule)
            t0 = time.perf_counter()
            trainer.fit(dataset, epochs=1, batch_size=scale.batch_size,
                        rng=scale.seed)
            wall = time.perf_counter() - t0
        return model.state_dict(), trainer, wall

    reference, trainer, reference_wall = train(0.0)
    out = FaultToleranceResult(n_workers=n_workers, n_steps=n_steps)
    out.runs.append(FaultRun(0.0, trainer.crashes, trainer.recoveries,
                             reference_wall, 0.0, True))
    for rate in crash_rates:
        if rate == 0.0:
            continue
        params, trainer, wall = train(rate)
        identical = all(np.array_equal(params[k], reference[k])
                        for k in reference)
        out.runs.append(FaultRun(rate, trainer.crashes, trainer.recoveries,
                                 wall, wall / reference_wall - 1.0,
                                 identical))
    return out
