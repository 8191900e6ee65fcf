"""Fault-injection smoke run for CI: kill, resume, degrade — and verify.

Two scenarios, one exit code:

1. **Kill + resume.** Train an FVAE uninterrupted as the reference, then
   train an identical model with per-step checkpointing and kill it mid-epoch
   (a callback raises, standing in for SIGKILL).  A third, fresh model
   resumes from the latest checkpoint and must reproduce the reference run —
   final loss within tolerance and every parameter array bit-exact.  A
   mid-epoch checkpoint resumed at twice the batch size must be refused
   (``CheckpointError``): its batch cursor would skip users.

2. **Degraded serving.** Serve lookups through a ServingProxy whose store
   fails 20% of the time (seeded), with retries, a circuit breaker, and the
   stale/default fallback chain armed, under a telemetry session.  Every
   request must yield a valid embedding; the per-source counters are dumped
   to JSONL and rendered via ``python -m repro report``.

Exit code 0 on success, 1 with diagnostics on any violation.

Usage: PYTHONPATH=src python scripts/resilience_smoke.py [--out x.jsonl]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np


class SimulatedCrash(RuntimeError):
    pass


class KillAfterBatches:
    """Abort training after N optimizer steps — the in-process SIGKILL."""

    def __init__(self, n_batches: int) -> None:
        self.remaining = n_batches

    def __getattr__(self, name):
        if name.startswith("on_"):
            return lambda *a, **k: None
        raise AttributeError(name)

    def on_batch_end(self, *args, **kwargs):
        self.remaining -= 1
        if self.remaining <= 0:
            raise SimulatedCrash()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=800)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--kill-after", type=int, default=7,
                        help="batches before the simulated crash")
    parser.add_argument("--out", default=None,
                        help="serving telemetry JSONL path (default: temp)")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.cli import main as cli_main
    from repro.core import FVAE, FVAEConfig
    from repro.data import make_kd_like
    from repro.loadtest import ChaosStore, ServingFaultSchedule
    from repro.lookalike import EmbeddingStore, ServingProxy, ServingResilience
    from repro.resilience import CheckpointError, Checkpointer

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    syn = make_kd_like(n_users=args.users, seed=0)
    config = FVAEConfig(latent_dim=8, encoder_hidden=[32], decoder_hidden=[32],
                        sampling_rate=0.5, seed=0)

    def fresh_model():
        return FVAE(syn.dataset.schema, config)

    # -- scenario 1: kill + resume reproduces the uninterrupted run ----------
    reference = fresh_model()
    reference.fit(syn.dataset, epochs=args.epochs, batch_size=128, rng=0)
    ref_loss = reference.history.final_loss
    ref_state = {k: v.copy() for k, v in reference.state_dict().items()}

    with tempfile.TemporaryDirectory() as ckpt_dir:
        ck = Checkpointer(ckpt_dir, keep_last=5)
        victim = fresh_model()
        try:
            victim.fit(syn.dataset, epochs=args.epochs, batch_size=128, rng=0,
                       checkpointer=ck, checkpoint_every=1,
                       callbacks=[KillAfterBatches(args.kill_after)])
            check(False, "simulated crash never fired (kill-after too large?)")
        except SimulatedCrash:
            pass
        latest = ck.latest()
        check(latest is not None, "no checkpoint survived the crash")
        if latest is not None:
            lost = args.kill_after - latest.step
            check(lost < 1, f"lost {lost} steps despite a checkpoint "
                            f"interval of 1")
        # Mid-epoch: some, not all, of the epoch's users already trained.
        mid_epoch = [c for c in map(ck.load, ck.checkpoint_paths())
                     if 0 < c.meta["n_seen"] < args.users]
        check(bool(mid_epoch), "no mid-epoch checkpoint survived the crash")

        resumed = fresh_model()
        resumed.fit(syn.dataset, epochs=args.epochs, batch_size=128, rng=0,
                    checkpointer=ck, resume_from=True)
        res_loss = resumed.history.final_loss
        check(abs(res_loss - ref_loss) <= 1e-9 * max(1.0, abs(ref_loss)),
              f"resumed final loss {res_loss!r} != reference {ref_loss!r}")
        res_state = resumed.state_dict()
        check(set(res_state) == set(ref_state),
              "resumed state dict has different keys")
        for key in ref_state:
            if key in res_state and not np.array_equal(ref_state[key],
                                                       res_state[key]):
                check(False, f"parameter {key} differs after resume")
                break

        if mid_epoch:
            try:
                fresh_model().fit(syn.dataset, epochs=args.epochs,
                                  batch_size=256, rng=0,
                                  resume_from=mid_epoch[-1])
                check(False, "a mid-epoch checkpoint taken at batch size 128 "
                             "resumed at 256 without a CheckpointError")
            except CheckpointError:
                pass

    # -- scenario 2: serving stays available under 20% store failure ---------
    out = Path(args.out) if args.out else \
        Path(tempfile.mkstemp(suffix=".jsonl")[1])
    store = EmbeddingStore(dim=8)
    user_ids = [f"u{i}" for i in range(200)]
    store.put_many(user_ids,
                   np.random.default_rng(0).normal(size=(len(user_ids), 8)))
    chaos = ChaosStore(store, ServingFaultSchedule(failure_rate=0.2), rng=7)
    with obs.session() as telemetry:
        proxy = ServingProxy(chaos, cache_capacity=32,
                             resilience=ServingResilience.from_store_prior(
                                 store))
        served = [proxy.get_embedding(uid) for uid in user_ids * 3]
        check(all(v is not None for v in served),
              "a lookup returned None despite the fallback chain")
        check(all(v.shape == (8,) for v in served),
              "a lookup returned a malformed embedding")
    telemetry.dump_jsonl(out, run_id="resilience-smoke")

    check(chaos.injected_failures > 0, "fault injection injected nothing")
    total_lookups = sum(proxy.source_counts.values())
    check(total_lookups == len(served),
          f"per-source lookup counts sum to {total_lookups} != "
          f"{len(served)} requests")
    check(proxy.source_counts["miss"] == 0,
          f"{proxy.source_counts['miss']} lookups returned no embedding")
    # default rows are legitimate last-resort degradation, but should be rare
    # for known users at a 20% failure rate with retries in front
    check(proxy.source_counts["default"] <= 0.01 * len(served),
          f"{proxy.source_counts['default']} of {len(served)} lookups "
          f"degraded all the way to the default embedding")

    try:
        code = cli_main(["report", "--input", str(out)])
        check(code == 0, f"repro report exited {code}")
    except Exception as exc:  # pragma: no cover - diagnostic path
        check(False, f"repro report raised: {exc!r}")

    if failures:
        print("resilience smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"resilience smoke OK: resume loss {res_loss:.6f} == reference, "
          f"{chaos.injected_failures} store failures absorbed "
          f"(sources: {dict(proxy.source_counts)}), telemetry at {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
