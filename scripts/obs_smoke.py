"""Instrumented training smoke run for CI.

Trains an FVAE on KD-like synthetic data under a wall-clock budget with a
telemetry session installed, dumps the JSONL event log, and asserts:

* every line parses as strict JSON with a ``type`` field;
* the span tree contains the per-batch stages and its stage times sum to
  within tolerance of the epoch wall-clock;
* counters exist and are internally consistent (batches > 0, users > 0);
* under glibc, the gauge ``trainer.heap_released_mb`` (the heap ``fit``
  hands back when it returns) is in the snapshot;
* ``python -m repro report`` renders the dump.

Exit code 0 on success, 1 with a diagnostic on any violation.

Usage: PYTHONPATH=src python scripts/obs_smoke.py [--seconds 30] [--out x.jsonl]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="training wall-clock budget (default: 30)")
    parser.add_argument("--users", type=int, default=2000)
    parser.add_argument("--out", default=None,
                        help="JSONL path (default: temp file)")
    args = parser.parse_args(argv)

    from repro import FVAE, FVAEConfig, obs
    from repro.cli import main as cli_main
    from repro.data import make_kd_like

    out = Path(args.out) if args.out else \
        Path(tempfile.mkstemp(suffix=".jsonl")[1])
    out.write_text("")  # truncate any previous run

    syn = make_kd_like(n_users=args.users, seed=0)
    config = FVAEConfig(latent_dim=16, encoder_hidden=[64], decoder_hidden=[64],
                        sampling_rate=0.5, seed=0)
    with obs.session() as telemetry:
        model = FVAE(syn.dataset.schema, config)
        # the callback streams one 'epoch' event per epoch into `out` ...
        model.fit(syn.dataset, epochs=10_000, batch_size=256,
                  max_seconds=args.seconds,
                  callbacks=[obs.TelemetryCallback(event_writer=str(out))])
    # ... and the final metric/span snapshot is appended to the same log
    with obs.JsonlWriter(out) as writer:
        for event in telemetry.snapshot():
            writer.emit(event.pop("type"), **event)

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    # 1. every line is strict JSON with a type
    raw_lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    events = []
    for i, line in enumerate(raw_lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            check(False, f"line {i} is not valid JSON: {exc}")
            continue
        check(isinstance(event, dict) and "type" in event,
              f"line {i} lacks a 'type' field: {line[:80]}")
        events.append(event)
    check(len(events) > 0, "JSONL dump is empty")

    # 2. span tree: stages present, and they account for the epoch wall-clock
    tracer = telemetry.tracer
    epoch_total = tracer.total("epoch")
    stages = ("batch_iter", "forward", "backward", "optimizer_step")
    stage_total = sum(tracer.total(f"epoch/{s}") for s in stages)
    check(epoch_total > 0, "no 'epoch' span recorded")
    for stage in ("forward", "backward", "optimizer_step"):
        check(tracer.total(f"epoch/{stage}") > 0, f"no '{stage}' span recorded")
    if epoch_total > 0:
        coverage = stage_total / epoch_total
        check(0.90 <= coverage <= 1.0 + 1e-9,
              f"stage spans cover {coverage:.1%} of epoch wall-clock "
              f"(want >= 90%)")

    # 3. counters consistent
    reg = telemetry.registry
    batches = reg.get("trainer.batches")
    users = reg.get("trainer.users")
    check(batches is not None and batches.value > 0, "no batches counted")
    check(users is not None and users.value > 0, "no users counted")
    history = model.history
    total_batches = sum(r.n_batches for r in history.epochs)
    check(batches is not None and batches.value == total_batches,
          f"trainer.batches={getattr(batches, 'value', None)} != "
          f"history n_batches={total_batches}")
    epoch_events = [e for e in events if e["type"] == "epoch"]
    check(len(epoch_events) == len(history.epochs),
          f"{len(epoch_events)} epoch events != {len(history.epochs)} epochs")
    if platform.libc_ver()[0] == "glibc":
        gauges = {e.get("name") for e in events if e["type"] == "gauge"}
        check("trainer.heap_released_mb" in gauges,
              "snapshot lacks the gauge trainer.heap_released_mb")

    # 4. the report command renders the dump
    try:
        code = cli_main(["report", "--input", str(out)])
        check(code == 0, f"repro report exited {code}")
    except Exception as exc:  # pragma: no cover - diagnostic path
        check(False, f"repro report raised: {exc!r}")

    if failures:
        print("obs smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"obs smoke OK: {len(events)} events, "
          f"{len(history.epochs)} epochs, "
          f"{stage_total / epoch_total:.1%} span coverage, dump at {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
