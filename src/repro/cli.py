"""Command-line interface: ``python -m repro <command>``.

Commands mirror the deployment workflow of §IV-D at example scale:

* ``stats``        — generate a dataset preset and print its Table-I row
* ``train``        — train an FVAE on a preset and save the model archive
* ``evaluate``     — tag prediction / reconstruction with a saved model
* ``embed``        — write user embeddings from a saved model to .npz
* ``benchmark``    — quick FVAE-vs-Mult-VAE throughput comparison
* ``lookalike``    — audience expansion over synthetic embeddings with a
  selectable index (``--index none|ivf``) and quantized store
  (``--quant none|int8|pq``); reports recall vs the exact configuration
* ``faults``       — measured crash recovery of the sharded trainer; exit
  code 1 if a recovered run's parameters differ from the fault-free run
* ``report``       — render a telemetry JSONL dump (``train --telemetry``)
* ``check``        — correctness verification: gradcheck coverage sweep,
  differential oracles, and golden-digest comparison (``repro.check``)
* ``trace``        — request-scoped traces from a serving replay (text
  summary or Chrome ``chrome://tracing`` JSON export)
* ``slo``          — evaluate latency/availability SLOs over a recorded
  timeline or a serving replay; exit code is the verdict
* ``loadtest``     — replay a seeded heavy-tailed traffic scenario through
  the overload-safe serving stack on a virtual clock; exit code is the
  gate verdict
* ``chaos``        — the acceptance chaos run: bursty traffic against a
  scripted fault schedule (store failures, outage window, stragglers,
  corrupted rows), scored against the SLO engine and replayed with the same
  seed, which must reproduce it bit for bit; exit code is the verdict

The serving replay of ``trace`` / ``slo`` is the ``loadtest`` stack on its
virtual clock, fed the first ``--requests`` arrivals of the seeded
``steady`` trace: the same seed gives the same requests, faults and SLO
verdict.  It runs on the calling thread, so the stdlib profiler sees all
of it: ``python -m cProfile -s tottime -m repro loadtest --duration 20``.

``train`` grows crash-safety flags: ``--checkpoint-dir`` /
``--checkpoint-every`` write atomic checkpoints during training and
``--resume`` continues bit-exactly from the latest one after a kill (at the
``--batch-size`` it was taken with; another exits 2).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Field-aware VAE reproduction (ICDE 2022) command line")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=("sc", "kd", "qb"), default="sc",
                       help="dataset preset (default: sc)")
        p.add_argument("--users", type=int, default=2000,
                       help="number of users to generate (default: 2000)")
        p.add_argument("--seed", type=int, default=0)

    p_stats = sub.add_parser("stats", help="print dataset statistics (Table I)")
    add_dataset_args(p_stats)

    p_train = sub.add_parser("train", help="train an FVAE and save it")
    add_dataset_args(p_train)
    p_train.add_argument("--output", required=True, help="model .npz path")
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--batch-size", type=int, default=256)
    p_train.add_argument("--latent-dim", type=int, default=32)
    p_train.add_argument("--lr", type=float, default=2e-3)
    p_train.add_argument("--sampling-rate", type=float, default=1.0)
    p_train.add_argument("--beta", type=float, default=0.2)
    p_train.add_argument("--telemetry", default=None, metavar="PATH",
                         help="record training telemetry and write a JSONL "
                              "event dump to PATH (render with 'repro report')")
    p_train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="write crash-safe checkpoints to DIR during "
                              "training")
    p_train.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="STEPS",
                         help="also checkpoint every STEPS batches "
                              "(0: epoch boundaries only)")
    p_train.add_argument("--resume", action="store_true",
                         help="resume from the latest valid checkpoint in "
                              "--checkpoint-dir (fresh start when none)")

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model")
    add_dataset_args(p_eval)
    p_eval.add_argument("--model", required=True, help="model .npz path")
    p_eval.add_argument("--task", choices=("tags", "reconstruction"),
                        default="tags")

    p_embed = sub.add_parser("embed", help="export user embeddings")
    add_dataset_args(p_embed)
    p_embed.add_argument("--model", required=True)
    p_embed.add_argument("--output", required=True, help="embeddings .npz path")

    p_bench = sub.add_parser("benchmark",
                             help="FVAE vs Mult-VAE training throughput")
    add_dataset_args(p_bench)
    p_bench.add_argument("--epochs", type=int, default=2)

    p_lookalike = sub.add_parser(
        "lookalike", help="audience expansion over synthetic clustered "
                          "embeddings: exact or IVF retrieval over a "
                          "float64, int8 or product-quantized store")
    p_lookalike.add_argument("--users", type=int, default=5000,
                             help="number of users to embed (default: 5000)")
    p_lookalike.add_argument("--dim", type=int, default=32,
                             help="embedding dimension (default: 32)")
    p_lookalike.add_argument("--seed", type=int, default=0)
    p_lookalike.add_argument("--index", choices=("none", "ivf"),
                             default="none",
                             help="retrieval index (none: exact scan)")
    p_lookalike.add_argument("--quant", choices=("none", "int8", "pq"),
                             default="none",
                             help="embedding store quantization")
    p_lookalike.add_argument("--k", type=int, default=100,
                             help="audience size to expand to (default: 100)")
    p_lookalike.add_argument("--seeds", type=int, default=20,
                             help="seed-audience size (default: 20)")
    p_lookalike.add_argument("--nprobe", type=int, default=8,
                             help="IVF lists probed per query (default: 8)")
    p_lookalike.add_argument("--telemetry", default=None, metavar="PATH",
                             help="write a telemetry JSONL dump to PATH "
                                  "(render with 'repro report')")

    p_faults = sub.add_parser(
        "faults", help="measured sharded-training crash recovery: wall "
                       "time and recoveries vs crash rate")
    p_faults.add_argument("--users", type=int, default=1500)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--workers", type=int, default=2)
    p_faults.add_argument("--crash-rates", default="0,0.02,0.05,0.1",
                          help="comma-separated per worker-step crash "
                               "probabilities")
    p_faults.add_argument("--checkpoint-interval", type=int, default=10,
                          metavar="STEPS",
                          help="steps between the checkpoints a crash "
                               "rolls back to")

    p_check = sub.add_parser(
        "check", help="correctness verification: op-coverage gradchecks, "
                      "differential oracles, golden-run digests")
    p_check.add_argument("--quick", action="store_true",
                         help="small golden preset + fastest dataset digest "
                              "only (CI smoke; gradchecks and oracles always "
                              "run in full)")
    p_check.add_argument("--update-golden", action="store_true",
                         help="regenerate benchmarks/golden/ baselines "
                              "instead of checking against them")
    p_check.add_argument("--seed", type=int, default=0,
                         help="base seed for gradcheck cases and digests")
    p_check.add_argument("--oracle-seeds", type=int, default=3,
                         metavar="N", help="seeds per differential oracle "
                                           "(default: 3)")
    p_check.add_argument("--golden-dir", default=None, metavar="DIR",
                         help="override the golden baseline directory")

    p_report = sub.add_parser("report",
                              help="render a telemetry JSONL dump as tables")
    p_report.add_argument("--input", required=True,
                          help="JSONL file written by 'train --telemetry' "
                               "or Telemetry.dump_jsonl")
    p_report.add_argument("--format", choices=("table", "prometheus"),
                          default="table",
                          help="summary tables (default) or a Prometheus-"
                               "style text snapshot")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--requests", type=int, default=400,
                       help="requests to replay (default: 400)")
        p.add_argument("--failure-rate", type=float, default=0.0,
                       help="injected store failure probability (default: 0)")
        p.add_argument("--seed", type=int, default=0)

    p_trace = sub.add_parser(
        "trace", help="request-scoped traces from a serving replay")
    add_workload_args(p_trace)
    p_trace.add_argument("--export", choices=("summary", "chrome"),
                         default="summary",
                         help="text summary (default) or Chrome trace-event "
                              "JSON for chrome://tracing / Perfetto")
    p_trace.add_argument("--out", default=None, metavar="PATH",
                         help="output path (required for --export chrome)")
    p_trace.add_argument("--limit", type=int, default=3,
                         help="traces rendered per retention pool in the "
                              "summary (default: 3)")

    p_slo = sub.add_parser(
        "slo", help="evaluate SLOs over a timeline or a serving replay")
    add_workload_args(p_slo)
    p_slo.add_argument("--objective", action="append", default=None,
                       metavar="SPEC",
                       help="declarative objective, repeatable — e.g. "
                            "'p99 latency <= 50ms' or "
                            "'availability >= 99.9%%' (defaults: both)")
    p_slo.add_argument("--window", type=float, default=300.0,
                       help="rolling window in seconds (default: 300)")
    p_slo.add_argument("--timeline", default=None, metavar="PATH",
                       help="JSONL of recorded outcomes ({'ts': s, "
                            "'latency_ms': x, 'ok': bool} per line) "
                            "evaluated on a deterministic clock instead of "
                            "a serving replay")

    def add_loadtest_args(p: argparse.ArgumentParser, duration: float,
                          rate: float) -> None:
        p.add_argument("--duration", type=float, default=duration,
                       help=f"virtual seconds of traffic "
                            f"(default: {duration:g})")
        p.add_argument("--rate", type=float, default=rate,
                       help=f"baseline arrival rate, requests/s "
                            f"(default: {rate:g})")
        p.add_argument("--users", type=int, default=512,
                       help="known users in the store (default: 512)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget-ms", type=float, default=50.0,
                       help="per-request deadline budget in ms; 0 disables "
                            "deadlines (default: 50)")
        p.add_argument("--policy", choices=("reject", "drop_oldest",
                                            "degrade"), default="reject",
                       help="admission-control shed policy (default: reject)")
        p.add_argument("--max-queue", type=int, default=256,
                       help="bounded batcher queue depth (default: 256)")
        p.add_argument("--no-throttle", action="store_true",
                       help="disable the SLO-derived adaptive throttle")
        p.add_argument("--shed-limit", type=float, default=0.2,
                       help="max tolerated shed fraction for the gate "
                            "(default: 0.2)")

    p_loadtest = sub.add_parser(
        "loadtest", help="replay a seeded traffic scenario through the "
                         "serving stack on a virtual clock")
    add_loadtest_args(p_loadtest, duration=10.0, rate=100.0)
    p_loadtest.add_argument("--scenario",
                            choices=("steady", "burst", "hot-keys",
                                     "cold-start"), default="steady",
                            help="traffic shape (default: steady)")
    p_loadtest.add_argument("--failure-rate", type=float, default=0.0,
                            help="background store failure probability "
                                 "(default: 0)")

    p_chaos = sub.add_parser(
        "chaos", help="acceptance chaos run: burst + store failures + "
                      "outage window, scored against SLOs, then replayed "
                      "with the same seed")
    add_loadtest_args(p_chaos, duration=30.0, rate=60.0)
    p_chaos.add_argument("--failure-rate", type=float, default=0.2,
                         help="background store failure probability "
                              "(default: 0.2)")
    p_chaos.add_argument("--burst-multiplier", type=float, default=10.0,
                         help="burst intensity over baseline (default: 10)")
    p_chaos.add_argument("--burst-seconds", type=float, default=2.0,
                         help="burst window length (default: 2)")
    p_chaos.add_argument("--outage-seconds", type=float, default=2.0,
                         help="hard store outage length (default: 2)")

    return parser


def _load_dataset(args):
    from repro.data import get_dataset

    return get_dataset(args.dataset, n_users=args.users, seed=args.seed)


def _cmd_stats(args, out) -> int:
    synthetic = _load_dataset(args)
    stats = synthetic.dataset.stats()
    print(f"{synthetic.name}: {stats}", file=out)
    for name, vocab in stats.per_field_vocab.items():
        print(f"  {name:<6} J={vocab:<10,} N̄={stats.per_field_avg[name]:.2f}",
              file=out)
    return 0


def _cmd_train(args, out) -> int:
    from repro import obs
    from repro.core import FVAE, FVAEConfig, save_fvae
    from repro.resilience import CheckpointError

    synthetic = _load_dataset(args)
    config = FVAEConfig(latent_dim=args.latent_dim,
                        encoder_hidden=[4 * args.latent_dim],
                        decoder_hidden=[4 * args.latent_dim],
                        beta=args.beta, sampling_rate=args.sampling_rate,
                        seed=args.seed)
    model = FVAE(synthetic.dataset.schema, config)
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    fit_kwargs = dict(epochs=args.epochs, batch_size=args.batch_size,
                      lr=args.lr)
    if args.checkpoint_dir:
        fit_kwargs.update(checkpointer=args.checkpoint_dir,
                          checkpoint_every=args.checkpoint_every,
                          resume_from=args.resume)
    try:
        if args.telemetry:
            with obs.session() as telemetry:
                model.fit(synthetic.dataset,
                          callbacks=[obs.TelemetryCallback()], **fit_kwargs)
        else:
            model.fit(synthetic.dataset, **fit_kwargs)
    except CheckpointError as exc:  # a checkpoint this run cannot resume
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    if args.telemetry:
        events = telemetry.dump_jsonl(
            args.telemetry, run_id=f"train-{args.dataset}-seed{args.seed}")
        print(f"telemetry: {events} events written to {args.telemetry}",
              file=out)
    save_fvae(model, args.output)
    history = model.history
    print(f"trained {args.epochs} epochs in {history.total_time:.1f}s "
          f"({history.throughput:.0f} users/s); final loss "
          f"{history.final_loss:.4f}", file=out)
    print(f"model saved to {args.output}", file=out)
    return 0


def _cmd_evaluate(args, out) -> int:
    from repro.core import load_fvae
    from repro.tasks import evaluate_reconstruction, evaluate_tag_prediction

    synthetic = _load_dataset(args)
    __, test = synthetic.dataset.split([0.8, 0.2], rng=args.seed)
    model = load_fvae(args.model)
    if not _schema_matches(model, test, "evaluate"):
        return 2
    if args.task == "tags":
        result = evaluate_tag_prediction(model, test, rng=args.seed)
        print(f"tag prediction: AUC={result.auc:.4f} mAP={result.map:.4f} "
              f"({result.n_users} users)", file=out)
    else:
        result = evaluate_reconstruction(model, test)
        print(f"reconstruction overall: AUC={result.overall['auc']:.4f} "
              f"mAP={result.overall['map']:.4f}", file=out)
        for field, metrics in result.per_field.items():
            print(f"  {field:<6} AUC={metrics['auc']:.4f} "
                  f"mAP={metrics['map']:.4f}", file=out)
    return 0


def _schema_matches(model, dataset, command: str) -> bool:
    """Whether ``model`` can run on ``dataset``; says why not on stderr."""
    try:
        model.check_schema(dataset)
    except ValueError as exc:
        print(f"{command}: {exc}; pass the --dataset the model was trained on",
              file=sys.stderr)
        return False
    return True


def _cmd_embed(args, out) -> int:
    from repro.core import load_fvae

    synthetic = _load_dataset(args)
    model = load_fvae(args.model)
    if not _schema_matches(model, synthetic.dataset, "embed"):
        return 2
    embeddings = model.embed_users(synthetic.dataset)
    np.savez_compressed(args.output, embeddings=embeddings,
                        topics=synthetic.topics)
    print(f"wrote {embeddings.shape[0]:,} embeddings of dim "
          f"{embeddings.shape[1]} to {args.output}", file=out)
    return 0


def _cmd_benchmark(args, out) -> int:
    from repro.experiments import run_table5
    from repro.experiments.common import ExperimentScale

    scale = ExperimentScale(n_users=args.users, seed=args.seed)
    result = run_table5(scale=scale, datasets=(args.dataset.upper(),),
                        epochs=args.epochs)
    print(result.to_text(), file=out)
    return 0


def _cmd_lookalike(args, out) -> int:
    from repro import obs
    from repro.lookalike import LookalikeSystem
    from repro.utils.rng import new_rng

    rng = new_rng(args.seed)
    # Clustered corpus so an approximate index has real structure to find.
    n_clusters = max(2, min(32, args.users // 50))
    centers = rng.normal(size=(n_clusters, args.dim))
    assign = rng.integers(0, n_clusters, size=args.users)
    embeddings = centers[assign] + 0.35 * rng.normal(
        size=(args.users, args.dim))
    # Seed audiences are *similar* users — draw them from one cluster so the
    # pooled query lands in real structure instead of near the global mean.
    members = np.flatnonzero(assign == assign[rng.integers(0, args.users)])
    seeds = rng.choice(members, size=min(args.seeds, members.size),
                       replace=False)

    def build_and_expand(quant, index):
        params = {"nprobe": args.nprobe} if index == "ivf" else None
        system = LookalikeSystem(embeddings, quant=quant,
                                 index=None if index == "none" else index,
                                 seed=args.seed, index_params=params)
        return system, system.expand_audience(seeds, args.k)

    def run():
        system, audience = build_and_expand(args.quant, args.index)
        __, exact_audience = build_and_expand("none", "none")
        return system, audience, exact_audience

    if args.telemetry:
        with obs.session() as telemetry:
            system, audience, exact_audience = run()
        events = telemetry.dump_jsonl(
            args.telemetry, run_id=f"lookalike-seed{args.seed}")
    else:
        system, audience, exact_audience = run()
        events = None

    exact_bytes = embeddings.nbytes
    recall = (np.isin(audience, exact_audience).mean()
              if audience.size else 0.0)
    print(f"lookalike: {args.users:,} users dim={args.dim} "
          f"index={args.index} quant={args.quant}", file=out)
    print(f"  serving bytes: {system.serving_bytes:,} "
          f"({exact_bytes / max(system.serving_bytes, 1):.2f}x smaller than "
          f"float64)", file=out)
    print(f"  expanded {seeds.size} seeds to {audience.size} users; "
          f"recall vs exact scan {recall:.3f}", file=out)
    preview = ", ".join(str(u) for u in audience[:10])
    print(f"  top users: [{preview}{', ...' if audience.size > 10 else ''}]",
          file=out)
    if events is not None:
        print(f"telemetry: {events} events written to {args.telemetry}",
              file=out)
    return 0


def _cmd_faults(args, out) -> int:
    from repro.experiments import run_fault_tolerance
    from repro.experiments.common import ExperimentScale

    rates = tuple(float(r) for r in args.crash_rates.split(","))
    scale = ExperimentScale(n_users=args.users, batch_size=64, latent_dim=16,
                            seed=args.seed)
    result = run_fault_tolerance(scale=scale, n_workers=args.workers,
                                 crash_rates=rates,
                                 checkpoint_interval=args.checkpoint_interval)
    print(result.to_text(), file=out)
    if not result.all_bit_identical:
        print("faults: a recovered run's parameters differ from the "
              "fault-free run", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args, out) -> int:
    import json

    from repro.obs import events_to_prometheus, load_jsonl, render_events

    try:
        events = load_jsonl(args.input)
    except FileNotFoundError:
        print(f"report: no such telemetry dump: {args.input}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"report: {args.input} is not valid JSONL "
              f"(truncated dump?): {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"report: {args.input} contains no telemetry events",
              file=sys.stderr)
        return 2
    if args.format == "prometheus":
        print(events_to_prometheus(events), file=out, end="")
    else:
        print(render_events(events), file=out)
    return 0


def _replay(args, **harness_kwargs):
    """The ``loadtest`` stack and the first ``--requests`` arrivals of its
    seeded ``steady`` trace: the workload of the observability commands."""
    from repro.loadtest import (LoadTestHarness, ServingFaultSchedule,
                                steady_trace)

    harness = LoadTestHarness(
        seed=args.seed,
        schedule=ServingFaultSchedule(failure_rate=args.failure_rate),
        **harness_kwargs)
    duration = args.requests / 50.0 + 1.0  # twice the expected span
    while len(events := steady_trace(duration=duration,
                                     seed=args.seed)) < args.requests:
        duration *= 2
    return harness, events[:args.requests]


def _cmd_trace(args, out) -> int:
    from repro import obs

    if args.export == "chrome" and not args.out:
        print("trace: --export chrome requires --out", file=sys.stderr)
        return 2
    try:
        if args.limit < 0:
            raise ValueError(f"--limit must be >= 0 (0 prints the summary "
                             f"only), got {args.limit}")
        harness, events = _replay(args)
    except ValueError as err:
        return _rejected_flag(args, err)
    with obs.session() as telemetry:
        result = harness.run(events, name="trace")
    store = telemetry.traces
    if args.export == "chrome":
        exported = obs.dump_chrome(store.traces() + store.error_traces()
                                   + store.slowest_traces(), args.out)
        print(f"trace: {exported} events from {store.finished} requests "
              f"written to {args.out}", file=out)
        return 0
    print(f"trace: {result.requests} requests over "
          f"{result.duration_seconds:.2f}s virtual — "
          f"{store.finished} traces finished, {len(store.traces())} kept, "
          f"{len(store.error_traces())} errors, "
          f"{len(store.slowest_traces())} slowest", file=out)
    for title, pool in (("slowest", store.slowest_traces()[:args.limit]),
                        ("errors", store.error_traces()[:args.limit])):
        for trace in pool:
            print(f"\n[{title}]", file=out)
            print(trace.render(), file=out, end="")
    return 0


def _load_timeline(path):
    """Recorded SLO samples: one ``{'ts', 'latency_ms', 'ok'}`` per line."""
    import json
    from pathlib import Path

    samples = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        samples.append((float(rec["ts"]),
                        float(rec.get("latency_ms", 0.0)) / 1e3,
                        bool(rec.get("ok", True))))
    return samples


def _cmd_slo(args, out) -> int:
    import json

    from repro.obs import SLOEngine, parse_objective
    from repro.utils.timer import ManualClock

    specs = args.objective or ["p99 latency <= 50ms",
                               "availability >= 99.9%"]
    try:
        objectives = [parse_objective(spec, window_seconds=args.window)
                      for spec in specs]
    except ValueError as exc:
        print(f"slo: {exc}", file=sys.stderr)
        return 2

    if args.timeline:
        try:
            samples = _load_timeline(args.timeline)
        except FileNotFoundError:
            print(f"slo: no such timeline: {args.timeline}", file=sys.stderr)
            return 2
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"slo: bad timeline {args.timeline}: {exc}",
                  file=sys.stderr)
            return 2
        if not samples:
            print(f"slo: timeline {args.timeline} is empty", file=sys.stderr)
            return 2
        clock = ManualClock()
        engine = SLOEngine(objectives, clock=clock)
        for ts, latency, ok in samples:
            clock.now = max(clock.now, ts)
            engine.record(latency, ok=ok, ts=ts)
    else:
        try:
            harness, events = _replay(args, objectives=tuple(specs),
                                      slo_window_seconds=args.window)
        except ValueError as err:
            return _rejected_flag(args, err)
        harness.run(events, name="slo")
        engine = harness.engine

    statuses = engine.evaluate()
    print(engine.render(), file=out)
    return 0 if all(s.passed for s in statuses) else 1


def _cmd_check(args, out) -> int:
    from repro import check

    if args.update_golden:
        paths = check.update_golden(directory=args.golden_dir,
                                    seed=args.seed)
        for path in paths:
            print(f"golden baseline written: {path}", file=out)
        print("review the diff and commit it only if the change in model, "
              "data, or training semantics is intended", file=out)
        return 0

    failures = 0

    uncovered = check.uncovered_ops()
    reports = check.run_gradchecks(seed=args.seed)
    bad = [r for r in reports if not r.passed]
    failures += len(bad)
    print(f"gradcheck: {len(reports)} cases over "
          f"{len(check.required_ops())} ops — "
          f"{len(bad)} failed, {len(uncovered)} uncovered", file=out)
    for report in bad:
        print(f"  {report}", file=out)
    failures += len(uncovered)
    for op in sorted(uncovered):
        print(f"  UNCOVERED {op}: register a gradcheck case", file=out)

    seeds = tuple(range(args.seed, args.seed + args.oracle_seeds))
    oracle_reports = check.run_oracles(seeds=seeds)
    bad = [r for r in oracle_reports if not r.passed]
    failures += len(bad)
    print(f"oracles: {len(oracle_reports)} runs "
          f"({len(check.oracle_names())} oracles x {len(seeds)} seeds) "
          f"— {len(bad)} failed", file=out)
    for report in bad:
        print(f"  {report}", file=out)

    mode = "quick" if args.quick else "full"
    problems = check.check_golden(quick=args.quick,
                                  directory=args.golden_dir,
                                  seed=args.seed)
    failures += len(problems)
    print(f"golden ({mode}): {len(problems)} divergences", file=out)
    for problem in problems[:20]:
        print(f"  {problem}", file=out)
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more", file=out)

    print("check: PASS" if not failures else f"check: FAIL ({failures})",
          file=out)
    return 0 if not failures else 1


def _loadtest_harness_kwargs(args) -> dict:
    if not args.budget_ms >= 0:  # NaN fails this too
        raise ValueError(f"--budget-ms must be >= 0 (0 disables "
                         f"deadlines), got {args.budget_ms}")
    if not 0.0 <= args.shed_limit <= 1.0:  # and this
        raise ValueError(f"--shed-limit must be a fraction in [0, 1], "
                         f"got {args.shed_limit}")
    return dict(
        deadline_budget_seconds=(args.budget_ms / 1e3
                                 if args.budget_ms > 0 else None),
        policy=args.policy,
        max_queue=args.max_queue,
        throttle=None if args.no_throttle else "auto",
    )


def _rejected_flag(args, err: ValueError) -> int:
    """A flag value the trace, schedule or stack rejects is a usage error
    (exit 2), not a failed gate (exit 1)."""
    print(f"{args.command}: {err}", file=sys.stderr)
    return 2


def _cmd_loadtest(args, out) -> int:
    from repro.loadtest import ServingFaultSchedule, run_loadtest

    try:
        schedule = (ServingFaultSchedule(failure_rate=args.failure_rate)
                    if args.failure_rate else None)
        result = run_loadtest(scenario=args.scenario, duration=args.duration,
                              rate=args.rate, seed=args.seed,
                              n_users=args.users, schedule=schedule,
                              shed_rate_limit=args.shed_limit,
                              **_loadtest_harness_kwargs(args))
    except ValueError as err:
        return _rejected_flag(args, err)
    print(result.render(), file=out)
    return 0 if result.passed else 1


def _cmd_chaos(args, out) -> int:
    from repro.loadtest import run_chaos

    try:
        kwargs = dict(duration=args.duration, rate=args.rate,
                      burst_multiplier=args.burst_multiplier,
                      burst_seconds=args.burst_seconds,
                      failure_rate=args.failure_rate,
                      outage_seconds=args.outage_seconds,
                      seed=args.seed, n_users=args.users,
                      shed_rate_limit=args.shed_limit,
                      **_loadtest_harness_kwargs(args))
        result = run_chaos(**kwargs)
    except ValueError as err:
        return _rejected_flag(args, err)
    print(result.render(), file=out)
    # the property every verdict above leans on: same seed, same run
    replay = run_chaos(**kwargs)
    identical = (np.array_equal(replay.latencies, result.latencies)
                 and replay.shed_counts == result.shed_counts
                 and replay.source_counts == result.source_counts
                 and replay.passed == result.passed)
    print("replay with the same seed: " + (
        "bit-identical" if identical else
        "DIVERGED (a wall clock or unseeded RNG leaked into the "
        "virtual-time stack)"), file=out)
    return 0 if result.passed and identical else 1


_COMMANDS = {
    "stats": _cmd_stats,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "embed": _cmd_embed,
    "benchmark": _cmd_benchmark,
    "lookalike": _cmd_lookalike,
    "faults": _cmd_faults,
    "report": _cmd_report,
    "check": _cmd_check,
    "trace": _cmd_trace,
    "slo": _cmd_slo,
    "loadtest": _cmd_loadtest,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if getattr(args, "requests", 1) < 1:
        print(f"{args.command}: --requests must be at least 1, got "
              f"{args.requests}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
