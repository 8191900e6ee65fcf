"""The full §IV-D production loop, end to end.

data construction  →  offline training  →  model archive  →  online serving

1. replay raw behaviour logs and build top-K weighted profiles;
2. train the FVAE offline and persist it (dynamic hash tables included);
3. reload the archive as the serving side would, infer embeddings;
4. serve audience recall through an IVF index and report matching-stage
   metrics (Recall@K / NDCG@K).

Run with::

    python examples/production_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import FVAE, FVAEConfig, make_sc_like
from repro.core import load_fvae, save_fvae
from repro.lookalike import IVFIndex, LookalikeSystem
from repro.metrics import topk_report
from repro.pipeline import ProfileBuilder, SyntheticLogStream


def main() -> None:
    # -- 1. data construction ---------------------------------------------------
    ground_truth = make_sc_like(n_users=1500, seed=0)
    stream = SyntheticLogStream(ground_truth, duration_days=7, seed=0)
    print(f"replaying {stream.event_count():,} log events…")

    builder = ProfileBuilder(ground_truth.dataset.schema, top_k=128,
                             half_life_days=14.0)
    builder.ingest_with_decay(stream.events())
    dataset = builder.build(n_users=ground_truth.dataset.n_users)
    print(f"built profiles: {dataset.stats()} "
          f"({builder.events_processed:,} events, "
          f"{builder.events_skipped} skipped)")

    train, test = dataset.split([0.8, 0.2], rng=0)

    # -- 2. offline training + archive ------------------------------------------
    model = FVAE(train.schema, FVAEConfig(latent_dim=32, encoder_hidden=[128],
                                          decoder_hidden=[128], seed=0))
    model.fit(train, epochs=8, batch_size=256, lr=2e-3)
    archive = Path(tempfile.gettempdir()) / "fvae_production_demo.npz"
    save_fvae(model, archive)
    print(f"model archived to {archive} "
          f"({archive.stat().st_size / 1e6:.1f} MB)")

    # -- 3. serving side: reload + infer ----------------------------------------
    serving_model = load_fvae(archive)          # tables frozen for serving
    embeddings = serving_model.embed_users(dataset)
    print(f"inferred {embeddings.shape[0]:,} serving embeddings")

    # -- 4. online recall: IVF vs exact -----------------------------------------
    index = IVFIndex(dim=embeddings.shape[1], n_lists=32, nprobe=4,
                     seed=0).fit(embeddings)
    queries = embeddings[:50]
    recall = index.recall_at_k(queries, k=20)
    print(f"IVF recall@20 vs exact scan: {recall:.1%} "
          f"({index.nprobe} of {index.n_lists} lists probed)")

    system = LookalikeSystem(embeddings)
    topic0 = np.flatnonzero(ground_truth.topics == 0)
    expanded = system.expand_audience(topic0[:20], k=200)
    precision = float(np.isin(expanded, topic0).mean())
    print(f"audience expansion precision: {precision:.1%} "
          f"(base rate {topic0.size / dataset.n_users:.1%})")

    # matching-stage quality of the model itself
    test_scores = serving_model.score_field(test.blank_fields(["tag"]), "tag")
    report = topk_report(test_scores, test.field("tag").binarize(), [10, 50])
    for k, metrics in report.items():
        print(f"tag matching @ {k:>3}: recall={metrics['recall']:.3f} "
              f"ndcg={metrics['ndcg']:.3f}")


if __name__ == "__main__":
    main()
