"""FVAE persistence: save/load a trained model including its hash tables.

The paper's offline module (§IV-D) trains the FVAE, then ships it to the
serving proxy.  That hand-off needs more than the weights: the dynamic hash
tables mapping raw feature ids to embedding rows are part of the model state.
``save_fvae`` writes config + schema + step as the JSON ``meta`` member and
the tables and parameters as :func:`~repro.resilience.model_state_arrays`
members with the archive codec
(:func:`~repro.resilience.checkpoint.write_archive`).  ``load_fvae`` reads
it back (:func:`~repro.resilience.checkpoint.read_archive`), restores it
with :func:`~repro.resilience.restore_model_state` — the parameters take the
saved arrays, dtype included — then freezes the tables by default, the
correct serving posture.  Every unreadable or malformed archive raises
:class:`~repro.resilience.CheckpointError`.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.core.config import FVAEConfig
from repro.core.fvae import FVAE
from repro.data.fields import FieldSchema, FieldSpec
from repro.resilience.checkpoint import (CheckpointError, model_state_arrays,
                                         read_archive, restore_model_state,
                                         write_archive)

__all__ = ["save_fvae", "load_fvae"]


def save_fvae(model: FVAE, path: str | Path) -> None:
    """Serialize a (trained) FVAE to exactly ``path`` (npz archive, atomic
    write)."""
    schema = [{"name": s.name, "vocab_size": s.vocab_size, "sample": s.sample,
               "alpha": s.alpha} for s in model.schema]
    write_archive(path, model_state_arrays(model),
                  {"config": asdict(model.config), "schema": schema,
                   "step": model._step})


def load_fvae(path: str | Path, freeze_tables: bool = True) -> FVAE:
    """Restore an FVAE saved by :func:`save_fvae`.

    ``freeze_tables`` keeps the hash tables from growing — the correct
    behaviour for serving.  Pass ``False`` to continue training on new data
    (the dynamic-hash-table feature-growth story).
    """
    archive = read_archive(path)
    meta = archive.meta
    try:
        config = dict(meta["config"])
        # Retired kernel selector: both values trained the same bits.
        config.pop("fused", None)
        schema = FieldSchema([FieldSpec(**spec) for spec in meta["schema"]])
        model = FVAE(schema, FVAEConfig(**config))
        model._step = int(meta["step"])
    except KeyError as exc:
        raise CheckpointError(f"{archive.path} meta is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{archive.path} meta does not describe an FVAE: {exc}") from exc
    restore_model_state(model, archive.arrays)
    if freeze_tables:
        for spec in schema:
            model.encoder.bag(spec.name).table.freeze()
    model.eval()
    return model
