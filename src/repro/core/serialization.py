"""FVAE persistence: save/load a trained model including its hash tables.

The paper's offline module (§IV-D) trains the FVAE, then ships it to the
serving proxy.  That hand-off needs more than the weights: the dynamic hash
tables mapping raw feature ids to embedding rows are part of the model state.
``save_fvae`` captures config + schema + tables + parameters in one ``.npz``
archive; ``load_fvae`` restores an identical model (tables frozen by default,
the correct serving posture).

Writes are crash-safe: the archive is staged to a temporary file in the
target directory and moved into place with ``os.replace`` (see
:mod:`repro.utils.fileio`), so a crash mid-save never clobbers the previous
model.  A ``<name>.sha256`` sidecar records the content digest;
``load_fvae(verify=True)`` checks it.  Malformed archives raise
:class:`SerializationError` with a description of what is wrong instead of a
raw ``KeyError``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.core.config import FVAEConfig
from repro.core.fvae import FVAE
from repro.data.fields import FieldSchema, FieldSpec
from repro.utils.fileio import atomic_savez, digest_path_for, verify_digest

__all__ = ["save_fvae", "load_fvae", "SerializationError"]

_FORMAT_VERSION = 1


class SerializationError(ValueError):
    """A model archive is unreadable: wrong version, missing keys, corrupt."""


def save_fvae(model: FVAE, path: str | Path) -> None:
    """Serialize a (trained) FVAE to ``path`` (npz archive, atomic write)."""
    schema_payload = [
        {"name": s.name, "vocab_size": s.vocab_size, "sample": s.sample,
         "alpha": s.alpha}
        for s in model.schema
    ]
    arrays: dict[str, np.ndarray] = {}
    for name, values in model.state_dict().items():
        arrays[f"param/{name}"] = values
    for spec in model.schema:
        table = model.encoder.bag(spec.name).table
        items = list(table.items())
        keys = np.asarray([k for k, __ in items], dtype=object)
        rows = np.asarray([v for __, v in items], dtype=np.int64)
        arrays[f"table_keys/{spec.name}"] = keys
        arrays[f"table_rows/{spec.name}"] = rows
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "schema": schema_payload,
        "step": model._step,
        "dtype": str(model.dtype),
    }
    arrays["meta"] = np.asarray(json.dumps(meta))
    atomic_savez(_npz_path(path), arrays)


def _npz_path(path: str | Path) -> Path:
    """Mirror ``np.savez``'s behaviour of appending ``.npz`` when absent."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def load_fvae(path: str | Path, freeze_tables: bool = True,
              verify: bool = False) -> FVAE:
    """Restore an FVAE saved by :func:`save_fvae`.

    ``freeze_tables`` keeps the hash tables from growing — the correct
    behaviour for serving.  Pass ``False`` to continue training on new data
    (the dynamic-hash-table feature-growth story).  ``verify`` additionally
    checks the archive against its ``.sha256`` sidecar before parsing, when
    one exists.
    """
    path = Path(path)
    if verify and digest_path_for(path).exists():
        try:
            verify_digest(path)
        except IOError as exc:
            raise SerializationError(f"{path} failed digest verification: "
                                     f"{exc}") from exc
    with np.load(path, allow_pickle=True) as payload:
        if "meta" not in payload.files:
            raise SerializationError(
                f"{path} is not an FVAE archive: no 'meta' entry")
        try:
            meta = json.loads(str(payload["meta"]))
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"{path} has an unreadable 'meta' entry: {exc}") from exc
        if meta.get("format_version") != _FORMAT_VERSION:
            raise SerializationError(
                f"unsupported model format: {meta.get('format_version')} "
                f"(this build reads version {_FORMAT_VERSION})")
        missing_meta = [key for key in ("config", "schema", "step")
                        if key not in meta]
        if missing_meta:
            raise SerializationError(
                f"{path} meta is missing keys: {missing_meta}")
        schema = FieldSchema([FieldSpec(**spec) for spec in meta["schema"]])
        missing_arrays = [
            name for spec in schema
            for name in (f"table_keys/{spec.name}", f"table_rows/{spec.name}",
                         f"param/encoder.bag_{spec.name}.weight",
                         f"param/decoder.head_{spec.name}.weight")
            if name not in payload.files
        ]
        if missing_arrays:
            raise SerializationError(
                f"{path} is missing arrays: {sorted(missing_arrays)}")
        config = dict(meta["config"])
        # Retired kernel selector: both values trained the same bits.
        config.pop("fused", None)
        unknown = sorted(set(config) - {f.name for f in fields(FVAEConfig)})
        if unknown:
            raise SerializationError(
                f"{path} config has unknown keys: {unknown}")
        model = FVAE(schema, FVAEConfig(**config))
        # float32 weights in a float64 model embed differently in the last
        # digits; archives from before the field existed were always float64.
        model.astype(meta.get("dtype", "float64"))
        model._step = int(meta["step"])

        # Restore tables (and make room in the parameters) before weights.
        for spec in schema:
            keys = payload[f"table_keys/{spec.name}"]
            rows = payload[f"table_rows/{spec.name}"]
            bag = model.encoder.bag(spec.name)
            order = np.argsort(rows)
            for key in keys[order]:
                bag.table.lookup_one(_restore_key(key))
            # Grow to the *saved* capacities so load_state_dict sees
            # same-or-larger arrays on every sparse parameter.
            saved_bag_rows = payload[f"param/encoder.bag_{spec.name}.weight"].shape[0]
            saved_head_rows = payload[f"param/decoder.head_{spec.name}.weight"].shape[0]
            bag._ensure_capacity(max(bag.table.size, saved_bag_rows))
            model.decoder.head(spec.name).ensure_capacity(
                max(bag.table.size, saved_head_rows))
            if freeze_tables:
                bag.table.freeze()

        state = {name[len("param/"):]: payload[name]
                 for name in payload.files if name.startswith("param/")}
        try:
            model.load_state_dict(state)
        except KeyError as exc:
            raise SerializationError(
                f"{path} state dict incomplete: {exc}") from exc
    model.eval()
    return model


def _restore_key(key):
    """npz round-trips Python ints as numpy scalars; normalise them back."""
    if isinstance(key, np.integer):
        return int(key)
    if isinstance(key, np.str_):
        return str(key)
    return key
