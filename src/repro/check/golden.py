"""Golden-run regression baselines: committed digests of seeded mini-runs.

Two committed artifacts live under ``benchmarks/golden/``:

* ``GOLDEN_run.json`` — digests of a seeded FVAE mini-run on a small
  ``make_kd_like`` sample (per-epoch loss/recon/kl curves, per-parameter
  norms, hash-table sizes, fold-in tag-prediction AUC/mAP), one ``quick``
  and one ``full`` variant;
* ``GOLDEN_datasets.json`` — summary statistics of the three synthetic
  presets at their default sizes (row-nnz distribution, per-field vocab
  coverage, persona tag overlap).

**Tolerance policy.**  Dataset digests are pure NumPy RNG + integer
reductions — platform-stable — so they are compared (near-)exactly
(``atol=1e-9`` absorbs nothing but summation-order noise in float means).
Run digests go through BLAS matmuls whose summation order varies across
BLAS builds and thread counts, so floats are compared with
``rtol=1e-4`` / ``atol=1e-8``; integer entries (table sizes, epoch counts)
stay exact.  The tolerances are recorded inside the golden files themselves
so the comparison and its policy travel together.

**Regeneration.**  ``python -m repro check --update-golden`` rewrites both
files; commit the diff *only* when the change is intended (a deliberate
change to model, data generation, or training semantics) and say so in the
commit message.  See ``docs/TESTING.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.check.invariants import InvariantCallback, InvariantError

__all__ = ["RUN_GOLDEN", "DATASET_GOLDEN", "RUN_RTOL", "RUN_ATOL",
           "DATASET_ATOL", "default_golden_dir", "run_digest",
           "dataset_digests", "compare_run_digest", "compare_dataset_digests",
           "load_golden", "update_golden", "check_golden"]

RUN_GOLDEN = "GOLDEN_run.json"
DATASET_GOLDEN = "GOLDEN_datasets.json"

RUN_RTOL = 1e-4    # cross-BLAS summation-order drift on matmul-derived floats
RUN_ATOL = 1e-8
DATASET_ATOL = 1e-9  # dataset stats are BLAS-free; effectively exact

# Mini-run sizing: small enough for CI, large enough that every code path
# (sampled softmax, feature dropout, KL annealing, table growth) is exercised.
_RUN_PRESETS = {
    "quick": {"n_users": 240, "epochs": 2, "batch_size": 64},
    "full": {"n_users": 600, "epochs": 3, "batch_size": 64},
}

_DATASET_PRESETS = ("sc", "kd", "qb")
_QUICK_DATASETS = ("sc",)  # smallest preset; --quick checks only this one


def default_golden_dir() -> Path:
    """``benchmarks/golden/`` at the repo root (next to ``benchmarks/results``)."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "golden"


# -- digest construction -------------------------------------------------------

def run_digest(quick: bool = True, seed: int = 0) -> dict:
    """Train a seeded FVAE mini-run and digest everything that must not drift.

    The run trains under :class:`~repro.check.invariants.InvariantCallback`
    and raises :class:`~repro.check.invariants.InvariantError` on any
    violation, so no digest is taken from a run that broke an invariant.
    """
    from repro.core import FVAE, FVAEConfig
    from repro.data import make_kd_like
    from repro.tasks.tag_prediction import evaluate_tag_prediction

    preset = _RUN_PRESETS["quick" if quick else "full"]
    data = make_kd_like(n_users=preset["n_users"], seed=seed)
    train, test = data.dataset.split([0.8, 0.2], rng=seed)

    config = FVAEConfig(latent_dim=16, encoder_hidden=[32],
                        decoder_hidden=[32], sampling_rate=0.5,
                        anneal_steps=20, embedding_capacity=64, seed=seed)
    model = FVAE(train.schema, config)
    invariants = InvariantCallback()
    # The committed digests pin float64 bits; the training default is float32.
    model.fit(train, epochs=preset["epochs"],
              batch_size=preset["batch_size"], rng=seed, precision="float64",
              callbacks=[invariants])
    if invariants.violations:
        raise InvariantError(invariants.violations)

    result = evaluate_tag_prediction(model, test, rng=seed)
    history = model.history
    norms = {name: float(np.linalg.norm(p.data))
             for name, p in sorted(model.named_parameters())}
    tables = {spec.name: int(model.encoder.bag(spec.name).table.size)
              for spec in train.schema}
    return {
        "preset": dict(preset, seed=seed, mode="quick" if quick else "full"),
        "loss_curve": [float(v) for v in history.series("loss")],
        "recon_curve": [float(v) for v in history.series("recon")],
        "kl_curve": [float(v) for v in history.series("kl")],
        "final_beta": float(history.epochs[-1].beta),
        "param_norms": norms,
        "table_sizes": tables,
        "metrics": {"auc": float(result.auc), "map": float(result.map),
                    "n_users": int(result.n_users)},
    }


def _field_digest(csr) -> dict:
    nnz_per_row = np.diff(csr.indptr)
    observed = int(np.unique(csr.indices).size)
    return {
        "vocab": int(csr.n_cols),
        "nnz": int(csr.indices.size),
        "observed_vocab": observed,
        "vocab_coverage": float(observed / csr.n_cols),
        "row_nnz_mean": float(nnz_per_row.mean()),
        "row_nnz_min": int(nnz_per_row.min()),
        "row_nnz_max": int(nnz_per_row.max()),
        "row_nnz_p50": float(np.percentile(nnz_per_row, 50)),
        "row_nnz_p90": float(np.percentile(nnz_per_row, 90)),
        "weight_sum": float(csr.weights.sum()) if csr.weights is not None
        else float(csr.indices.size),
    }


def _persona_overlap(synthetic, n_pairs: int = 500, seed: int = 0) -> dict:
    """Mean Jaccard overlap of tag sets within vs between personas.

    The persona structure is what makes the synthetic data non-trivially
    clusterable; a refactor that silently flattens it would leave marginal
    statistics intact, so it is digested explicitly.
    """
    from repro.utils.rng import new_rng

    personas = synthetic.personas
    csr = synthetic.dataset.field("tag")
    tag_sets = [set(csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist())
                for i in range(synthetic.dataset.n_users)]

    rng = new_rng(seed)
    by_persona: dict[int, list[int]] = {}
    for user, persona in enumerate(personas.tolist()):
        by_persona.setdefault(persona, []).append(user)
    eligible = [users for users in by_persona.values() if len(users) >= 2]

    def jaccard(a: int, b: int) -> float:
        sa, sb = tag_sets[a], tag_sets[b]
        union = len(sa | sb)
        return len(sa & sb) / union if union else 0.0

    within = []
    for __ in range(n_pairs):
        users = eligible[int(rng.integers(len(eligible)))]
        a, b = rng.choice(len(users), size=2, replace=False)
        within.append(jaccard(users[a], users[b]))
    between = []
    n_users = synthetic.dataset.n_users
    while len(between) < n_pairs:
        a, b = rng.integers(n_users, size=2)
        if personas[a] != personas[b]:
            between.append(jaccard(int(a), int(b)))
    return {
        "n_personas": int(len(by_persona)),
        "within_jaccard": float(np.mean(within)),
        "between_jaccard": float(np.mean(between)),
    }


def dataset_digests(presets=_DATASET_PRESETS, seed: int = 0) -> dict:
    """Summary statistics of the synthetic presets at default sizes."""
    from repro.data import get_dataset

    out = {}
    for name in presets:
        synthetic = get_dataset(name, seed=seed)
        ds = synthetic.dataset
        out[name] = {
            "n_users": int(ds.n_users),
            "fields": list(ds.field_names),
            "per_field": {field: _field_digest(ds.field(field))
                          for field in ds.field_names},
            "persona": _persona_overlap(synthetic, seed=seed),
        }
    return out


# -- comparison ----------------------------------------------------------------

def _compare(path: str, golden, actual, rtol: float, atol: float,
             problems: list[str]) -> None:
    """Recursive structural diff; floats within tolerance, everything else
    exact.  Appends a human-readable problem string per divergence."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            problems.append(f"{path}: expected mapping, got {type(actual).__name__}")
            return
        for key in golden:
            if key not in actual:
                problems.append(f"{path}.{key}: missing from actual digest")
            else:
                _compare(f"{path}.{key}", golden[key], actual[key],
                         rtol, atol, problems)
        for key in actual:
            if key not in golden:
                problems.append(f"{path}.{key}: not present in golden digest")
    elif isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            problems.append(f"{path}: length {len(golden)} vs "
                            f"{len(actual) if isinstance(actual, list) else actual!r}")
            return
        for i, (g, a) in enumerate(zip(golden, actual)):
            _compare(f"{path}[{i}]", g, a, rtol, atol, problems)
    elif isinstance(golden, bool) or golden is None or isinstance(golden, str):
        if actual != golden:
            problems.append(f"{path}: {golden!r} != {actual!r}")
    elif isinstance(golden, int) and isinstance(actual, int):
        if actual != golden:
            problems.append(f"{path}: {golden} != {actual}")
    else:  # float (or int/float mix): tolerance-bounded
        g, a = float(golden), float(actual)
        both_nan = np.isnan(g) and np.isnan(a)
        if not both_nan and not np.isclose(a, g, rtol=rtol, atol=atol):
            problems.append(f"{path}: {g!r} != {a!r} "
                            f"(|diff|={abs(a - g):.3e}, rtol={rtol}, atol={atol})")


def compare_run_digest(golden: dict, actual: dict, rtol: float = RUN_RTOL,
                       atol: float = RUN_ATOL) -> list[str]:
    """Diff a run digest against its golden; empty list means a match."""
    problems: list[str] = []
    _compare("run", golden, actual, rtol, atol, problems)
    return problems


def compare_dataset_digests(golden: dict, actual: dict,
                            atol: float = DATASET_ATOL) -> list[str]:
    """Diff dataset digests against golden; near-exact policy (no BLAS)."""
    problems: list[str] = []
    _compare("datasets", golden, actual, 0.0, atol, problems)
    return problems


# -- persistence and the check/update entry points -----------------------------

def load_golden(name: str, directory: str | Path | None = None) -> dict:
    """Load one committed golden file (``RUN_GOLDEN`` or ``DATASET_GOLDEN``)."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    path = directory / name
    if not path.exists():
        raise FileNotFoundError(
            f"no golden file {path}; generate it with "
            f"'python -m repro check --update-golden'")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def update_golden(directory: str | Path | None = None, seed: int = 0,
                  ) -> list[Path]:
    """Regenerate both golden files; returns the written paths."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    run_path = directory / RUN_GOLDEN
    _write(run_path, {
        "policy": {"rtol": RUN_RTOL, "atol": RUN_ATOL,
                   "note": "floats tolerance-bounded (BLAS summation order); "
                           "ints exact"},
        "quick": run_digest(quick=True, seed=seed),
        "full": run_digest(quick=False, seed=seed),
    })
    dataset_path = directory / DATASET_GOLDEN
    _write(dataset_path, {
        "policy": {"atol": DATASET_ATOL,
                   "note": "BLAS-free generation; near-exact comparison"},
        "datasets": dataset_digests(seed=seed),
    })
    return [run_path, dataset_path]


def check_golden(quick: bool = True, directory: str | Path | None = None,
                 seed: int = 0) -> list[str]:
    """Recompute digests and diff them against the committed goldens.

    ``quick`` uses the small run preset and only the fastest dataset preset;
    the full mode recomputes everything.  Returns problem strings (empty =
    all digests match within policy); a mini-run that broke an invariant
    reports its violations instead of a diff.
    """
    golden_run = load_golden(RUN_GOLDEN, directory)
    policy = golden_run.get("policy", {})
    rtol = float(policy.get("rtol", RUN_RTOL))
    atol = float(policy.get("atol", RUN_ATOL))
    mode = "quick" if quick else "full"
    try:
        problems = compare_run_digest(golden_run[mode],
                                      run_digest(quick=quick, seed=seed),
                                      rtol=rtol, atol=atol)
    except InvariantError as err:
        problems = [f"run: invariant {v}" for v in err.violations]

    golden_ds = load_golden(DATASET_GOLDEN, directory)
    ds_atol = float(golden_ds.get("policy", {}).get("atol", DATASET_ATOL))
    presets = _QUICK_DATASETS if quick else _DATASET_PRESETS
    actual = dataset_digests(presets=presets, seed=seed)
    golden_subset = {name: digest
                     for name, digest in golden_ds["datasets"].items()
                     if name in actual}
    problems += compare_dataset_digests(golden_subset, actual, atol=ds_atol)
    return problems
