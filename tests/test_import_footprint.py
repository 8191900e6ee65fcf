"""Import footprint: the serving and training path loads no optional SciPy.

Only the core path imports SciPy at module level, and only ``scipy.sparse``;
``scipy.stats`` (AUC), ``scipy.special`` (LDA) and ``scipy.sparse.linalg``
(PCA) are imported where they are called.  Loading them eagerly adds ≈ 50 MB
to every process that imports ``repro`` (see docs/PERFORMANCE.md § "Import
footprint"), so the first test fails with the import chain that pulled one in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.baselines import LDAModel, PCAModel
from repro.metrics import roc_auc

OPTIONAL = ("scipy.stats", "scipy.special", "scipy.linalg",
            "scipy.sparse.linalg", "scipy.optimize")

# The entry points, plus exactly the names bench/workloads.py imports.
PROBE = """
import importlib.abc, json, sys, traceback

OPTIONAL = %r
chains = {}

class Recorder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name in OPTIONAL and name not in chains:
            chains[name] = [f"{f.filename}:{f.lineno}"
                            for f in traceback.extract_stack()[:-1]
                            if f.name == "<module>" and "importlib" not in f.filename]
        return None

sys.meta_path.insert(0, Recorder())
import repro, repro.cli, repro.lookalike.ann, repro.lookalike.serving
import repro.serve.batcher
from repro import FVAE, FVAEConfig, make_kd_like
from repro.lookalike.ann import IVFIndex, exact_top_k
from repro.lookalike.serving import ServingProxy, ServingResilience
from repro.lookalike.store import EmbeddingStore
from repro.obs.callbacks import TrainerCallback
from repro.serve.batcher import MicroBatcher
print(json.dumps({name: chains.get(name, []) for name in OPTIONAL
                  if name in sys.modules}))
""" % (OPTIONAL,)


def test_entry_points_load_no_optional_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not loaded, "optional SciPy imported at module level:\n" + "\n".join(
        f"{name} via {' -> '.join(chain)}" for name, chain in loaded.items())


def test_deferred_imports_run(tiny_dataset):
    scores = np.array([0.9, 0.5, 0.5, 0.1, 0.5])
    labels = np.array([1, 1, 0, 0, 0], dtype=bool)
    # Mann–Whitney by pairs, a tie counting one half.
    diff = scores[labels][:, None] - scores[~labels][None, :]
    expected = ((diff > 0) + 0.5 * (diff == 0)).mean()
    assert roc_auc(scores, labels) == expected == 5 / 6

    theta = LDAModel(n_topics=3, n_iterations=2, e_steps=5).fit(
        tiny_dataset).embed_users(tiny_dataset)
    assert theta.shape == (6, 3)
    np.testing.assert_allclose(theta.sum(axis=1), 1.0)

    z = PCAModel(latent_dim=3).fit(tiny_dataset).embed_users(tiny_dataset)
    assert z.shape == (6, 3) and np.isfinite(z).all()
