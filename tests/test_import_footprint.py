"""Import footprint: the serving and training path loads no SciPy at import.

``src/`` has no module-level SciPy import: ``scipy.sparse`` (the embedding
bag and k-means CSR products), ``scipy.stats`` (AUC), ``scipy.special``
(LDA) and ``scipy.sparse.linalg`` (PCA) are imported where they are called.
Loading them eagerly adds ≈ 64 MB to every process that imports ``repro`` —
≈ 14 MB of it ``scipy.sparse``, which a serving process never uses (see
docs/PERFORMANCE.md § "Import footprint") — so the first test fails with the
import chain that pulled one in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines import LDAModel, PCAModel
from repro.metrics import roc_auc

# "scipy" itself is listed so that the chain of any SciPy import is recorded.
FORBIDDEN = ("scipy", "scipy.sparse", "scipy.stats", "scipy.special",
            "scipy.linalg", "scipy.sparse.linalg", "scipy.optimize")

# The entry points, plus exactly the names bench/workloads.py imports.
PROBE = """
import importlib.abc, json, sys, traceback

FORBIDDEN = %r
chains = {}

class Recorder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name in FORBIDDEN and name not in chains:
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
print(json.dumps({name: chains.get(name, []) for name in FORBIDDEN
                  if name in sys.modules}))
""" % (FORBIDDEN,)


# Each CSR product against its NumPy definition, each in its own fresh
# interpreter so that neither can lean on the other having loaded SciPy.
CSR_PRODUCTS = {
    "embedding_bag": """
from repro.nn import functional as F
from repro.nn.tensor import Tensor

weight = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
indices = np.array([4, 0, 4, 2, 5])
offsets = np.array([0, 2, 2, 5])
per_index = np.array([2.0, 1.0, 0.5, 1.0, 3.0])
out = F.embedding_bag(weight, indices, offsets, per_index)
segment = np.repeat(np.arange(3), np.diff(offsets))
expected = np.zeros((3, 3))
np.add.at(expected, segment, per_index[:, None] * weight.data[indices])
np.testing.assert_allclose(out.data, expected, rtol=1e-12)
upstream = rng.normal(size=(3, 3))
(out * Tensor(upstream)).sum().backward()
grad = np.zeros_like(weight.data)
np.add.at(grad, indices, per_index[:, None] * upstream[segment])
np.testing.assert_allclose(weight.grad, grad, rtol=1e-12)
""",
    "kmeans": """
from repro.lookalike.quant import kmeans

data = np.concatenate([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 9])
centroids, assign = kmeans(data, 2, seed=0)
for c in range(2):
    np.testing.assert_allclose(centroids[c], data[assign == c].mean(axis=0))
""",
}


def _fresh(code: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_entry_points_load_no_optional_scipy():
    loaded = json.loads(_fresh(PROBE).stdout.strip().splitlines()[-1])
    assert not loaded, "SciPy imported at module level:\n" + "\n".join(
        f"{name} via {' -> '.join(chain)}" for name, chain in loaded.items())


@pytest.mark.parametrize("product", sorted(CSR_PRODUCTS))
def test_deferred_csr_products_run_in_a_fresh_interpreter(product):
    code = ("import sys\nimport numpy as np\nimport repro\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "rng = np.random.default_rng(0)\n" + CSR_PRODUCTS[product]
            + "assert 'scipy.sparse' in sys.modules\nprint('ok')\n")
    assert _fresh(code).stdout.split() == ["ok"]


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
