"""Differential oracles: optimised implementations vs their references.

Every hot-path optimisation in this repo claims equivalence with a slower
reference implementation (bit-exact, or within a stated tolerance where it
sums in another order).  An :class:`Oracle`
makes that claim declarative and mechanically checkable: a registered
function builds seeded randomized inputs, runs both implementations, and
returns ``{label: (reference, optimised)}`` array pairs; the runner asserts
bit-exactness (``exact=True``) or tolerance-bounded closeness per pair, over
several seeds.

Future ``repro.perf`` optimisations register an oracle here instead of
writing ad-hoc spot tests — ``python -m repro check`` and
``tests/test_check_oracles.py`` then exercise it on every run.  See
``docs/TESTING.md`` for the how-to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["Oracle", "OracleReport", "register_oracle", "unregister_oracle",
           "oracle_names", "run_oracle", "run_oracles"]

Pairs = Mapping[str, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Oracle:
    """A reference↔optimised pairing checked over seeded random inputs."""

    name: str
    build: Callable[[np.random.Generator], Pairs]
    exact: bool = True
    rtol: float = 0.0
    atol: float = 0.0
    description: str = ""


@dataclass
class OracleReport:
    """Outcome of one oracle on one seed."""

    name: str
    seed: int
    passed: bool
    exact: bool
    max_abs_diff: float
    mismatches: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        detail = "" if self.passed else "; mismatched: " + ", ".join(self.mismatches)
        return (f"[{status}] {self.name} seed={self.seed} "
                f"max|ref-opt|={self.max_abs_diff:.3e}{detail}")


_ORACLES: dict[str, Oracle] = {}


def register_oracle(name: str, *, exact: bool = True, rtol: float = 0.0,
                    atol: float = 0.0, description: str = ""):
    """Decorator registering ``build(rng) -> {label: (ref, opt)}``."""

    def decorate(build):
        if name in _ORACLES:
            raise ValueError(f"duplicate oracle '{name}'")
        _ORACLES[name] = Oracle(name=name, build=build, exact=exact,
                                rtol=rtol, atol=atol, description=description)
        return build

    return decorate


def unregister_oracle(name: str) -> None:
    """Remove an oracle (test hook for temporarily registered pairings)."""
    _ORACLES.pop(name, None)


def oracle_names() -> list[str]:
    return sorted(_ORACLES)


def run_oracle(name: str, seed: int = 0) -> OracleReport:
    """Run one oracle on one seed."""
    oracle = _ORACLES[name]
    pairs = oracle.build(new_rng(seed))
    mismatches: list[str] = []
    max_diff = 0.0
    for label, (ref, opt) in pairs.items():
        ref = np.asarray(ref)
        opt = np.asarray(opt)
        if ref.shape != opt.shape:
            mismatches.append(f"{label} (shape {ref.shape} vs {opt.shape})")
            max_diff = float("inf")
            continue
        if ref.size:
            with np.errstate(invalid="ignore"):
                diff = np.abs(ref.astype(np.float64, copy=False)
                              - opt.astype(np.float64, copy=False))
            max_diff = max(max_diff, float(diff.max()) if diff.size else 0.0)
        if oracle.exact:
            ok = np.array_equal(ref, opt)
        else:
            ok = np.allclose(ref, opt, rtol=oracle.rtol, atol=oracle.atol)
        if not ok:
            mismatches.append(label)
    return OracleReport(name=name, seed=seed, passed=not mismatches,
                        exact=oracle.exact, max_abs_diff=max_diff,
                        mismatches=mismatches)


def run_oracles(seeds: Iterable[int] = (0, 1, 2),
                names: Sequence[str] | None = None) -> list[OracleReport]:
    """Run all (or the named) oracles over every seed."""
    selected = oracle_names() if names is None else list(names)
    return [run_oracle(name, seed) for name in selected for seed in seeds]


# -- built-in oracles ----------------------------------------------------------
#
# One per optimisation (the batched-softmax kernel and its field worker,
# coalesced gradients, vectorised hash lookups, ...) plus the
# gradient-scatter entry points they rely on.  All late-bind their subjects
# so monkeypatched implementations are what gets checked.  The dense chain
# of ``repro.check.reference`` is what the kernel is held to; no product
# code runs it.

_SOFTMAX_FIELDS = (7, 1, 4, 5)   # candidates per field; C = 1 included


def _softmax_case(rng: np.random.Generator, sparse: bool,
                  dtype=np.float64) -> Callable[[str], dict]:
    """Four fields' inputs, and ``run(mode)`` returning the losses and
    gradients of the ``"chain"``, of the kernel ``"inline"``, or of the
    kernel under a field ``"worker"``."""
    from contextlib import nullcontext

    from repro.check.reference import csr_from_dense, softmax_nll_chain
    from repro.nn import functional as F
    from repro.nn.parallel import FieldWorker
    from repro.nn.tensor import Parameter, Tensor

    B, D, J = 5, 6, 12
    h_data = rng.normal(size=(B, D)).astype(dtype)
    heads, cands, dense = [], [], []
    for C in _SOFTMAX_FIELDS:
        heads.append((rng.normal(scale=0.3, size=(J, D)).astype(dtype),
                      rng.normal(scale=0.1, size=J).astype(dtype)))
        cands.append(np.sort(rng.choice(J, size=C, replace=False)))
        counts = rng.integers(0, 3, size=(B, C)).astype(np.float64)
        counts[1] = 0.0                      # a user with no target here
        dense.append(counts)
    seed = rng.uniform(0.5, 1.5, size=len(heads)).astype(dtype)
    scale = 1.0 / B

    def run(mode: str) -> dict:
        h = Tensor(h_data.copy(), requires_grad=True)
        params = [(Parameter(w.copy(), name=f"w{k}", sparse=sparse),
                   Parameter(b.copy(), name=f"b{k}", sparse=sparse))
                  for k, (w, b) in enumerate(heads)]
        with FieldWorker() if mode == "worker" else nullcontext():
            if mode == "chain":
                nlls = [softmax_nll_chain(h, w, b, cand, targets, scale)
                        for (w, b), cand, targets in zip(params, cands, dense)]
                losses = np.array([nll.data for nll in nlls])
                total = sum(nll * weight for nll, weight in zip(nlls, seed))
            else:
                out = F.sampled_softmax_nll(
                    h, [w for w, __ in params], [b for __, b in params],
                    cands, [csr_from_dense(d) for d in dense], scale=scale)
                losses = out.data.copy()
                total = (out * Tensor(seed)).sum()
            total.backward()
        got = {"loss": losses, "grad_h": h.grad.copy()}
        for k, (w, b) in enumerate(params):
            got[f"grad_weight{k}"] = w.densify_grad()
            got[f"grad_bias{k}"] = b.densify_grad()
        return got

    return run


def _pairs(ref: dict, opt: dict, prefix: str = "") -> Pairs:
    return {prefix + label: (ref[label], opt[label]) for label in ref}


@register_oracle("nn.sampled_softmax_nll.fused_vs_unfused.dense",
                 exact=False, rtol=1e-12, atol=1e-12,
                 description="CSR batched-softmax kernel (four fields, C = 1 "
                             "and an empty target row included) vs the dense "
                             "rows→matmul→take→log_softmax chain on dense "
                             "parameters, float64 (summation order differs)")
def _oracle_fused_dense(rng: np.random.Generator) -> Pairs:
    run = _softmax_case(rng, sparse=False)
    return _pairs(run("chain"), run("inline"))


@register_oracle("nn.sampled_softmax_nll.fused_vs_unfused.sparse",
                 exact=False, rtol=1e-12, atol=1e-12,
                 description="CSR batched-softmax kernel vs the dense chain "
                             "on row-sparse parameters, float64")
def _oracle_fused_sparse(rng: np.random.Generator) -> Pairs:
    run = _softmax_case(rng, sparse=True)
    return _pairs(run("chain"), run("inline"))


@register_oracle("nn.sampled_softmax_nll.worker_vs_inline",
                 description="batched-softmax kernel with its fields split "
                             "between the caller and a field worker thread "
                             "vs all fields inline: losses and every "
                             "gradient, float64 and float32 (bit-exact)")
def _oracle_field_worker(rng: np.random.Generator) -> Pairs:
    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for dtype in (np.float64, np.float32):
        run = _softmax_case(rng, sparse=True, dtype=dtype)
        pairs.update(_pairs(run("inline"), run("worker"),
                            prefix=f"{np.dtype(dtype).name}."))
    return pairs


@register_oracle("tensor.coalesce_rows", exact=False, rtol=1e-12, atol=1e-12,
                 description="sort + segment-sum coalesce vs the np.add.at "
                             "scatter reference (equal up to float summation "
                             "order: reduceat sums sorted runs, add.at sums "
                             "in occurrence order)")
def _oracle_coalesce(rng: np.random.Generator) -> Pairs:
    from repro.nn.tensor import coalesce_rows

    n_rows = 11
    idx = rng.integers(0, n_rows, size=40)
    grads = rng.normal(size=(40, 3))

    dense_ref = np.zeros((n_rows, 3))
    np.add.at(dense_ref, idx, grads)

    unique, summed = coalesce_rows(idx, grads)
    dense_opt = np.zeros((n_rows, 3))
    dense_opt[unique] = summed

    # Sorted-unique fast path: strictly increasing input comes back as-is.
    sorted_idx = np.arange(0, n_rows, 2)
    sorted_grads = rng.normal(size=(sorted_idx.size, 3))
    u2, s2 = coalesce_rows(sorted_idx, sorted_grads)
    return {"scatter": (dense_ref, dense_opt),
            "unique_rows": (np.sort(np.unique(idx)), unique),
            "sorted_passthrough_rows": (sorted_idx, u2),
            "sorted_passthrough_grads": (sorted_grads, s2)}


@register_oracle("tensor.scatter_add_grad.assume_unique",
                 description="assume_unique fast path vs the coalescing "
                             "scatter on a unique index set (bit-exact)")
def _oracle_scatter_unique(rng: np.random.Generator) -> Pairs:
    from repro.nn.tensor import Parameter

    rows = np.sort(rng.choice(10, size=6, replace=False))
    grads = rng.normal(size=(6, 4))

    generic = Parameter(np.zeros((10, 4)), name="g")
    generic.scatter_add_grad(rows.copy(), grads.copy())
    fast = Parameter(np.zeros((10, 4)), name="f")
    fast.scatter_add_grad(rows.copy(), grads.copy(), assume_unique=True)
    return {"dense_grad": (generic.densify_grad(), fast.densify_grad())}


@register_oracle("optim.coalesce_parts", exact=False, rtol=1e-12, atol=1e-12,
                 description="multi-part sparse-gradient merge vs a dense "
                             "np.add.at scatter (equal up to float summation "
                             "order)")
def _oracle_optim_coalesce(rng: np.random.Generator) -> Pairs:
    from repro.nn.optim import _coalesce
    from repro.nn.tensor import coalesce_rows

    n_rows = 9
    parts = []
    dense = np.zeros((n_rows, 2))
    for __ in range(3):
        idx = rng.integers(0, n_rows, size=8)
        grads = rng.normal(size=(8, 2))
        np.add.at(dense, idx, grads)
        parts.append(coalesce_rows(idx, grads))  # parts are entry-coalesced
    rows, summed = _coalesce(parts)
    opt = np.zeros((n_rows, 2))
    opt[rows] = summed
    return {"merged": (dense, opt)}


@register_oracle("nn.embedding_bag.csr_vs_onehot", exact=False, rtol=1e-12,
                 atol=1e-12,
                 description="CSR-product embedding bag, forward and weight "
                             "gradient, vs an explicit dense one-hot matmul")
def _oracle_embedding_bag(rng: np.random.Generator) -> Pairs:
    from repro.nn import functional as F
    from repro.nn.tensor import Parameter

    n_bags, capacity, dim = 7, 12, 4
    sizes = rng.integers(0, 6, size=n_bags)        # empty bags included
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    indices = rng.integers(0, 5, size=offsets[-1])  # duplicate-heavy
    piw = rng.uniform(0.5, 2.0, size=indices.size)
    w_data = rng.normal(size=(capacity, dim))
    grad = rng.normal(size=(n_bags, dim))

    onehot = np.zeros((n_bags, capacity))
    np.add.at(onehot, (np.repeat(np.arange(n_bags), sizes), indices), piw)

    weight = Parameter(w_data.copy(), name="w", sparse=True)
    out = F.embedding_bag(weight, indices, offsets, piw)
    out.backward(grad)
    raw, __ = F.embedding_bag_data(w_data, indices, offsets, piw)
    want = onehot @ w_data
    return {"forward": (want, out.data), "forward_arrays": (want, raw),
            "grad_weight": (onehot.T @ grad, weight.densify_grad())}


@register_oracle("hashing.bulk_lookup",
                 description="vectorised id-mirror lookups vs a plain-dict "
                             "scalar reference (bit-exact, incl. grow order)")
def _oracle_bulk_lookup(rng: np.random.Generator) -> Pairs:
    from repro.hashing import DynamicHashTable

    universe = 40
    warm = rng.choice(universe, size=12, replace=False)
    query = rng.integers(0, universe + 5, size=50)  # includes unknown ids

    # Reference: the dict semantics, spelled out scalar by scalar.
    ref_index: dict[int, int] = {}
    for key in warm.tolist():
        ref_index.setdefault(key, len(ref_index))
    ref_rows = []
    for key in query.tolist():
        if key not in ref_index:
            ref_index[key] = len(ref_index)
        ref_rows.append(ref_index[key])
    ref_rows = np.asarray(ref_rows, dtype=np.int64)
    ref_frozen = np.asarray(
        [ref_index.get(k, -1) for k in (query - 2).tolist()], dtype=np.int64)

    table = DynamicHashTable()
    table.lookup(warm.tolist())           # scalar warm-up path
    opt_rows = table.lookup_ids(query)    # vectorised grow path
    opt_frozen = table.rows_for_ids(query - 2)  # vectorised no-grow path

    ref_keys = np.asarray(list(ref_index.keys()), dtype=np.int64)
    ref_vals = np.asarray(list(ref_index.values()), dtype=np.int64)
    opt_keys = np.asarray([k for k, __ in table.items()], dtype=np.int64)
    opt_vals = np.asarray([v for __, v in table.items()], dtype=np.int64)
    return {"rows": (ref_rows, opt_rows),
            "rows_no_grow": (ref_frozen, opt_frozen),
            "insertion_keys": (ref_keys, opt_keys),
            "insertion_rows": (ref_vals, opt_vals)}


@register_oracle("serve.proxy_batch_vs_scalar",
                 description="ServingProxy degradation chain, one full batch "
                             "vs the per-key loop of batches of one — same "
                             "vectors, masks and per-source counts in legacy, "
                             "resilient and store-outage modes (distinct keys)")
def _oracle_proxy_batch(rng: np.random.Generator) -> Pairs:
    from repro.lookalike import EmbeddingStore, ServingProxy
    from repro.lookalike.serving import ServingResilience
    from repro.resilience.faults import FlakyEmbeddingStore

    dim, n = 6, 12
    keys = [f"u{i}" for i in range(n)]
    matrix = rng.normal(size=(n, dim))
    fresh_vec = rng.normal(size=dim)

    def build(mode: str) -> ServingProxy:
        store = EmbeddingStore(dim=dim)
        store.put_many(keys, matrix)
        if mode == "outage":
            store = FlakyEmbeddingStore(store, failure_rate=0.0, rng=0)

        def infer(uid):
            return fresh_vec.copy() if str(uid).startswith("fresh") else None

        resilience = None if mode == "legacy" else ServingResilience()
        return ServingProxy(store, cache_capacity=2 * n, infer_fn=infer,
                            resilience=resilience)

    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for mode in ("legacy", "resilient", "outage"):
        scalar, batch = build(mode), build(mode)
        ids = keys + ["fresh1", "ghost"]  # store / inferred / miss-or-default
        for rnd in range(2):              # cold round, then warm (cache) round
            if mode == "outage" and rnd == 1:
                # Stale sweep: the store goes down after the warm-up round
                # and both proxies lose their caches, so every stored key
                # must come back from the stale snapshot.
                for proxy in (scalar, batch):
                    proxy.store.failure_rate = 1.0
                    proxy.cache = type(proxy.cache)(2 * n, name="serving")
            # the per-key reference: one scalar lookup per id, legacy
            # misses zero-filled, misses and defaults unmasked
            looked = [scalar.lookup(k) for k in ids]
            s_rows = np.stack([np.zeros(dim) if vec is None else vec
                               for vec, __ in looked])
            s_mask = np.asarray([src not in ("miss", "default")
                                 for __, src in looked])
            b_rows, b_mask = batch.get_embeddings_masked_batch(ids)
            pairs[f"{mode}.round{rnd}.matrix"] = (s_rows, b_rows)
            pairs[f"{mode}.round{rnd}.mask"] = (s_mask, b_mask)
        sources = sorted(set(scalar.source_counts) | set(batch.source_counts))
        pairs[f"{mode}.source_counts"] = (
            np.asarray([scalar.source_counts[s] for s in sources]),
            np.asarray([batch.source_counts[s] for s in sources]))
        pairs[f"{mode}.inferences"] = (np.asarray(scalar.inferences),
                                       np.asarray(batch.inferences))
    return pairs


@register_oracle("core.encoder.inference_vs_autograd",
                 description="FVAE.encode_batch raw-array inference forward "
                             "vs the eval-mode autograd Tensor forward "
                             "(bit-exact mu and logvar)")
def _oracle_encoder_inference(rng: np.random.Generator) -> Pairs:
    from repro.core import FVAE, FVAEConfig
    from repro.data import make_kd_like

    seed = int(rng.integers(0, 2 ** 31))
    data = make_kd_like(n_users=40, seed=seed)
    config = FVAEConfig(latent_dim=8, encoder_hidden=[16], decoder_hidden=[16],
                        seed=seed)
    model = FVAE(data.dataset.schema, config)
    model.fit(data.dataset, epochs=1, batch_size=16)
    batch = data.dataset.batch(np.arange(20))
    mu_t, logvar_t = model.encode_batch(batch, inference=False)
    mu_a, logvar_a = model.encode_batch(batch, inference=True)
    return {"mu": (mu_t, mu_a), "logvar": (logvar_t, logvar_a)}


@register_oracle("distributed.sharded_vs_single_process", exact=False,
                 rtol=1e-12, atol=1e-12,
                 description="one epoch on the real multi-process sharded "
                             "parameter server vs the single-process "
                             "Trainer.fit reference (equal up to float "
                             "summation order across workers)")
def _oracle_sharded_trainer(rng: np.random.Generator) -> Pairs:
    from repro.core import FVAE, FVAEConfig
    from repro.core.trainer import Trainer
    from repro.data import make_kd_like
    from repro.distributed.sharded import ShardedTrainer

    seed = int(rng.integers(0, 2 ** 31))

    def build():
        data = make_kd_like(n_users=48, seed=seed)
        config = FVAEConfig(latent_dim=8, encoder_hidden=[16],
                            decoder_hidden=[16], input_dropout=0.0,
                            feature_dropout=0.0, seed=seed)
        model = FVAE(data.dataset.schema, config)
        model.initialize_from_dataset(data.dataset)
        return model, data.dataset

    ref_model, ref_data = build()
    # float64 on both sides: the sharded trainer runs at the model's dtype
    ref_hist = Trainer(ref_model, lr=1e-3, precision="float64").fit(
        ref_data, epochs=1, batch_size=16, rng=seed)
    sh_model, sh_data = build()
    sh_hist = ShardedTrainer(sh_model, n_workers=2, lr=1e-3).fit(
        sh_data, epochs=1, batch_size=16, rng=seed)

    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {
        "epoch_losses": (np.asarray([r.loss for r in ref_hist.epochs]),
                         np.asarray([r.loss for r in sh_hist.epochs]))}
    ref_state, sh_state = ref_model.state_dict(), sh_model.state_dict()
    for name in ref_state:
        pairs[f"param.{name}"] = (ref_state[name], sh_state[name])
    return pairs


@register_oracle("lookalike.quant.dequant_bound",
                 description="int8/PQ quantize→dequantize round trips: codes "
                             "and codebooks bit-identical across same-seed "
                             "builds, round-trip error within the advertised "
                             "bound (per-dimension scale for int8, training "
                             "distortion for PQ)")
def _oracle_quant_bound(rng: np.random.Generator) -> Pairs:
    from repro.lookalike import Int8Quantizer, PQQuantizer

    dim = 16
    matrix = rng.normal(size=(120, dim))
    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    first = Int8Quantizer(dim).fit(matrix)
    second = Int8Quantizer(dim).fit(matrix)
    codes = first.quantize(matrix)
    pairs["int8.scale_reproducible"] = (first.scale, second.scale)
    pairs["int8.codes_reproducible"] = (codes, second.quantize(matrix))
    err = np.abs(matrix - first.dequantize(codes))
    pairs["int8.error_within_bound"] = (
        np.ones(err.shape, dtype=bool), err <= first.bound() + 1e-12)

    seed = int(rng.integers(0, 2 ** 31))
    pq_a = PQQuantizer(dim, n_subvectors=4, n_centroids=16, seed=seed).fit(matrix)
    pq_b = PQQuantizer(dim, n_subvectors=4, n_centroids=16, seed=seed).fit(matrix)
    pq_codes = pq_a.quantize(matrix)
    pairs["pq.codebooks_reproducible"] = (pq_a.codebooks, pq_b.codebooks)
    pairs["pq.codes_reproducible"] = (pq_codes, pq_b.quantize(matrix))
    l2 = np.linalg.norm(matrix - pq_a.dequantize(pq_codes), axis=1)
    pairs["pq.error_within_bound"] = (
        np.ones(l2.shape, dtype=bool), l2 <= pq_a.bound() + 1e-12)
    return pairs


@register_oracle("lookalike.ivf.exhaustive_vs_exact",
                 description="IVFIndex with nprobe == n_lists vs exact_top_k "
                             "(the lexicographic reference; identical "
                             "top-k), plus batch vs scalar at full and "
                             "partial probe budgets")
def _oracle_ivf_exhaustive(rng: np.random.Generator) -> Pairs:
    from repro.lookalike import IVFIndex, exact_top_k

    dim, n, k = 12, 250, 9
    vectors = rng.normal(size=(n, dim))
    queries = rng.normal(size=(6, dim))
    seed = int(rng.integers(0, 2 ** 31))

    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    full = IVFIndex(dim, n_lists=10, nprobe=10, seed=seed).fit(vectors)
    batched = full.query_batch(queries, k)
    exact = exact_top_k(vectors, queries, k)
    for i, query in enumerate(queries):
        scalar = full.query(query, k)
        pairs[f"exhaustive.q{i}"] = (exact[i], scalar)
        pairs[f"batch.q{i}"] = (scalar, batched[i])

    partial = IVFIndex(dim, n_lists=10, nprobe=3, seed=seed).fit(vectors)
    results = partial.query_batch(queries, k, fallback_to_exact=False)
    for i, query in enumerate(queries):
        pairs[f"partial.batch.q{i}"] = (
            partial.query(query, k, fallback_to_exact=False), results[i])
    return pairs


@register_oracle("serve.quantized_proxy_vs_exact",
                 description="ServingProxy over a QuantizedEmbeddingStore vs "
                             "the exact-store proxy — identical masks, "
                             "per-source counts and inference counts over "
                             "cold+warm rounds, stored rows within the "
                             "dequantization bound")
def _oracle_quantized_proxy(rng: np.random.Generator) -> Pairs:
    from repro.lookalike import (EmbeddingStore, QuantizedEmbeddingStore,
                                 ServingProxy)
    from repro.lookalike.serving import ServingResilience

    dim, n = 8, 10
    keys = [f"u{i}" for i in range(n)]
    matrix = rng.normal(size=(n, dim))
    fresh_vec = rng.normal(size=dim)

    def build(quantized: bool):
        if quantized:
            store = QuantizedEmbeddingStore(dim, mode="int8")
        else:
            store = EmbeddingStore(dim=dim)
        store.put_many(keys, matrix)

        def infer(uid):
            return fresh_vec.copy() if str(uid).startswith("fresh") else None

        proxy = ServingProxy(store, cache_capacity=2 * n, infer_fn=infer,
                             resilience=ServingResilience())
        return proxy, store

    exact_proxy, __ = build(quantized=False)
    quant_proxy, quant_store = build(quantized=True)
    bound = quant_store.dequant_bound()
    ids = keys + ["fresh1", "ghost"]  # store / inferred / miss
    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for rnd in range(2):  # cold round, then warm (cache) round
        e_rows, e_mask = exact_proxy.get_embeddings_masked_batch(ids)
        q_rows, q_mask = quant_proxy.get_embeddings_masked_batch(ids)
        pairs[f"round{rnd}.mask"] = (e_mask, q_mask)
        # Stored keys (rows drawn from the training matrix) must agree with
        # the exact proxy to within the scalar-quantization bound.
        within = np.abs(e_rows[:n] - q_rows[:n]) <= bound + 1e-12
        pairs[f"round{rnd}.stored_within_bound"] = (
            np.ones(within.shape, dtype=bool), within)
    sources = sorted(set(exact_proxy.source_counts)
                     | set(quant_proxy.source_counts))
    pairs["source_counts"] = (
        np.asarray([exact_proxy.source_counts[s] for s in sources]),
        np.asarray([quant_proxy.source_counts[s] for s in sources]))
    pairs["inferences"] = (np.asarray(exact_proxy.inferences),
                           np.asarray(quant_proxy.inferences))
    return pairs
