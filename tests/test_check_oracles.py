"""repro.check.oracles: differential oracles hold; broken impls are caught."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import oracle_names, run_oracle, run_oracles
from repro.check.oracles import register_oracle, unregister_oracle


class TestBuiltinOracles:
    def test_every_oracle_holds_on_three_seeds(self):
        reports = run_oracles(seeds=(0, 1, 2))
        failed = [r for r in reports if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)
        assert len(reports) == 3 * len(oracle_names())

    def test_fused_unfused_within_dtype_tolerance(self):
        # the CSR kernel sums the chain's terms in another order
        for name in ("nn.sampled_softmax_nll.fused_vs_unfused.dense",
                     "nn.sampled_softmax_nll.fused_vs_unfused.sparse"):
            report = run_oracle(name, seed=3)
            assert report.passed
            assert not report.exact
            assert report.max_abs_diff < 64 * np.finfo(np.float64).eps

    def test_worker_inline_oracle_is_bit_exact(self):
        report = run_oracle("nn.sampled_softmax_nll.worker_vs_inline", seed=3)
        assert report.passed and report.exact
        assert report.max_abs_diff == 0.0

    def test_coalesce_oracle_is_tolerance_bounded(self):
        # sort+reduceat vs add.at differ in float summation order by design
        report = run_oracle("tensor.coalesce_rows", seed=0)
        assert report.passed and not report.exact

    def test_report_rendering(self):
        report = run_oracle("hashing.bulk_lookup", seed=1)
        text = str(report)
        assert "hashing.bulk_lookup" in text and "seed=1" in text and "ok" in text


class TestMutationSmoke:
    """Deliberately break the embedding-bag backward: the oracle goes red."""

    NAME = "nn.embedding_bag.csr_vs_onehot"

    def test_backward_that_forgets_per_index_weights_is_caught(
            self, monkeypatch):
        from repro.nn import functional as F

        assert all(run_oracle(self.NAME, seed=s).passed for s in (0, 1, 2))
        real = F.OpEmbeddingBag.backward

        def forgetful(grad, parents, bags, args):
            unweighted = bags.copy()
            unweighted.data[:] = 1.0
            real(grad, parents, unweighted, args)

        monkeypatch.setattr(F.OpEmbeddingBag, "backward",
                            staticmethod(forgetful))
        for seed in (0, 1, 2):
            report = run_oracle(self.NAME, seed=seed)
            assert not report.passed
            # the forward halves still hold: the break is localised
            assert report.mismatches == ["grad_weight"]


class TestIVFMutationSmoke:
    """Answer in list-order positions instead of row ids: the oracle goes red."""

    NAME = "lookalike.ivf.exhaustive_vs_exact"

    def test_positions_not_mapped_through_order_are_caught(self, monkeypatch):
        from repro.lookalike import IVFIndex

        assert all(run_oracle(self.NAME, seed=s).passed for s in (0, 1, 2))
        real = IVFIndex.fit

        def fit_forgetting_the_permutation(self, vectors):
            real(self, vectors)
            self._order = np.arange(self.size)
            return self

        monkeypatch.setattr(IVFIndex, "fit", fit_forgetting_the_permutation)
        for seed in (0, 1, 2):
            report = run_oracle(self.NAME, seed=seed)
            assert not report.passed
            # scalar and batch share the one (broken) path and still agree:
            # only the comparison against the exact scan fails
            assert report.mismatches
            assert all(name.startswith("exhaustive.q")
                       for name in report.mismatches)
        red = {r.name for r in run_oracles(seeds=(0,)) if not r.passed}
        assert red == {self.NAME}


class TestRegistry:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_oracle("tensor.coalesce_rows")(lambda rng: {})

    def test_broken_optimisation_is_caught(self):
        @register_oracle("test.broken_pair", exact=True)
        def _broken(rng):
            ref = rng.normal(size=5)
            return {"value": (ref, ref + 1e-9)}  # "optimised" impl drifts

        try:
            report = run_oracle("test.broken_pair", seed=0)
            assert not report.passed
            assert report.mismatches == ["value"]
            assert "FAIL" in str(report)
        finally:
            unregister_oracle("test.broken_pair")

    def test_shape_mismatch_is_caught(self):
        @register_oracle("test.shape_pair")
        def _shapes(rng):
            return {"value": (np.zeros(3), np.zeros(4))}

        try:
            report = run_oracle("test.shape_pair", seed=0)
            assert not report.passed
            assert "shape" in report.mismatches[0]
        finally:
            unregister_oracle("test.shape_pair")

    def test_tolerance_oracle_accepts_small_drift(self):
        @register_oracle("test.tol_pair", exact=False, rtol=1e-6, atol=1e-9)
        def _tol(rng):
            ref = rng.normal(size=5)
            return {"value": (ref, ref * (1.0 + 1e-8))}

        try:
            assert run_oracle("test.tol_pair", seed=0).passed
        finally:
            unregister_oracle("test.tol_pair")
