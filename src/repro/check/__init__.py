"""``repro.check`` — the correctness-verification layer.

Every optimisation of the hot path claims equality with a slower reference
implementation — bit-exact (coalesced sparse gradients, the field worker vs
inline tasks) or within a dtype-scaled tolerance where it sums in another
order (the CSR batched-softmax kernel vs the dense chain kept in
:mod:`repro.check.reference`).  This package turns those claims (and the
analytical gradients of every differentiable op) into mechanically
checkable artifacts, so future optimisations cannot silently drift:

* :mod:`repro.check.gradcheck` — central-difference numerical gradient checks
  with a *case registry* and an op-coverage sweep that fails when any
  differentiable op in ``repro.nn`` lacks a registered case;
* :mod:`repro.check.oracles` — a differential-oracle registry pairing each
  optimised implementation with its reference over seeded randomized inputs
  (bit-exact or tolerance-bounded);
* :mod:`repro.check.invariants` — cheap runtime assertions (finite params,
  KL ≥ 0, ELBO decomposition, hash-table bijection, optimizer moment shapes)
  run inside ``Trainer.fit`` by a callback; the golden mini-runs train under
  it and fail on any violation;
* :mod:`repro.check.golden` — committed golden-run digests (loss curves,
  param norms, retrieval metrics, dataset statistics) with an explicit
  tolerance policy and a regeneration flow.

``python -m repro check [--quick|--update-golden]`` drives all four pillars;
see ``docs/TESTING.md`` for the taxonomy and the golden-update workflow.
"""

from repro.check.gradcheck import (GradcheckCase, GradcheckFailure,
                                   GradcheckReport, gradcheck, covered_ops,
                                   register_case, required_ops, run_gradchecks,
                                   uncovered_ops)
from repro.check.golden import (DATASET_GOLDEN, RUN_GOLDEN, check_golden,
                                compare_dataset_digests, compare_run_digest,
                                dataset_digests, default_golden_dir,
                                load_golden, run_digest, update_golden)
from repro.check.invariants import (InvariantCallback, InvariantError,
                                    InvariantViolation, elbo_consistent,
                                    finite_grads, finite_params, kl_nonneg,
                                    moment_shapes, table_bijection)
from repro.check.oracles import (OracleReport, oracle_names, register_oracle,
                                 run_oracle, run_oracles)

__all__ = [
    "GradcheckCase", "GradcheckFailure", "GradcheckReport", "gradcheck",
    "register_case", "required_ops", "covered_ops", "uncovered_ops",
    "run_gradchecks",
    "OracleReport", "register_oracle", "oracle_names", "run_oracle",
    "run_oracles",
    "InvariantCallback", "InvariantError", "InvariantViolation",
    "finite_params", "finite_grads", "kl_nonneg", "elbo_consistent",
    "table_bijection", "moment_shapes",
    "RUN_GOLDEN", "DATASET_GOLDEN", "default_golden_dir", "run_digest",
    "dataset_digests", "compare_run_digest", "compare_dataset_digests",
    "load_golden", "update_golden", "check_golden",
]
