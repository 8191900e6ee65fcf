"""Cheap runtime invariant checks for training loops.

The verifiers (:func:`finite_params`, :func:`finite_grads`,
:func:`kl_nonneg`, :func:`elbo_consistent`, :func:`table_bijection`,
:func:`moment_shapes`) are pure functions returning a list of
:class:`InvariantViolation`.  :class:`InvariantCallback` packages them as a
:class:`~repro.obs.callbacks.TrainerCallback` for ``Trainer.fit``: per-batch
checks after every step, structural checks at epoch boundaries.  Every
violation increments the ``invariant.violations`` obs counter (labelled by
check name).

``python -m repro check`` runs them as a gate: the golden mini-runs
(:func:`repro.check.golden.run_digest`) train under the callback and raise
:class:`InvariantError` on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import runtime as obs
from repro.obs.callbacks import TrainerCallback

__all__ = ["InvariantViolation", "InvariantError", "finite_params",
           "finite_grads", "kl_nonneg", "elbo_consistent", "table_bijection",
           "moment_shapes", "InvariantCallback"]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which check, where, and what went wrong."""

    check: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.check}[{self.subject}]: {self.message}"


class InvariantError(AssertionError):
    """A run broke its invariants; carries the violations."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in violations))


# -- standalone verifiers ------------------------------------------------------

def _finite_violations(check: str, subject: str, array: np.ndarray,
                       ) -> list[InvariantViolation]:
    if np.isfinite(array).all():
        return []
    bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
    return [InvariantViolation(check, subject,
                               f"{bad} non-finite value(s) of {np.size(array)}")]


def finite_params(model) -> list[InvariantViolation]:
    """Every parameter value is finite."""
    out: list[InvariantViolation] = []
    for name, p in model.named_parameters():
        out.extend(_finite_violations("finite_params", name, p.data))
    return out


def finite_grads(model) -> list[InvariantViolation]:
    """Every recorded gradient (dense and sparse parts) is finite."""
    out: list[InvariantViolation] = []
    for name, p in model.named_parameters():
        if p.grad is not None:
            out.extend(_finite_violations("finite_grads", name, p.grad))
        for i, (rows, grads) in enumerate(getattr(p, "sparse_grad_parts", ())):
            out.extend(_finite_violations("finite_grads",
                                          f"{name}.sparse[{i}]", grads))
            n_rows = p.data.shape[0]
            if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
                out.append(InvariantViolation(
                    "finite_grads", f"{name}.sparse[{i}]",
                    f"row indices outside [0, {n_rows})"))
    return out


def kl_nonneg(diagnostics: dict, atol: float = 1e-9) -> list[InvariantViolation]:
    """KL(q‖p) between Gaussians is non-negative (up to roundoff)."""
    kl = diagnostics.get("kl")
    if kl is None or not np.isfinite(kl) or kl >= -atol:
        return []
    return [InvariantViolation("kl_nonneg", "kl", f"kl={kl!r} < 0")]


def elbo_consistent(diagnostics: dict, dtype=np.float64,
                    ) -> list[InvariantViolation]:
    """The reported loss decomposes as ``recon + beta * kl``, to a few
    roundings of ``dtype`` — the precision the loss was computed in."""
    try:
        loss = float(diagnostics["loss"])
        recon = float(diagnostics["recon"])
        kl = float(diagnostics["kl"])
        beta = float(diagnostics["beta"])
    except (KeyError, TypeError, ValueError):
        return []  # model doesn't report an ELBO decomposition
    if not all(np.isfinite(v) for v in (loss, recon, kl, beta)):
        return [InvariantViolation("elbo_consistent", "loss",
                                   f"non-finite components: loss={loss} "
                                   f"recon={recon} kl={kl} beta={beta}")]
    expected = recon + beta * kl
    tol = 16 * np.finfo(dtype).eps * max(1.0, abs(recon) + abs(beta * kl))
    if abs(loss - expected) <= tol:
        return []
    return [InvariantViolation(
        "elbo_consistent", "loss",
        f"loss={loss!r} but recon + beta*kl = {expected!r} "
        f"(diff {abs(loss - expected):.3e})")]


def _iter_tables(model):
    """Yield ``(label, table)`` for every distinct DynamicHashTable reachable
    through the model's module tree (encoder/decoder share tables; dedupe)."""
    from repro.hashing import DynamicHashTable

    seen: set[int] = set()
    modules = model.modules() if hasattr(model, "modules") else [model]
    for module in modules:
        for attr, value in vars(module).items():
            if isinstance(value, DynamicHashTable) and id(value) not in seen:
                seen.add(id(value))
                yield (value.name or attr), value


def table_bijection(model) -> list[InvariantViolation]:
    """Every dynamic hash table is a dense id↔row bijection."""
    out: list[InvariantViolation] = []
    for label, table in _iter_tables(model):
        for problem in table.verify_bijection():
            out.append(InvariantViolation("table_bijection", label, problem))
    return out


def moment_shapes(optimizer) -> list[InvariantViolation]:
    """Adam's moment buffers match their parameters' shapes and stay finite.

    A shape mismatch is legal *transiently* (a dynamic table grew the
    parameter since the last step — Adam re-grows lazily) only while the
    buffer is a prefix of the parameter; anything else is state corruption.
    """
    out: list[InvariantViolation] = []
    buffer_sets = [("m", optimizer._m), ("v", optimizer._v)]
    for i, p in enumerate(optimizer.params):
        for kind, buffers in buffer_sets:
            buf = buffers.get(id(p))
            if buf is None:
                continue
            subject = f"params[{i}].{kind}"
            if buf.ndim != p.data.ndim or any(
                    b > s for b, s in zip(buf.shape, p.data.shape)):
                out.append(InvariantViolation(
                    "moment_shapes", subject,
                    f"buffer shape {buf.shape} incompatible with parameter "
                    f"shape {p.data.shape}"))
            out.extend(_finite_violations("moment_shapes", subject, buf))
    return out


# -- trainer integration -------------------------------------------------------

class InvariantCallback(TrainerCallback):
    """Run invariant checks inside ``Trainer.fit``.

    Per-batch checks (finite grads, KL ≥ 0, ELBO decomposition) run after
    every optimizer step; structural checks (finite params, table
    bijection, optimizer moment shapes) run at epoch boundaries, where a
    full parameter sweep is amortised over the whole epoch.

    Violations accumulate on ``self.violations`` and increment the
    ``invariant.violations`` obs counter per occurrence.
    """

    def __init__(self) -> None:
        self.violations: list[InvariantViolation] = []

    def _record(self, violations: list[InvariantViolation]) -> None:
        self.violations.extend(violations)
        for v in violations:
            obs.count("invariant.violations", check=v.check)

    def on_batch_end(self, trainer, epoch: int, step: int, loss: float,
                     diagnostics: dict) -> None:
        found = finite_grads(trainer.model)
        found += kl_nonneg(diagnostics)
        found += elbo_consistent(diagnostics, trainer.model.dtype)
        self._record(found)

    def on_epoch_end(self, trainer, record) -> None:
        found = finite_params(trainer.model)
        found += table_bijection(trainer.model)
        found += moment_shapes(trainer.optimizer)
        self._record(found)
