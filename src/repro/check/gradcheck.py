"""Numerical gradient checking with a registry and an op-coverage sweep.

:func:`gradcheck` compares the autograd engine's analytical gradients against
central-difference numerical gradients, for dense tensors *and* row-sparse
parameters (whose scattered ``(rows, grad_rows)`` parts are densified first).

Every differentiable op exported by :mod:`repro.nn.functional`,
:mod:`repro.nn.layers`, and :mod:`repro.nn.losses` must have at least one
:class:`GradcheckCase` registered here — :func:`uncovered_ops` returns the
ops that do not, and the test suite / ``python -m repro check`` fail when the
set is non-empty.  Adding a new op therefore *forces* adding a gradient
check; see ``docs/TESTING.md``.

Case builders late-bind the op (they import the module and resolve the
attribute inside the closure), so a monkeypatched — deliberately broken —
implementation is picked up by the very same cases: the mutation smoke test
in ``tests/test_check_gradcheck.py`` relies on this to prove the harness
detects real regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Parameter, Tensor, no_grad
from repro.utils.rng import new_rng

__all__ = ["GradcheckCase", "GradcheckFailure", "GradcheckReport", "gradcheck",
           "register_case", "required_ops", "covered_ops", "uncovered_ops",
           "run_gradchecks", "case_names"]


# -- core numerical check ------------------------------------------------------

@dataclass
class GradcheckFailure:
    """One tensor whose analytical gradient disagreed with finite differences."""

    tensor: str
    max_abs_error: float
    max_rel_error: float
    worst_index: tuple[int, ...]
    analytic: float
    numerical: float

    def __str__(self) -> str:
        return (f"{self.tensor}: |analytic-numerical|={self.max_abs_error:.3e} "
                f"(rel {self.max_rel_error:.3e}) at index {self.worst_index} "
                f"[analytic={self.analytic:.6e} numerical={self.numerical:.6e}]")


@dataclass
class GradcheckReport:
    """Outcome of one gradcheck case."""

    case: str
    op: str
    passed: bool
    failures: list[GradcheckFailure] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        detail = "" if self.passed else "; " + "; ".join(map(str, self.failures))
        return f"[{status}] {self.case} ({self.op}){detail}"


def _analytic_grads(fn: Callable[[], Tensor],
                    wrt: Sequence[Tensor]) -> list[np.ndarray]:
    for t in wrt:
        t.zero_grad()
    out = fn()
    if out.size != 1:
        raise ValueError("gradcheck requires a scalar-valued fn")
    out.backward()
    grads = []
    for t in wrt:
        if isinstance(t, Parameter):
            grads.append(t.densify_grad())
        elif t.grad is not None:
            grads.append(np.asarray(t.grad, dtype=np.float64))
        else:
            grads.append(np.zeros_like(t.data))
        t.zero_grad()
    return grads


def _numerical_grad(fn: Callable[[], Tensor], t: Tensor, eps: float) -> np.ndarray:
    grad = np.empty_like(t.data)
    flat_data = t.data.ravel()
    flat_grad = grad.ravel()
    with no_grad():
        for i in range(flat_data.size):
            orig = flat_data[i]
            flat_data[i] = orig + eps
            f_plus = float(fn().data)
            flat_data[i] = orig - eps
            f_minus = float(fn().data)
            flat_data[i] = orig
            flat_grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def gradcheck(fn: Callable[[], Tensor], wrt: Sequence[Tensor], *,
              eps: float = 1e-6, rtol: float = 1e-5, atol: float = 1e-7,
              names: Sequence[str] | None = None) -> list[GradcheckFailure]:
    """Compare analytical and central-difference gradients of ``fn``.

    Parameters
    ----------
    fn:
        Zero-argument closure returning a scalar :class:`Tensor`.  It must
        read the *current* ``.data`` of every tensor in ``wrt`` on each call
        (the checker perturbs them in place) and be deterministic across
        calls — stochastic ops must re-seed their RNG inside the closure.
    wrt:
        Leaf tensors to differentiate with respect to.  Row-sparse
        :class:`Parameter` gradients are densified via ``densify_grad``.
    eps, rtol, atol:
        Central-difference step and the tolerance of the comparison
        ``|a - n| <= atol + rtol * |n|`` (checked at the worst element).

    Returns the (possibly empty) list of failures; empty means pass.
    """
    analytic = _analytic_grads(fn, wrt)
    names = list(names) if names is not None \
        else [t.name or f"wrt[{i}]" for i, t in enumerate(wrt)]
    failures: list[GradcheckFailure] = []
    for name, t, ana in zip(names, wrt, analytic):
        num = _numerical_grad(fn, t, eps)
        err = np.abs(ana - num)
        bound = atol + rtol * np.abs(num)
        if np.all(err <= bound):
            continue
        worst = np.unravel_index(int(np.argmax(err - bound)), err.shape)
        denom = max(abs(float(num[worst])), 1e-12)
        failures.append(GradcheckFailure(
            tensor=name,
            max_abs_error=float(err[worst]),
            max_rel_error=float(err[worst]) / denom,
            worst_index=tuple(int(i) for i in worst),
            analytic=float(ana[worst]),
            numerical=float(num[worst])))
    return failures


# -- case registry -------------------------------------------------------------

@dataclass(frozen=True)
class GradcheckCase:
    """A registered gradient-check case for one op.

    ``build(seed)`` returns ``(fn, wrt)`` where ``fn`` is the deterministic
    scalar closure and ``wrt`` the leaf tensors to check.
    """

    op: str
    name: str
    build: Callable[[int], tuple[Callable[[], Tensor], list[Tensor]]]
    rtol: float = 1e-5
    atol: float = 1e-7


_CASES: dict[str, GradcheckCase] = {}


def register_case(op: str, name: str | None = None, *, rtol: float = 1e-5,
                  atol: float = 1e-7):
    """Decorator registering ``build(seed) -> (fn, wrt)`` for op ``op``."""

    def decorate(build):
        case_name = name or op
        if case_name in _CASES:
            raise ValueError(f"duplicate gradcheck case '{case_name}'")
        _CASES[case_name] = GradcheckCase(op=op, name=case_name, build=build,
                                          rtol=rtol, atol=atol)
        return build

    return decorate


def case_names() -> list[str]:
    return sorted(_CASES)


def covered_ops() -> set[str]:
    return {case.op for case in _CASES.values()}


# Differentiable-op paths that do not appear in any ``__all__`` but are
# load-bearing contracts: the dense sampled-softmax reference chain must
# stay checked as long as the kernel is held to it.
_EXTRA_REQUIRED = {"functional.sampled_softmax_nll.unfused"}

# Exported names that are not differentiable ops.
_NON_DIFFERENTIABLE = {"layers.Module"}


def required_ops() -> set[str]:
    """Every differentiable op the sweep demands a case for.

    The set is *computed from the live modules* (``__all__`` of
    ``repro.nn.functional`` / ``layers`` / ``losses``), so adding an op to
    any of them immediately adds a coverage obligation.
    """
    from repro.nn import functional, layers, losses

    ops = {f"functional.{name}" for name in functional.__all__}
    ops |= {f"layers.{name}" for name in layers.__all__}
    ops |= {f"losses.{name}" for name in losses.__all__}
    ops |= _EXTRA_REQUIRED
    return ops - _NON_DIFFERENTIABLE


def uncovered_ops() -> set[str]:
    """Required ops with no registered gradcheck case (must be empty)."""
    return required_ops() - covered_ops()


def run_gradchecks(seed: int = 0, cases: Sequence[str] | None = None,
                   ) -> list[GradcheckReport]:
    """Run all (or the named) registered cases; returns one report per case."""
    selected = case_names() if cases is None else list(cases)
    reports = []
    for name in selected:
        case = _CASES[name]
        fn, wrt = case.build(seed)
        failures = gradcheck(fn, wrt, rtol=case.rtol, atol=case.atol)
        reports.append(GradcheckReport(case=name, op=case.op,
                                       passed=not failures, failures=failures))
    return reports


# -- registered cases ----------------------------------------------------------
#
# Builders keep inputs tiny (numerical checking is O(2·numel) forwards) and
# away from non-differentiable kinks (|x| >= 0.05 for relu).  Ops are
# resolved late — `F.<op>` inside the closure — so monkeypatched
# implementations are exercised by the same cases.

def _tensor(rng: np.random.Generator, shape, lo=-1.5, hi=1.5,
            avoid_zero: float = 0.0, name: str | None = None) -> Tensor:
    data = rng.uniform(lo, hi, size=shape)
    if avoid_zero:
        data = np.where(np.abs(data) < avoid_zero,
                        np.sign(data) * avoid_zero + (data == 0) * avoid_zero,
                        data)
    return Tensor(data, requires_grad=True, name=name)


def _weighted_sum(out: Tensor, w: np.ndarray) -> Tensor:
    """Reduce an op output to a scalar with fixed non-uniform weights."""
    return (out * Tensor(w)).sum()


def _register_elementwise(op_name: str, lo=-1.5, hi=1.5, avoid_zero=0.0):
    @register_case(f"functional.{op_name}", name=f"functional.{op_name}")
    def _case(seed: int, _op=op_name, _lo=lo, _hi=hi, _az=avoid_zero):
        from repro.nn import functional as F

        rng = new_rng(seed)
        x = _tensor(rng, (3, 4), _lo, _hi, avoid_zero=_az, name="x")
        w = rng.uniform(0.5, 1.5, size=(3, 4))
        return (lambda: _weighted_sum(getattr(F, _op)(x), w)), [x]


_register_elementwise("relu", avoid_zero=0.05)
_register_elementwise("tanh")
_register_elementwise("sigmoid")
_register_elementwise("exp")
_register_elementwise("log", lo=0.2, hi=2.0)
_register_elementwise("softplus")
_register_elementwise("softmax")
_register_elementwise("log_softmax")


@register_case("functional.dropout")
def _case_dropout(seed: int):
    from repro.nn import functional as F

    rng = new_rng(seed)
    x = _tensor(rng, (4, 3), name="x")
    w = rng.uniform(0.5, 1.5, size=(4, 3))

    def fn():
        # Fresh generator per call: the mask must be identical across the
        # checker's perturbed evaluations.
        return _weighted_sum(F.dropout(x, 0.3, new_rng(seed + 1)), w)

    return fn, [x]


@register_case("functional.rows", name="functional.rows.dense")
def _case_rows_dense(seed: int):
    from repro.nn import functional as F

    rng = new_rng(seed)
    weight = Parameter(rng.normal(size=(6, 3)), name="weight")
    index = np.array([0, 2, 2, 5, 1, 2])  # duplicates exercise the coalesce
    w = rng.uniform(0.5, 1.5, size=(6, 3))
    return (lambda: _weighted_sum(F.rows(weight, index), w)), [weight]


@register_case("functional.rows", name="functional.rows.sparse")
def _case_rows_sparse(seed: int):
    from repro.nn import functional as F

    rng = new_rng(seed)
    weight = Parameter(rng.normal(size=(6, 3)), name="weight", sparse=True)
    index = np.array([4, 4, 0, 3])
    w = rng.uniform(0.5, 1.5, size=(4, 3))
    return (lambda: _weighted_sum(F.rows(weight, index), w)), [weight]


@register_case("functional.take")
def _case_take(seed: int):
    from repro.nn import functional as F

    rng = new_rng(seed)
    bias = Parameter(rng.normal(size=7), name="bias")
    index = np.array([1, 1, 6, 0, 3])
    w = rng.uniform(0.5, 1.5, size=5)
    return (lambda: _weighted_sum(F.take(bias, index), w)), [bias]


def _embedding_bag_case(seed: int, sparse: bool, capacity: int,
                        indices: list[int], offsets: list[int]):
    from repro.nn import functional as F

    rng = new_rng(seed)
    weight = Parameter(rng.normal(size=(capacity, 3)), name="weight",
                       sparse=sparse)
    piw = rng.uniform(0.5, 2.0, size=len(indices))
    w = rng.uniform(0.5, 1.5, size=(len(offsets) - 1, 3))
    return (lambda: _weighted_sum(F.embedding_bag(
        weight, np.array(indices), np.array(offsets), per_index_weights=piw),
        w)), [weight]


@register_case("functional.embedding_bag")
def _case_embedding_bag(seed: int):
    return _embedding_bag_case(seed, sparse=True, capacity=8,
                               indices=[0, 3, 3, 7, 2, 5],
                               offsets=[0, 2, 2, 4, 6])  # an empty bag


@register_case("functional.embedding_bag",
               name="functional.embedding_bag.duplicates")
def _case_embedding_bag_duplicates(seed: int):
    # Two rows shared by every bag and repeated inside them, on a dense
    # parameter: each weight entry's gradient is a sum over many bags.
    return _embedding_bag_case(seed, sparse=False, capacity=5,
                               indices=[1, 1, 4, 4, 1, 4, 1, 1, 1, 4, 4],
                               offsets=[0, 3, 6, 6, 11])


def _softmax_nll_inputs(seed: int, sparse: bool):
    """Two fields over one trunk ``h``: dense count targets (an empty row in
    the second field) with their candidate rows and output heads."""
    rng = new_rng(seed)
    h = _tensor(rng, (3, 4), name="h")
    fields = []
    for k, cand in enumerate((np.array([0, 2, 3, 6, 1]), np.array([4, 5]))):
        weight = Parameter(rng.normal(scale=0.5, size=(7, 4)),
                           name=f"weight{k}", sparse=sparse)
        bias = Parameter(rng.normal(scale=0.1, size=7), name=f"bias{k}",
                         sparse=sparse)
        targets = rng.integers(0, 3, size=(3, cand.size)).astype(np.float64)
        targets[0, 0] = 1.0  # at least one positive
        fields.append((weight, bias, cand, targets))
    fields[1][3][2] = 0.0
    return h, fields


def _kernel_case(seed: int, sparse: bool):
    from repro.check.reference import csr_from_dense

    h, fields = _softmax_nll_inputs(seed, sparse)
    blocks = [csr_from_dense(targets) for *__, targets in fields]
    w = new_rng(seed + 5).uniform(0.5, 1.5, size=len(fields))

    def fn():
        from repro.nn import functional as F

        return _weighted_sum(F.sampled_softmax_nll(
            h, [f[0] for f in fields], [f[1] for f in fields],
            [f[2] for f in fields], blocks, scale=0.5), w)

    return fn, [h] + [p for f in fields for p in f[:2]]


@register_case("functional.sampled_softmax_nll",
               name="functional.sampled_softmax_nll.dense")
def _case_fused_dense(seed: int):
    return _kernel_case(seed, sparse=False)


@register_case("functional.sampled_softmax_nll",
               name="functional.sampled_softmax_nll.sparse")
def _case_fused_sparse(seed: int):
    return _kernel_case(seed + 1, sparse=True)


@register_case("functional.sampled_softmax_nll.unfused")
def _case_unfused(seed: int):
    def fn():
        from repro.check.reference import softmax_nll_chain

        return softmax_nll_chain(h, weight, bias, cand, targets, 0.5)

    h, fields = _softmax_nll_inputs(seed + 2, sparse=True)
    weight, bias, cand, targets = fields[0]
    return fn, [h, weight, bias]


@register_case("functional.concat")
def _case_concat(seed: int):
    from repro.nn import functional as F

    rng = new_rng(seed)
    a = _tensor(rng, (3, 2), name="a")
    b = _tensor(rng, (3, 4), name="b")
    w = rng.uniform(0.5, 1.5, size=(3, 6))
    return (lambda: _weighted_sum(F.concat([a, b], axis=-1), w)), [a, b]


@register_case("functional.stack_rows")
def _case_stack_rows(seed: int):
    from repro.nn import functional as F

    rng = new_rng(seed)
    a = _tensor(rng, (4,), name="a")
    b = _tensor(rng, (4,), name="b")
    w = rng.uniform(0.5, 1.5, size=(2, 4))
    return (lambda: _weighted_sum(F.stack_rows([a, b]), w)), [a, b]


# -- losses --------------------------------------------------------------------

@register_case("losses.multinomial_nll")
def _case_multinomial_nll(seed: int):
    def fn():
        from repro.nn import losses

        return losses.multinomial_nll(log_probs, targets)

    rng = new_rng(seed)
    log_probs = _tensor(rng, (3, 5), lo=-3.0, hi=-0.1, name="log_probs")
    targets = rng.integers(0, 3, size=(3, 5)).astype(np.float64)
    return fn, [log_probs]


@register_case("losses.gaussian_kl")
def _case_gaussian_kl(seed: int):
    def fn():
        from repro.nn import losses

        return losses.gaussian_kl(mu, logvar)

    rng = new_rng(seed)
    mu = _tensor(rng, (3, 4), name="mu")
    logvar = _tensor(rng, (3, 4), lo=-1.0, hi=0.5, name="logvar")
    return fn, [mu, logvar]


@register_case("losses.gaussian_kl_to")
def _case_gaussian_kl_to(seed: int):
    def fn():
        from repro.nn import losses

        return losses.gaussian_kl_to(mu_q, logvar_q, mu_p, logvar_p)

    rng = new_rng(seed)
    mu_q = _tensor(rng, (3, 4), name="mu_q")
    logvar_q = _tensor(rng, (3, 4), lo=-1.0, hi=0.5, name="logvar_q")
    mu_p = rng.normal(size=(3, 4))
    logvar_p = rng.uniform(-0.5, 0.5, size=(3, 4))
    return fn, [mu_q, logvar_q]


@register_case("losses.mse")
def _case_mse(seed: int):
    def fn():
        from repro.nn import losses

        return losses.mse(pred, target)

    rng = new_rng(seed)
    pred = _tensor(rng, (4, 3), name="pred")
    target = rng.normal(size=(4, 3))
    return fn, [pred]


# -- layers --------------------------------------------------------------------

@register_case("layers.Linear")
def _case_linear(seed: int):
    from repro.nn.layers import Linear

    rng = new_rng(seed)
    layer = Linear(3, 2, rng=rng)
    x = _tensor(rng, (4, 3), name="x")
    w = rng.uniform(0.5, 1.5, size=(4, 2))
    wrt = [x, layer.weight, layer.bias]
    return (lambda: _weighted_sum(layer(x), w)), wrt


@register_case("layers.MLP")
def _case_mlp(seed: int):
    from repro.nn.layers import MLP

    rng = new_rng(seed)
    mlp = MLP([3, 5, 2], activation="tanh", rng=rng)
    x = _tensor(rng, (3, 3), name="x")
    w = rng.uniform(0.5, 1.5, size=(3, 2))
    return (lambda: _weighted_sum(mlp(x), w)), [x] + list(mlp.parameters())


@register_case("layers.Dropout")
def _case_dropout_layer(seed: int):
    from repro.nn.layers import Dropout

    rng = new_rng(seed)
    layer = Dropout(0.25, rng=rng)
    x = _tensor(rng, (4, 3), name="x")
    w = rng.uniform(0.5, 1.5, size=(4, 3))

    def fn():
        layer._rng = new_rng(seed + 9)  # deterministic mask across evals
        return _weighted_sum(layer(x), w)

    return fn, [x]
