"""The field worker: bit-exact vs inline, scoped to ``fit``, visible in obs.

``Trainer.fit`` owns one worker thread (when the process may use two CPUs)
that runs part of the decoder's per-field softmax tasks.  These tests pin:

* worker ≡ inline, bit for bit — losses, parameters and Adam moments after
  several steps in float32 and float64, over 1–5 fields whose candidate sets
  are empty, a single feature, or large;
* no thread exists after ``import repro``, and none outlives ``fit`` after
  a normal return, an exception inside a task, or a callback raise;
* a task's exception surfaces on the caller with its own traceback, after
  both task groups finished;
* the decoder heads' gradients are pending parts between ``backward`` and
  ``step`` on the worker (none inline); reading them joins, ``zero_grad``
  drops them, and a deferred task's exception surfaces from ``Adam.step``;
* two training runs on two threads each own their worker;
* the wait/busy telemetry exists only while a session is installed, and
  counts the deferred tasks and their joins.

CI runs this module a second time under ``OPENBLAS_NUM_THREADS=1 python -X
dev`` (the benchmark's BLAS setting, with thread and resource warnings on).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import FVAE, FVAEConfig
from repro.core.trainer import Trainer
from repro.data import FieldSchema, FieldSpec, MultiFieldDataset
from repro.nn import functional as F
from repro.nn import parallel
from repro.check.invariants import finite_grads
from repro.nn.parallel import FieldWorker, run_tasks
from repro.obs.callbacks import TrainerCallback
from repro.obs.report import render_report


def _cpus(n: int):
    """Pretend ``n`` CPUs beside single-threaded BLAS: ``fit`` owns a worker
    at 2 and runs inline at 1."""
    return mock.patch.object(parallel, "_worker_has_a_core", lambda: n >= 2)


def _dataset(kinds: list[str], n_users: int = 40, seed: int = 0):
    """One field per kind: ``empty`` (no features), ``single`` (feature 0
    or nothing) or ``large`` (up to 8 of 300 features, weighted)."""
    rng = np.random.default_rng(seed)
    specs, rows, weights = [], {}, {}
    for k, kind in enumerate(kinds):
        name = f"f{k}"
        vocab = 300 if kind == "large" else 5
        specs.append(FieldSpec(name, vocab))
        if kind == "empty":
            field_rows = [[] for __ in range(n_users)]
        elif kind == "single":
            field_rows = [[0] if rng.random() < 0.7 else []
                          for __ in range(n_users)]
        else:
            field_rows = [rng.integers(0, vocab, rng.integers(0, 9)).tolist()
                          for __ in range(n_users)]
        rows[name] = field_rows
        weights[name] = [rng.uniform(0.5, 2.0, len(r)).tolist()
                         for r in field_rows]
    return MultiFieldDataset.from_user_lists(FieldSchema(specs), rows, weights)


class _Losses(TrainerCallback):
    def __init__(self):
        self.losses = []
        self.threads = []

    def on_batch_end(self, trainer, epoch, step, loss, diagnostics):
        self.losses.append(loss)
        self.threads.append(threading.active_count())


def _train(dataset, precision: str, cpus: int | None, epochs: int = 2):
    config = FVAEConfig(latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                        sampling_rate=0.5, seed=3)
    model = FVAE(dataset.schema, config)
    model.initialize_from_dataset(dataset)
    trainer = Trainer(model, lr=1e-2, precision=precision)
    steps = _Losses()
    with _cpus(cpus) if cpus else nullcontext():
        trainer.fit(dataset, epochs=epochs, batch_size=16, rng=1,
                    callbacks=[steps])
    state = {name: p.data for name, p in model.named_parameters()}
    state.update(trainer.optimizer.state_arrays())
    return steps, state


class TestWorkerInlineTraining:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kinds=st.lists(st.sampled_from(["empty", "single", "large"]),
                          min_size=1, max_size=5),
           precision=st.sampled_from(["float32", "float64"]))
    @example(kinds=["large"] * 4, precision="float32")
    @example(kinds=["large"] * 4, precision="float64")
    def test_bit_identical_after_steps(self, kinds, precision):
        data = _dataset(kinds)
        inline, inline_state = _train(data, precision, cpus=1)
        split, split_state = _train(data, precision, cpus=2)
        assert [repr(x) for x in inline.losses] == \
            [repr(x) for x in split.losses]
        assert inline_state.keys() == split_state.keys()
        for name, value in inline_state.items():
            assert value.dtype == split_state[name].dtype
            assert value.tobytes() == split_state[name].tobytes(), name

    def test_two_cpus_mean_exactly_one_worker_thread(self):
        before = threading.active_count()
        data = _dataset(["large", "large", "single"])
        with_worker, __ = _train(data, "float32", cpus=2, epochs=1)
        inline, __ = _train(data, "float32", cpus=1, epochs=1)
        assert set(with_worker.threads) == {before + 1}
        assert set(inline.threads) == {before}
        assert threading.active_count() == before


class TestThreadLifetime:
    def test_import_starts_no_thread(self):
        import repro

        code = ("import threading, repro, repro.core.trainer, "
                "repro.nn.parallel; print(threading.active_count())")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "1"

    def _fit_raising(self, callbacks=(), cpus: int = 2):
        data = _dataset(["large", "large"])
        model = FVAE(data.schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                             decoder_hidden=[8], seed=0))
        with _cpus(cpus):
            Trainer(model).fit(data, epochs=2, batch_size=16,
                               callbacks=list(callbacks))

    def test_no_thread_after_a_callback_raises(self):
        class Stop(Exception):
            pass

        class Raiser(TrainerCallback):
            def on_batch_end(self, *args):
                raise Stop

        before = threading.active_count()
        with pytest.raises(Stop):
            self._fit_raising([Raiser()])
        assert threading.active_count() == before

    def test_no_thread_after_a_task_raises(self):
        real = F._field_grads
        calls = []

        def fails_on_third(*args):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise FloatingPointError("task three")
            return real(*args)

        before = threading.active_count()
        with mock.patch.object(F, "_field_grads", fails_on_third):
            with pytest.raises(FloatingPointError, match="task three"):
                self._fit_raising()
        assert threading.active_count() == before
        assert len(set(calls)) == 2   # both threads ran backward tasks


class TestRunTasks:
    def test_inline_without_a_worker(self):
        ran = []
        out = run_tasks([lambda i=i: ran.append(i) or i * i
                         for i in range(4)], [1, 1, 1, 1])
        assert out == [0, 1, 4, 9] and ran == [0, 1, 2, 3]

    def test_groups_balance_costs_and_keep_task_order(self):
        caller = threading.get_ident()
        with FieldWorker():
            out = run_tasks([lambda i=i: (i, threading.get_ident())
                             for i in range(4)], [5.0, 1.0, 1.0, 3.0])
        assert [i for i, __ in out] == [0, 1, 2, 3]
        # largest first, each to the lighter group: {0} vs {3, 1, 2}
        on_caller = [i for i, ident in out if ident == caller]
        assert on_caller == [0]

    def test_task_exception_keeps_its_traceback_after_both_groups(self):
        finished = threading.Event()

        def slow_ok():
            threading.Event().wait(0.05)   # the worker raises meanwhile
            finished.set()
            return "ok"

        def broken_task():
            raise KeyError("from the worker")

        with FieldWorker():
            with pytest.raises(KeyError, match="from the worker") as info:
                # costs put slow_ok on the caller, broken_task on the worker
                run_tasks([slow_ok, broken_task], [2.0, 1.0])
        assert finished.is_set()
        frames = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
        assert "broken_task" in frames

    def test_worker_waits_out_a_caller_exception(self):
        done = threading.Event()

        def worker_task():
            threading.Event().wait(0.05)
            done.set()

        def caller_task():
            raise RuntimeError("caller side")

        with FieldWorker():
            with pytest.raises(RuntimeError, match="caller side"):
                run_tasks([caller_task, worker_task], [2.0, 1.0])
            assert done.is_set()

    @pytest.mark.parametrize("cpus,env,owns", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {}, False),                      # BLAS spreads over both CPUs
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    ])
    def test_worker_only_with_a_core_beside_blas(self, monkeypatch, cpus,
                                                 env, owns):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        with parallel.field_worker() as worker:
            assert (worker is not None) == owns

    def test_nested_install_refused_and_scopes_share(self):
        with FieldWorker() as outer:
            with pytest.raises(RuntimeError, match="already installed"):
                FieldWorker().__enter__()
            with _cpus(2), parallel.field_worker() as inner:
                assert inner is outer
        with _cpus(1), parallel.field_worker() as none:
            assert none is None


def _model(data, precision: str = "float64"):
    config = FVAEConfig(latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                        sampling_rate=0.5, seed=3)
    model = FVAE(data.schema, config)
    model.initialize_from_dataset(data)
    return model.astype(precision)


def _heads(model):
    return {name: p for name, p in model.named_parameters()
            if name.startswith("decoder.head")}


def _pending(model):
    return sorted(name for name, p in model.named_parameters()
                  if any(callable(part) for part in p._parts))


def _backward(model, data):
    loss, __ = model.loss_on_batch(data.batch(np.arange(16)), 0)
    loss.backward()


class TestDeferredHeadGradients:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pending_between_backward_and_step_only_on_the_worker(self, cpus):
        data = _dataset(["large", "large", "single"])
        model = _model(data)
        trainer = Trainer(model, precision=None)
        seen = []
        real_step = trainer.optimizer.step

        def step():
            seen.append(_pending(model))
            real_step()
            seen.append(_pending(model))

        trainer.optimizer.step = step
        with _cpus(cpus):
            trainer.fit(data, epochs=1, batch_size=16)
        heads = sorted(_heads(model))
        assert len(heads) == 6 and len(seen) == 2 * 3
        expected = heads if cpus == 2 else []
        assert seen == [expected, []] * 3

    def test_task_exception_surfaces_from_adam_step(self):
        real = F._head_grads
        calls = []

        def broken_head_task(*args):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise FloatingPointError("head task three")
            return real(*args)

        data = _dataset(["large", "large"])
        before = threading.active_count()
        with _cpus(2), mock.patch.object(F, "_head_grads", broken_head_task):
            with pytest.raises(FloatingPointError,
                               match="head task three") as info:
                Trainer(_model(data)).fit(data, epochs=2, batch_size=16)
        assert threading.active_count() == before
        assert calls and threading.get_ident() not in calls
        frames = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
        assert "broken_head_task" in frames and "step" in frames
        assert "backward" not in frames

    def test_zero_grad_drops_pending_parts(self):
        data = _dataset(["large", "large"])
        model = _model(data)
        with FieldWorker():
            _backward(model, data)
            assert _pending(model) == sorted(_heads(model))
            for p in _heads(model).values():
                p.zero_grad()
                assert p._parts == [] and p.sparse_grad_parts == []

    def test_densify_grad_sees_the_joined_part(self):
        data = _dataset(["large", "large"])
        inline = _model(data)
        _backward(inline, data)
        split = _model(data)
        with FieldWorker():
            _backward(split, data)
            assert _pending(split) == sorted(_heads(split))
            for name, head in _heads(split).items():
                assert head.densify_grad().tobytes() == \
                    _heads(inline)[name].densify_grad().tobytes()
            assert _pending(split) == []

    def test_invariant_check_sees_the_joined_part(self):
        real = F._head_grads

        def nan_weight_grad(*args):
            dw, db = real(*args)
            dw[0, 0] = np.nan
            return dw, db

        data = _dataset(["large", "large"])
        model = _model(data)
        with FieldWorker(), mock.patch.object(F, "_head_grads",
                                              nan_weight_grad):
            _backward(model, data)
            assert _pending(model)
            subjects = [v.subject for v in finite_grads(model)]
        assert subjects == ["decoder.head_f0.weight.sparse[0]",
                            "decoder.head_f1.weight.sparse[0]"]
        assert _pending(model) == []

    def test_busy_and_wait_count_the_deferred_tasks(self):
        real = F._head_grads
        ms = 20

        def slow_head_task(*args):
            threading.Event().wait(ms / 1e3)
            return real(*args)

        data = _dataset(["large", "large", "single"])
        with obs.session() as telemetry, \
                mock.patch.object(F, "_head_grads", slow_head_task):
            steps, __ = _train(data, "float32", cpus=2, epochs=1)
        snap = {e["name"]: e for e in telemetry.registry.snapshot()}
        n_steps = len(steps.losses)
        # Three head tasks a step run one after another on the worker; the
        # caller's own remaining work (trunk, encoder, Adam) is far shorter.
        assert snap["trainer.field_worker.busy_ms"]["sum"] >= 3 * ms * n_steps
        assert snap["trainer.field_worker.wait_ms"]["sum"] >= ms * n_steps


class TestConcurrentRuns:
    def test_two_threads_each_own_their_worker(self):
        data = _dataset(["large", "single", "large"])
        reference, ref_state = _train(data, "float32", cpus=2)
        results: list = [None, None]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _cpus(2):
                threads = [threading.Thread(
                    target=lambda k=k: results.__setitem__(
                        k, _train(data, "float32", cpus=None)))
                    for k in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for steps, state in results:
            assert steps.losses == reference.losses
            for name, value in ref_state.items():
                assert value.tobytes() == state[name].tobytes(), name


class TestTelemetry:
    def test_wait_and_busy_recorded_per_step_with_a_session(self):
        data = _dataset(["large", "large", "single"])
        with obs.session() as telemetry:
            steps, __ = _train(data, "float32", cpus=2, epochs=1)
        snap = {e["name"]: e for e in telemetry.registry.snapshot()}
        for name in ("trainer.field_worker.wait_ms",
                     "trainer.field_worker.busy_ms"):
            assert snap[name]["count"] == len(steps.losses)
        assert snap["trainer.field_worker.busy_ms"]["sum"] > 0.0
        assert "field worker: caller waited" in render_report(telemetry)

    def test_no_obs_calls_without_a_session(self):
        from repro.obs import runtime

        calls = []
        data = _dataset(["large", "large"])
        with mock.patch.object(runtime, "observe",
                               lambda *a, **k: calls.append(a)), \
                mock.patch.object(runtime, "count",
                                  lambda *a, **k: calls.append(a)):
            _train(data, "float32", cpus=2, epochs=1)
        assert [c for c in calls if str(c[0]).startswith("trainer.")] == []
