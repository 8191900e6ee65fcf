"""Training heap: reused while steps run, handed back when ``fit`` returns.

glibc's mmap and trim thresholds rise to the largest mmapped block freed so
far; ``repro.nn.init.grow_rows`` frees 16 MB draw blocks so that they rise
past a training step's temporaries, and steady-state steps then reuse heap
instead of faulting it in again.  Nothing in the step loop gives that heap
back: ``FVAE.fit`` calls ``malloc_trim(0)`` once, after its ``Trainer`` (and
with it Adam's moments) is gone, so a process that trains and then embeds,
publishes or serves does not carry the finished run's scratch.

Both process-level properties are measured in a fresh interpreter, where no
earlier test has shaped the heap.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import FVAE, FVAEConfig, make_kd_like, obs
from repro.utils.memory import release_free_heap

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="malloc_trim is a glibc function")

SLACK_MB = 16           # RSS a fit may keep beyond its parameters
STEP_FAULTS = 100       # median minor faults per steady-state step, at most

RSS_PROBE = """
import json, os
import scipy.sparse  # loaded by the first step; not the run's own memory
from repro import FVAE, FVAEConfig, make_kd_like

page = os.sysconf("SC_PAGE_SIZE")
def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * page

dataset = make_kd_like(1024, seed=0).dataset
model = FVAE(dataset.schema, FVAEConfig(seed=0))
before = resident()
model.fit(dataset, epochs=1, batch_size=256)
print(json.dumps({"grew": resident() - before,
                  "params": sum(p.data.nbytes for p in model.parameters())}))
"""

FAULT_PROBE = """
import json, resource
from repro import FVAE, FVAEConfig, make_kd_like
from repro.obs.callbacks import TrainerCallback

class Faults(TrainerCallback):
    def __init__(self):
        self.seen = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
    def on_batch_end(self, trainer, epoch, step, loss, diagnostics):
        self.seen.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

dataset = make_kd_like(2048, seed=0).dataset
faults = Faults()
FVAE(dataset.schema, FVAEConfig(seed=0)).fit(
    dataset, epochs=2, batch_size=256, callbacks=[faults])
print(json.dumps([b - a for a, b in zip(faults.seen, faults.seen[1:])]))
"""


def _fresh(code: str, **env):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@glibc_only
def test_fit_returns_its_heap():
    out = _fresh(RSS_PROBE)
    grew_mb, params_mb = out["grew"] / 2 ** 20, out["params"] / 2 ** 20
    assert grew_mb <= params_mb + SLACK_MB, (
        f"fit left RSS {grew_mb:.1f} MB higher for {params_mb:.1f} MB "
        f"of parameters")


@glibc_only
def test_steady_state_steps_do_not_refault_heap():
    faults = _fresh(FAULT_PROBE, OPENBLAS_NUM_THREADS="1")
    assert len(faults) == 16
    steady = faults[8:]     # steps 9-16: the second epoch
    assert np.median(steady) <= STEP_FAULTS, (
        f"minor faults per step {steady}: steps re-fault the heap")


@glibc_only
def test_fit_reports_released_heap():
    dataset = make_kd_like(256, seed=0).dataset
    model = FVAE(dataset.schema, FVAEConfig(seed=0))
    with obs.session() as telemetry:
        model.fit(dataset, epochs=1, batch_size=256)
    gauge = telemetry.registry.get("trainer.heap_released_mb")
    assert gauge is not None and gauge.value > 0


def test_release_free_heap_result():
    released = release_free_heap()
    if platform.libc_ver()[0] == "glibc":
        assert isinstance(released, int) and released >= 0
    else:
        assert released is None
