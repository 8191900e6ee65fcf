"""The benchmark's trace targets name code that exists.

``bench/trace.py`` wraps methods by name and silently skips a missing one,
so renaming, say, ``SyncLoader.epoch`` or ``Adam.step`` would zero a
per-layer metric while every other gate stays green.  These tests load that
module from its file (it is not a package) and resolve every target.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.nn import Adam, Parameter

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _load_trace()


@pytest.mark.parametrize("path, attr",
                         [(path, attr) for path, attr, *__ in trace.TARGETS])
def test_target_resolves(path, attr):
    module_name, __, cls_name = path.partition(":")
    owner = importlib.import_module(module_name)
    if cls_name:
        owner = getattr(owner, cls_name, None)
        assert owner is not None, f"{module_name} has no {cls_name}"
    assert hasattr(owner, attr), f"{path} has no {attr}"


def test_rows_touched_reads_the_optimizer_params():
    param = Parameter(np.zeros((6, 2)), sparse=True)
    param.add_sparse_grad(np.array([1, 4]), np.ones((2, 2)))
    assert trace._rows_touched((Adam([param]),), None) == {"rows": 2}
