"""Property-based tests: DynamicHashTable vs a plain-dict reference model.

Hypothesis drives randomized id sequences (growing and frozen, scalar and
bulk, integer-mirror fast path and fallback) against the obvious dict
semantics.  A tiny ``_MAX_MIRROR`` subclass forces the mirror-abandonment
boundary that production ids would only hit at 2^24 slots.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import DynamicHashTable

ids = st.integers(min_value=0, max_value=60)
id_lists = st.lists(ids, max_size=60)
# Occasionally negative / huge: exercises mirror abandonment and -1 mapping
wild_ids = st.integers(min_value=-5, max_value=2_000_000)


class TinyMirrorTable(DynamicHashTable):
    """Mirror limited to 32 slots: ids >= 32 abandon the dense fast path."""

    _MAX_MIRROR = 32


class DictModel:
    """Executable specification of the table semantics."""

    def __init__(self, frozen: bool = False) -> None:
        self.index: dict[int, int] = {}
        self.frozen = frozen

    def lookup(self, keys) -> list[int]:
        out = []
        for key in keys:
            if key not in self.index:
                if self.frozen:
                    out.append(-1)
                    continue
                self.index[key] = len(self.index)
            out.append(self.index[key])
        return out

    def rows_for(self, keys) -> list[int]:
        return [self.index.get(k, -1) for k in keys]


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(id_lists, max_size=6))
def test_bulk_lookup_matches_dict_model(batches):
    table = DynamicHashTable()
    model = DictModel()
    for batch in batches:
        rows = table.lookup_ids(np.asarray(batch, dtype=np.int64))
        assert rows.tolist() == model.lookup(batch)
    assert dict(table.items()) == model.index
    assert table.verify_bijection() == []


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(id_lists, max_size=6))
def test_scalar_and_bulk_paths_agree(batches):
    bulk = DynamicHashTable()
    scalar = DynamicHashTable()
    for batch in batches:
        bulk_rows = bulk.lookup_ids(np.asarray(batch, dtype=np.int64))
        scalar_rows = [scalar.lookup_one(k) for k in batch]
        assert bulk_rows.tolist() == scalar_rows
    assert dict(bulk.items()) == dict(scalar.items())


@settings(max_examples=60, deadline=None)
@given(warm=id_lists, query=id_lists)
def test_frozen_table_never_grows(warm, query):
    table = DynamicHashTable()
    model = DictModel()
    table.lookup(warm)
    model.lookup(warm)
    table.freeze()
    size_before = table.size
    rows = table.lookup_ids(np.asarray(query, dtype=np.int64))
    assert rows.tolist() == model.rows_for(query)
    assert table.size == size_before
    assert all(r == -1 for k, r in zip(query, rows) if k not in model.index)


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(st.lists(wild_ids, max_size=20), max_size=5))
def test_mirror_boundary_ids_fall_back_correctly(batches):
    """Negative and beyond-mirror ids: fast path and fallback must agree."""
    table = TinyMirrorTable()
    model = DictModel()
    for batch in batches:
        rows = table.lookup_ids(np.asarray(batch, dtype=np.int64))
        assert rows.tolist() == model.lookup(batch)
    assert dict(table.items()) == model.index
    assert table.verify_bijection() == []


@settings(max_examples=60, deadline=None)
@given(warm=id_lists, query=st.lists(wild_ids, max_size=30))
def test_rows_for_ids_never_mutates(warm, query):
    table = DynamicHashTable()
    table.lookup(warm)
    snapshot = dict(table.items())
    rows = table.rows_for_ids(np.asarray(query, dtype=np.int64))
    assert rows.tolist() == [snapshot.get(k, -1) for k in query]
    assert dict(table.items()) == snapshot


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(ids, unique=True, min_size=1, max_size=30))
def test_load_items_roundtrip_preserves_rows(keys):
    table = DynamicHashTable()
    table.lookup(keys)
    clone = DynamicHashTable().load_items(k for k, __ in table.items())
    assert dict(clone.items()) == dict(table.items())
    assert clone.verify_bijection() == []
    # Future inserts continue from the same next row
    fresh = max(keys) + 1
    assert clone.lookup_one(fresh) == table.lookup_one(fresh)


def test_negative_id_beyond_mirror_size_regression():
    """Found by hypothesis: id -5 against a 1-slot mirror raised IndexError
    (negative fancy-index wrapped around instead of mapping to -1)."""
    table = DynamicHashTable()
    table.lookup_ids(np.array([0]))  # mirror has a single slot
    assert table.rows_for_ids(np.array([-5])).tolist() == [-1]
    rows = table.lookup_ids(np.array([-5]))  # grows via the fallback path
    assert rows.tolist() == [1]
    assert dict(table.items()) == {0: 0, -5: 1}


def test_verify_bijection_catches_duplicate_rows():
    table = DynamicHashTable()
    table.lookup([1, 2, 3])
    table._index[3] = 0  # two keys now share row 0
    assert table.verify_bijection() != []


def test_verify_bijection_catches_stale_mirror():
    table = DynamicHashTable()
    table.lookup_ids(np.array([0, 1, 2]))  # builds the mirror
    table._index[7] = 3  # mutate behind the mirror's back, same version
    assert any("mirror" in p for p in table.verify_bijection())
