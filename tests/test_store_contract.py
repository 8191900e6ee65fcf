"""One contract over every embedding store: float64, int8, PQ, residual PQ.

The quantized store is the float store with a codec, so each behaviour of
the store core — duplicate keys, absent keys, the mmap snapshot with
copy-on-write, the eager fallback for a compressed archive, the archive
format — is pinned once here for all four.  A quantized store reads back
its *dequantized* rows, so expected values are what the same store decodes
for the same input, never the raw input.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.lookalike import EmbeddingStore, QuantizedEmbeddingStore
from repro.resilience import CheckpointError
from repro.resilience.checkpoint import read_archive, write_archive
from repro.utils.fileio import digest_path_for

DIM = 8
N = 40
KEYS = [f"u{i}" for i in range(N)]

STORES = {
    "float64": lambda: EmbeddingStore(DIM),
    "int8": lambda: QuantizedEmbeddingStore(DIM, mode="int8"),
    "pq": lambda: QuantizedEmbeddingStore(DIM, mode="pq", n_subvectors=4,
                                          n_centroids=16),
    "residual_pq": lambda: QuantizedEmbeddingStore(
        DIM, mode="pq", n_subvectors=4, n_centroids=16, n_coarse=4),
}

#: Archive members beside ``meta`` and ``keys``, with the dtype of the rows.
ARCHIVES = {
    "float64": ({"matrix"}, "matrix", np.float64),
    "int8": ({"codes", "quantizer_scale"}, "codes", np.uint8),
    "pq": ({"codes", "quantizer_codebooks", "quantizer_train_bound"},
           "codes", np.uint8),
    "residual_pq": ({"codes", "quantizer_codebooks",
                     "quantizer_train_bound", "quantizer_coarse_centroids"},
                    "codes", np.uint8),
}


def data(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(5, DIM))
    return centers[rng.integers(0, 5, size=N)] + 0.3 * rng.normal(size=(N, DIM))


@pytest.fixture(params=list(STORES))
def kind(request):
    return request.param


@pytest.fixture
def store(kind):
    store = STORES[kind]()
    store.put_many(KEYS, data())
    return store


class TestStoreContract:
    def test_duplicate_keys_last_write_wins(self, store):
        matrix = data()
        rows = store.rows_for(["u3"])
        store.put_many(["u3", "u9", "u3"], matrix[[5, 9, 7]])
        assert len(store) == N
        assert store.rows_for(["u3"]).tolist() == rows.tolist()
        # u7 holds matrix[7] under the same codec, so it decodes identically
        np.testing.assert_array_equal(store.get("u3"), store.get("u7"))
        store.put("u3", matrix[11])
        np.testing.assert_array_equal(store.get("u3"), store.get("u11"))

    def test_rows_for_absent_keys_is_minus_one(self, store):
        assert store.rows_for(["u0", "ghost", "u5", 7]).tolist() == \
            [0, -1, 5, -1]
        assert store.rows_for([]).shape == (0,)

    def test_absent_keys_read_as_zero_rows(self, store, kind):
        rows, found = store.get_batch(["u0", "ghost", "u5", "ghost2"])
        assert found.tolist() == [True, False, True, False]
        assert rows.dtype == np.float64 and rows.shape == (4, DIM)
        # zeroed after decoding: a zero code does not decode to zeros
        np.testing.assert_array_equal(rows[[1, 3]], np.zeros((2, DIM)))
        np.testing.assert_array_equal(rows[[0, 2]],
                                      store.get_many(["u0", "u5"]))
        rows, found = store.get_batch(["ghost"])
        assert not found.any() and not rows.any()
        rows, found = store.get_batch([])
        assert rows.shape == (0, DIM) and found.shape == (0,)
        assert store.get("ghost") is None and "ghost" not in store
        with pytest.raises(KeyError, match="ghost"):
            store.get_many(["u1", "ghost"])

    def test_empty_store(self, kind):
        store = STORES[kind]()
        rows, found = store.get_batch(["a", "b"])
        assert rows.shape == (2, DIM) and not rows.any() and not found.any()
        assert store.get_many([]).shape == (0, DIM)
        keys, matrix = store.as_matrix()
        assert keys == [] and matrix.shape == (0, DIM)

    def test_get_returns_a_copy(self, store):
        expected = store.get("u2").copy()
        store.get("u2")[:] = 99.0                   # a careless caller
        np.testing.assert_array_equal(store.get("u2"), expected)
        np.testing.assert_array_equal(store.get_batch(["u2"])[0][0], expected)

    def test_reads_agree(self, store):
        keys, matrix = store.as_matrix()
        assert keys == KEYS == store.keys() == list(store)
        np.testing.assert_array_equal(store.get_many(KEYS), matrix)
        np.testing.assert_array_equal(store.get_batch(KEYS)[0], matrix)
        for key in ("u0", "u17", "u39"):
            np.testing.assert_array_equal(store.get(key),
                                          matrix[KEYS.index(key)])

    def test_snapshot_mmap_round_trip_and_copy_on_write(self, store,
                                                        tmp_path):
        cls = type(store)
        path = tmp_path / "snap.npz"
        store.save_snapshot(path)
        on_disk = path.read_bytes()
        keys, matrix = store.as_matrix()

        for mmap in (True, False):
            loaded = cls.load(path, mmap=mmap)
            assert loaded.is_mapped is mmap
            assert loaded.keys() == keys and loaded.dim == DIM
            np.testing.assert_array_equal(loaded.as_matrix()[1], matrix)
            rows, found = loaded.get_batch(["u4", "ghost"])
            assert found.tolist() == [True, False] and not rows[1].any()

        mapped = cls.load(path, mmap=True)
        assert mapped.is_mapped                      # reads never copy
        mapped.put_many(["u1", "fresh"], data(1)[:2])
        assert not mapped.is_mapped                  # the first write copies
        assert len(mapped) == N + 1
        np.testing.assert_array_equal(mapped.get("u0"), store.get("u0"))
        assert path.read_bytes() == on_disk          # the archive is unchanged
        again = cls.load(path, mmap=True)
        assert len(again) == N
        np.testing.assert_array_equal(again.get("u1"), store.get("u1"))

    def test_republishing_leaves_a_mapped_store_serving_its_rows(
            self, store, kind, tmp_path):
        cls = type(store)
        path = tmp_path / "snap.npz"
        store.save_snapshot(path)
        expected = store.as_matrix()[1]
        mapped = cls.load(path, mmap=True)
        assert mapped.is_mapped
        for n_rows in (N, N // 2):                  # same size, then smaller
            fresh = STORES[kind]()
            fresh.put_many(KEYS[:n_rows], data(n_rows)[:n_rows] + 100.0)
            fresh.save_snapshot(path)
            np.testing.assert_array_equal(mapped.as_matrix()[1], expected)
            np.testing.assert_array_equal(mapped.get_many(KEYS), expected)
        assert len(cls.load(path, mmap=True)) == N // 2

    def test_a_republish_during_a_load_does_not_mix_versions(
            self, store, kind, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as checkpoint

        path = tmp_path / "snap.npz"
        store.save_snapshot(path)
        newer = STORES[kind]()
        newer.put_many(KEYS[:N // 2], data(1)[:N // 2])
        real = checkpoint.mmap_npz_members

        def republish_first(handle):             # lands between two reads
            newer.save_snapshot(path)
            return real(handle)

        monkeypatch.setattr(checkpoint, "mmap_npz_members", republish_first)
        loaded = type(store).load(path, mmap=True)
        assert loaded.is_mapped and loaded.keys() == KEYS
        np.testing.assert_array_equal(loaded.as_matrix()[1],
                                      store.as_matrix()[1])

    def test_compressed_archive_loads_eagerly(self, store, tmp_path):
        snap, packed = tmp_path / "snap.npz", tmp_path / "packed.npz"
        store.save_snapshot(snap)
        with np.load(snap) as payload:
            np.savez_compressed(packed, **{name: payload[name]
                                           for name in payload.files})
        loaded = type(store).load(packed, mmap=True)
        assert not loaded.is_mapped
        np.testing.assert_array_equal(loaded.as_matrix()[1],
                                      store.as_matrix()[1])
        loaded.put("fresh", data()[0])
        assert len(loaded) == N + 1

    def test_mismatched_rows_member_is_rejected(self, store, kind, tmp_path):
        snap, bad = tmp_path / "snap.npz", tmp_path / "bad.npz"
        store.save_snapshot(snap)
        rows_member = ARCHIVES[kind][1]
        archive = read_archive(snap)
        members = dict(archive.arrays)
        members[rows_member] = members[rows_member][:-1]   # a truncated copy
        write_archive(bad, members, archive.meta)
        for mmap in (True, False):
            with pytest.raises(CheckpointError, match=rows_member):
                type(store).load(bad, mmap=mmap)

    def test_archive_members_and_dtypes(self, store, kind, tmp_path):
        path = tmp_path / "snap.npz"
        store.save_snapshot(path)
        assert not digest_path_for(path).exists()    # no sidecar to hash
        members, rows_member, dtype = ARCHIVES[kind]
        with np.load(path) as payload:               # allow_pickle=False
            assert set(payload.files) == {"meta", "keys"} | members
            assert payload["keys"].dtype.kind == "U"
            assert payload["keys"].tolist() == KEYS
            meta = json.loads(str(payload["meta"]))
            assert meta["dim"] == DIM
            rows = payload[rows_member]
            assert rows.dtype == dtype and rows.shape[0] == N
            if kind == "float64":
                assert "mode" not in meta
                np.testing.assert_array_equal(rows, store.as_matrix()[1])
            else:
                assert meta["mode"] == store.mode
                np.testing.assert_array_equal(rows, store.as_codes()[1])

    @pytest.mark.parametrize("keys", [[0, "u1"], [(0, 1)], [1.5], [True]])
    def test_keys_that_are_not_all_int_or_all_str_are_refused(
            self, kind, keys, tmp_path):
        store = STORES[kind]()
        store.put_many(keys, data()[:len(keys)])
        with pytest.raises(ValueError, match="all integers or all str"):
            store.save_snapshot(tmp_path / "snap.npz")
        assert not list(tmp_path.iterdir())

    def test_numpy_string_keys_round_trip_as_str(self, kind, tmp_path):
        store = STORES[kind]()
        store.put_many(np.array(["a", "bb", "ccc"]), data()[:3])
        store.save_snapshot(tmp_path / "snap.npz")
        loaded = type(store).load(tmp_path / "snap.npz")
        assert loaded.keys() == ["a", "bb", "ccc"]
        np.testing.assert_array_equal(loaded.get_many(["a", "bb", "ccc"]),
                                      store.as_matrix()[1])

    def test_integer_keys_round_trip_as_int64(self, kind, tmp_path):
        store = STORES[kind]()
        keys = [7, np.int64(3), 2**40]
        store.put_many(keys, data()[:3])
        store.save_snapshot(tmp_path / "snap.npz")
        loaded = type(store).load(tmp_path / "snap.npz")
        assert loaded.keys() == [7, 3, 2**40]
        assert all(type(key) is int for key in loaded.keys())
        np.testing.assert_array_equal(loaded.get_many(keys),
                                      store.get_many(keys))
