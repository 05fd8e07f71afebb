"""Tests for the FlatPLT columns (a PLT's stored index) and their
shared-memory form."""

import os

import pytest

from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from tests.conftest import random_database


def _reference_paths(plt, db):
    """``{path: freq}`` encoded transaction by transaction through the rank
    table (independent of the columnar build), plus per-rank supports."""
    paths = {}
    supports = {}
    for t in db:
        path = plt.rank_table.encode_itemset(t, skip_unknown=True)
        if path:
            paths[path] = paths.get(path, 0) + 1
            for rank in path:
                supports[rank] = supports.get(rank, 0) + 1
    return paths, supports


class TestLowering:
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_matches_plt(self, seed):
        db = random_database(seed + 900, max_items=12, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        want, _ = _reference_paths(plt, db)
        got = {}
        for path, freq in flat.iter_paths():
            got[path] = got.get(path, 0) + freq
        assert got == want
        assert flat.n_paths == len(want)
        assert flat.max_rank == plt.max_rank()
        assert flat.min_support == plt.min_support
        assert flat.n_transactions == plt.n_transactions

    def test_buckets_are_descending_and_consistent(self):
        db = random_database(903, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        keys = list(flat.bucket_keys)
        assert keys == sorted(keys, reverse=True)
        # every path in bucket b must end with the bucket's key
        for b, key in enumerate(keys):
            for p in range(flat.bucket_offsets[b], flat.bucket_offsets[b + 1]):
                assert flat.path(p)[-1] == key

    @pytest.mark.parametrize("seed", range(3))
    def test_layout_is_canonical(self, seed):
        # inside a bucket, paths by length and then lexicographically, so
        # equal path sets give equal columns whatever built them
        db = random_database(seed + 940, max_items=10, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        for b in range(flat.n_buckets):
            paths = [flat.path(p) for p in range(flat.bucket_offsets[b], flat.bucket_offsets[b + 1])]
            assert paths == sorted(paths, key=lambda path: (len(path), path))
        rebuilt = PLT(
            plt.rank_table,
            dict(reversed(list(plt.iter_rank_paths()))),
            min_support=plt.min_support,
            n_transactions=plt.n_transactions,
        ).flat
        for name in ("ranks", "path_offsets", "freqs", "bucket_keys", "bucket_offsets"):
            assert getattr(rebuilt, name) == getattr(flat, name)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_supports(self, seed):
        db = random_database(seed + 910, max_items=11, max_transactions=55)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        _, want = _reference_paths(plt, db)
        sup = flat.rank_supports()
        assert {r: s for r, s in enumerate(sup) if s} == want

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_costs(self, seed):
        # cost[j] sums, over every stored path holding j, the number of
        # ranks before j on that path (its prefix length)
        db = random_database(seed + 920, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        want = [0] * (plt.max_rank() + 1)
        for path, _ in plt.iter_rank_paths():
            for position, rank in enumerate(path):
                want[rank] += position
        assert any(want)
        assert flat.rank_costs() == want
        _, supports = _reference_paths(plt, db)
        assert flat.rank_supports() == [
            supports.get(r, 0) for r in range(plt.max_rank() + 1)
        ]

    def test_empty_plt(self):
        flat = PLT.from_transactions([], 1).flat
        assert flat.n_paths == 0 and flat.n_cells == 0 and flat.n_buckets == 0
        assert flat.rank_supports() == [0] * (flat.max_rank + 1)
        assert flat.paths_by_length() == {}

    def test_paths_by_length_slices(self):
        db = random_database(904, max_items=9, max_transactions=40)
        flat = PLT.from_transactions(db, 2).flat
        n = flat.n_paths
        for start, end in ((0, n), (0, n // 2), (n // 3, n), (n // 2, n // 2)):
            want = sorted(flat.path(p) + (flat.freqs[p],) for p in range(start, end))
            got = sorted(
                tuple(row) + (freq,)
                for mat, freqs in flat.paths_by_length(start, end).values()
                for row, freq in zip(mat.tolist(), freqs.tolist())
            )
            assert got == want


class TestSharedMemory:
    def test_shared_twin_matches_and_cleans_up(self):
        db = random_database(930, max_items=12, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        shared = flat.to_shared_memory()
        name = shared.name
        assert os.path.exists(f"/dev/shm/{name}")
        assert dict(shared.flat.iter_paths()) == dict(flat.iter_paths())

        attached = FlatPLT.attach(shared.meta)
        assert dict(attached.iter_paths()) == dict(flat.iter_paths())
        assert attached.rank_supports() == flat.rank_supports()
        attached.detach()

        shared.close()
        shared.unlink()
        assert not os.path.exists(f"/dev/shm/{name}")
        # idempotent
        shared.close()
        shared.unlink()

    def test_pair_support_travels_through_the_segment(self):
        db = random_database(931, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        assert flat.pair_support_matrix() is None
        assert flat.compute_pair_support() is True
        mat = flat.pair_support_matrix()
        assert mat is not None
        # diagonal == rank supports (pair_support[j, j] = support({j}))
        sup = flat.rank_supports()
        assert [int(v) for v in mat.diagonal()] == sup

        shared = flat.to_shared_memory()
        try:
            attached = FlatPLT.attach(shared.meta)
            amat = attached.pair_support_matrix()
            assert amat is not None and (amat == mat).all()
            del amat  # buffer export must die before the mapping closes
            attached.detach()
        finally:
            shared.close()
            shared.unlink()

    def test_pair_support_respects_cell_cap(self):
        db = random_database(932, max_items=10, max_transactions=40)
        flat = PLT.from_transactions(db, 2).flat
        assert flat.compute_pair_support(max_cells=1) is False
        assert flat.pair_support is None

    def test_empty_plt_shares(self):
        flat = PLT.from_transactions([], 1).flat
        shared = flat.to_shared_memory()
        try:
            attached = FlatPLT.attach(shared.meta)
            assert attached.n_paths == 0
            attached.detach()
        finally:
            shared.close()
            shared.unlink()

    def test_segment_names_are_scannable(self):
        db = random_database(933, max_items=8, max_transactions=30)
        flat = PLT.from_transactions(db, 2).flat
        shared = flat.to_shared_memory()
        try:
            assert shared.name.startswith("plt_shm_")
        finally:
            shared.close()
            shared.unlink()
