"""Unit tests for the PLT indexes (sum index, length directory, item index)."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.index import LengthIndex, SumIndex
from repro.compress.store import PLTStore
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.rank import sort_key
from repro.errors import ReproError
from repro.serve.engine import Engine, PatternEngine, ServingIndex
from repro.serve.snapshot import restore_from_blob, snapshot_blob
from tests.conftest import random_database


class TestSumIndex:
    def test_buckets_match_plt_sum_index(self, paper_plt):
        idx = SumIndex(paper_plt)
        raw = paper_plt.sum_index()
        assert set(idx.sums()) == set(raw)
        for s in raw:
            assert dict(idx.bucket(s)) == raw[s]

    def test_sums_descending(self, paper_plt):
        idx = SumIndex(paper_plt)
        sums = idx.sums()
        assert sums == sorted(sums, reverse=True)

    def test_support_is_bucket_total(self, paper_plt):
        idx = SumIndex(paper_plt)
        # vectors ending at rank 4: CD, ABD, BCD, ABCD -> total freq 4
        assert idx.support(4) == 4
        assert idx.support(3) == 2  # ABC x2
        assert idx.support(99) == 0

    def test_contains_len(self, paper_plt):
        idx = SumIndex(paper_plt)
        assert 4 in idx and 99 not in idx
        assert len(idx) == 2

    def test_bucket_returns_copy(self, paper_plt):
        idx = SumIndex(paper_plt)
        b = idx.bucket(4)
        b.clear()
        assert idx.bucket(4)

    def test_empty_plt(self):
        idx = SumIndex(PLT.from_transactions([], 1))
        assert idx.sums() == []
        assert len(idx) == 0


class TestLengthIndex:
    def test_read_partition_roundtrip(self, paper_plt):
        idx = LengthIndex(paper_plt)
        for length in idx.lengths():
            assert dict(idx.read_partition(length)) == paper_plt.partition(length)

    def test_spans_are_disjoint_and_cover(self, paper_plt):
        idx = LengthIndex(paper_plt)
        spans = sorted(idx.span(k) for k in idx.lengths())
        end = 0
        for start, size in spans:
            assert start == end
            end = start + size
        assert end == idx.total_bytes()

    def test_missing_partition_raises(self, paper_plt):
        idx = LengthIndex(paper_plt)
        with pytest.raises(ReproError):
            idx.span(99)

    def test_n_vectors(self, paper_plt):
        idx = LengthIndex(paper_plt)
        assert idx.n_vectors(3) == 3
        assert idx.n_vectors(99) == 0

    def test_find_vector_point_query(self, paper_plt):
        idx = LengthIndex(paper_plt)
        assert idx.find_vector((1, 1, 1)) == 2
        assert idx.find_vector((1, 1, 3)) is None  # right length, absent
        assert idx.find_vector((9, 9, 9, 9, 9)) is None  # no such partition

    @pytest.mark.parametrize("seed", range(4))
    def test_random_roundtrip(self, seed):
        db = random_database(seed + 400, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 1)
        idx = LengthIndex(plt)
        for length in idx.lengths():
            assert dict(idx.read_partition(length)) == plt.partition(length)
        for vec, freq in plt.vectors().items():
            assert idx.find_vector(vec) == freq

    def test_empty(self):
        idx = LengthIndex(PLT.from_transactions([], 1))
        assert idx.lengths() == []
        assert idx.total_bytes() == 0


# ---------------------------------------------------------------------------
# ItemIndex: the serving postings, built three ways
# ---------------------------------------------------------------------------
db_strategy = st.lists(
    st.frozensets(st.integers(0, 9), min_size=1, max_size=7), min_size=1, max_size=30
)


def _served_three_ways(db, min_support):
    """The same database served from transactions, a store and a snapshot."""
    plt = PLT.from_transactions(db, min_support)
    direct = ServingIndex.from_transactions(db, min_support)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.plts"
        PLTStore.write(plt, path)
        stored = ServingIndex.from_store(path)
    restored = restore_from_blob(snapshot_blob(direct))
    return plt, (direct, stored, restored)


class TestItemIndexDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        db=db_strategy,
        min_support=st.integers(1, 4),
        queries=st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4), max_size=12),
    )
    def test_support_matches_plt(self, db, min_support, queries):
        # ranks past the table are absent; repeats collapse (itemsets are sets)
        plt, indexes = _served_three_ways(db, min_support)
        table = plt.rank_table
        for ranks in queries + [[r] for r in range(1, len(table) + 2)]:
            if max(ranks) > len(table):
                expected = 0
            else:
                expected = plt.support_of(table.decode_ranks(ranks))
            for index in indexes:
                assert index.postings.support(ranks) == expected

    @settings(max_examples=40, deadline=None)
    @given(db=db_strategy, min_support=st.integers(1, 3), extra=st.integers(0, 3))
    def test_topk_matches_filtered_full_mine(self, db, min_support, extra):
        plt, indexes = _served_three_ways(db, min_support)
        s = min_support + extra
        full = [
            (tuple(sorted(plt.rank_table.decode_ranks(ranks), key=sort_key)), sup)
            for ranks, sup in mine_conditional(plt, s)
        ]
        for index in indexes:
            engine = PatternEngine(index, cache_size=0, coalesce=False)
            for item in plt.rank_table.items():
                expected = sorted(
                    [entry for entry in full if item in entry[0]], key=Engine._order_key
                )
                env = engine.handle({"op": "topk", "item": item, "k": None, "min_support": s})
                assert env["complete"] is True
                got = [(tuple(e["items"]), e["support"]) for e in env["result"]["itemsets"]]
                assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(db=db_strategy, min_support=st.integers(1, 4))
    def test_paths_containing_match_the_stored_paths(self, db, min_support):
        plt, indexes = _served_three_ways(db, min_support)
        stored = list(plt.iter_rank_paths())
        for index in indexes:
            postings = index.postings
            assert list(postings.paths()) == stored
            assert postings.n_paths() == len(stored)
            for rank in range(0, len(plt.rank_table) + 2):
                through = [(path, freq) for path, freq in stored if rank in path]
                assert list(postings.paths_containing(rank)) == through
                assert postings.rank_support(rank) == sum(freq for _, freq in through)
                assert (rank in postings) == bool(through)
            assert postings.ranks() == sorted({r for path, _ in stored for r in path})
            assert len(postings) == len(postings.ranks())

    def test_empty_structure(self):
        index = ServingIndex.from_transactions([], 1)
        postings = index.postings
        assert postings.n_paths() == 0 and len(postings) == 0
        assert postings.support([1]) == postings.support([1, 2]) == 0
        assert postings.conditional_paths(1, 1) == {}
        assert list(postings.paths_containing(1)) == []
