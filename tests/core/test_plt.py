"""Unit tests for the PLT structure and Algorithm 1 (construction)."""

from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import position
from repro.core.plt import PLT, build_plt
from repro.core.rank import ORDER_POLICIES, RankTable
from repro.data.transaction_db import (
    TransactionDatabase,
    item_supports,
    resolve_min_support,
)
from repro.errors import InvalidSupportError, InvalidVectorError


class TestConstruction:
    def test_two_scan_construction_filters_infrequent(self, paper_db):
        plt = PLT.from_transactions(paper_db, 2)
        assert set(plt.rank_table.items()) == {"A", "B", "C", "D"}
        assert plt.n_transactions == 6
        assert plt.min_support == 2

    def test_relative_support(self, paper_db):
        # 2/6 = 0.334 -> abs 3? no: ceil(0.334*6)=3; use exactly 1/3
        plt = PLT.from_transactions(paper_db, 1 / 3)
        assert plt.min_support == 2

    def test_vectors_aggregate_duplicates(self, paper_db):
        plt = PLT.from_transactions(paper_db, 2)
        # ABC occurs twice -> single vector with frequency 2
        assert plt.partition(3)[(1, 1, 1)] == 2

    def test_transaction_of_only_infrequent_items_encodes_to_nothing(self):
        db = [("a", "b"), ("a", "b"), ("z",)]
        plt = PLT.from_transactions(db, 2)
        assert plt.n_transactions == 3
        assert sum(f for b in plt.partitions.values() for f in b.values()) == 2

    def test_accepts_one_shot_iterator(self):
        plt = PLT.from_transactions(iter([("a",), ("a",)]), 2)
        assert plt.partition(1) == {(1,): 2}

    def test_empty_database(self):
        plt = PLT.from_transactions([], 1)
        assert plt.n_vectors() == 0
        assert plt.max_length() == 0
        assert plt.max_rank() == 0

    def test_min_support_validation(self):
        with pytest.raises(InvalidSupportError):
            PLT.from_transactions([("a",)], 0)
        with pytest.raises(InvalidSupportError):
            PLT.from_transactions([("a",)], 1.5)

    def test_build_plt_alias(self, paper_db):
        assert build_plt(paper_db, 2) == PLT.from_transactions(paper_db, 2)

    def test_order_policy_changes_vectors_not_support(self, paper_db):
        lex = PLT.from_transactions(paper_db, 2)
        desc = PLT.from_transactions(paper_db, 2, order="support_desc")
        assert lex.rank_table != desc.rank_table
        for item in "ABCD":
            assert lex.item_support(item) == desc.item_support(item)


class TestFromVectors:
    def test_wraps_vectors(self):
        table = RankTable(["A", "B", "C"])
        plt = PLT.from_vectors(table, {(1, 1): 3, (2,): 1}, min_support=1)
        assert plt.n_vectors() == 2
        assert plt.n_transactions == 4  # inferred as total frequency

    def test_invalid_vector_rejected(self):
        table = RankTable(["A"])
        with pytest.raises(InvalidVectorError):
            PLT.from_vectors(table, {(0,): 1}, min_support=1)

    def test_nonpositive_frequency_rejected(self):
        table = RankTable(["A"])
        with pytest.raises(ValueError):
            PLT.from_vectors(table, {(1,): 0}, min_support=1)


class TestViews:
    def test_partitions_by_length(self, paper_plt):
        assert set(paper_plt.partitions) == {2, 3, 4}
        assert paper_plt.partition(99) == {}

    def test_sum_index_buckets_by_last_rank(self, paper_plt):
        idx = paper_plt.sum_index()
        assert set(idx) == {3, 4}
        # sum=4 bucket: CD, ABD, BCD, ABCD
        assert set(idx[4]) == {(3, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)}

    def test_sum_index_returns_fresh_copies(self, paper_plt):
        idx = paper_plt.sum_index()
        idx[4].clear()
        assert paper_plt.sum_index()[4]  # original unaffected

    def test_iter_vectors_longest_first(self, paper_plt):
        lengths = [len(vec) for vec, _ in paper_plt.iter_vectors()]
        assert lengths == sorted(lengths, reverse=True)

    def test_vectors_flat_view(self, paper_plt):
        flat = paper_plt.vectors()
        assert flat[(1, 1, 1)] == 2
        assert len(flat) == paper_plt.n_vectors()


class TestQueries:
    def test_item_support_matches_scan(self, paper_db, paper_plt):
        for item in "ABCD":
            assert paper_plt.item_support(item) == paper_db.supports()[item]

    def test_rank_support(self, paper_plt):
        assert paper_plt.rank_support(2) == 5  # B

    def test_support_of_itemsets(self, paper_db, paper_plt):
        import itertools

        for r in range(1, 5):
            for combo in itertools.combinations("ABCD", r):
                assert paper_plt.support_of(combo) == paper_db.support_of(combo)

    def test_support_of_empty_itemset_is_n_transactions(self, paper_plt):
        assert paper_plt.support_of([]) == 6

    def test_support_of_infrequent_item_is_zero(self, paper_plt):
        # E is not in the rank table; its true support (1) is < min_support,
        # and the PLT reports 0 because the item was filtered at build time
        assert paper_plt.support_of(["E"]) == 0
        assert paper_plt.support_of(["A", "E"]) == 0

    def test_max_rank_and_length(self, paper_plt):
        assert paper_plt.max_rank() == 4
        assert paper_plt.max_length() == 4


class TestStats:
    def test_stats_values(self, paper_plt):
        stats = paper_plt.stats()
        assert stats.n_transactions == 6
        assert stats.n_encoded_transactions == 6
        assert stats.n_frequent_items == 4
        assert stats.n_vectors == 5
        assert stats.max_vector_len == 4
        assert stats.n_positions == 2 + 3 + 3 + 3 + 4

    def test_compression_ratio(self, paper_plt):
        assert paper_plt.stats().compression_ratio == pytest.approx(6 / 5)

    def test_compression_ratio_empty(self):
        plt = PLT.from_transactions([], 1)
        assert plt.stats().compression_ratio == 1.0


class TestEquality:
    def test_equal_plts(self, paper_db):
        assert PLT.from_transactions(paper_db, 2) == PLT.from_transactions(paper_db, 2)

    def test_different_support(self, paper_db):
        assert PLT.from_transactions(paper_db, 2) != PLT.from_transactions(paper_db, 3)

    def test_repr_mentions_counts(self, paper_plt):
        text = repr(paper_plt)
        assert "vectors=5" in text and "min_support=2" in text


class TestSupportOfConsistencyRandom:
    def test_against_full_scan(self):
        import itertools
        import random

        rng = random.Random(5)
        db = TransactionDatabase(
            frozenset(rng.sample(range(7), rng.randint(1, 7))) for _ in range(30)
        )
        plt = PLT.from_transactions(db, 2)
        frequent_items = list(plt.rank_table.items())
        for r in range(1, 4):
            for combo in itertools.combinations(frequent_items, r):
                assert plt.support_of(combo) == db.support_of(combo), combo


class TestRankPathChecks:
    """The constructor's C-level checks on the rank paths it indexes."""

    @pytest.mark.parametrize(
        "paths",
        [{(): 1}, {(0, 2): 1}, {(-1,): 1}, {(1, 1): 1}, {(1, 2, 2): 1}, {(1,): 0}],
        ids=["empty", "zero-rank", "negative", "repeat", "repeat-tail", "zero-freq"],
    )
    def test_rejected(self, paths):
        with pytest.raises(InvalidVectorError):
            PLT(RankTable(["A", "B"]), paths, min_support=1, n_transactions=1)

    def test_delta_views_are_derived_lazily(self, paper_db):
        plt = PLT.from_transactions(paper_db, 2)
        assert plt._partitions is None and plt._sum_index is None
        plt.n_vectors(), plt.stats(), plt.rank_path_index(), plt == plt
        assert plt._partitions is None
        assert plt.partition(3)[(1, 1, 1)] == 2
        assert plt.partitions is plt.partitions  # cached


# ---------------------------------------------------------------------------
# construction differential: scan 2 in rank space vs. the encode path
# ---------------------------------------------------------------------------
# mixed int/str labels, "7" and 7 distinct items; duplicates within a
# transaction and empty transactions both occur
_labels = st.one_of(st.integers(-3, 12), st.sampled_from(["a", "b", "7", "é", "x y", ""]))
_databases = st.lists(st.lists(_labels, max_size=7), max_size=25)
_supports = st.one_of(st.integers(1, 4), st.sampled_from([0.05, 0.2, 0.5, 1.0]))


def _encode_path_oracle(transactions, min_support, order):
    """Algorithm 1 through the per-transaction encode path: label set ->
    ``encode_itemset`` -> ``position.encode``, aggregated as vectors."""
    supports = item_supports(transactions)
    abs_support = resolve_min_support(min_support, len(transactions))
    table = RankTable.from_supports(supports, min_support=abs_support, order=order)
    vectors = Counter()
    for t in transactions:
        ranks = table.encode_itemset(t, skip_unknown=True)
        if ranks:
            vectors[position.encode(ranks)] += 1
    return vectors, PLT.from_vectors(
        table, vectors, min_support=abs_support, n_transactions=len(transactions)
    )


@settings(max_examples=150, deadline=None)
@given(_databases, _supports, st.sampled_from(ORDER_POLICIES), st.booleans())
def test_construction_matches_encode_path(db, min_support, order, one_shot):
    vectors, oracle = _encode_path_oracle(db, min_support, order)
    plt = PLT.from_transactions(iter(db) if one_shot else db, min_support, order=order)
    assert plt == oracle
    assert plt.rank_table.order == order
    # every view, against the oracle and against dicts built straight from
    # the encoded vectors
    by_length, by_sum, paths = {}, {}, {}
    for vec, freq in vectors.items():
        by_length.setdefault(len(vec), {})[vec] = freq
        by_sum.setdefault(sum(vec), {})[vec] = freq
        paths.setdefault(sum(vec), {})[tuple(accumulate(vec))] = freq
    assert plt.partitions == oracle.partitions == by_length
    assert plt.sum_index() == oracle.sum_index() == by_sum
    assert plt.rank_path_index() == oracle.rank_path_index() == paths
    assert list(plt.iter_vectors()) == list(oracle.iter_vectors())
    assert sorted(plt.iter_vectors()) == sorted(vectors.items())
    assert plt.vectors() == dict(vectors)
    assert plt.stats() == oracle.stats()
    assert plt.n_transactions == len(db)
