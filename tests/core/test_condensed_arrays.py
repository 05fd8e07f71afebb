"""Closed, maximal, top-k and constrained mining as array filters.

Each miner filters Algorithm 3's :class:`RankColumns` output, level to
level through :func:`drop_one_index`.  They are pinned here against
independent references over many random databases: the post-filters
``MiningResult.closed()``/``maximal()``, a brute-force top-k oracle and a
brute-force constraint filter.
"""

import random

import numpy as np
import pytest

from repro.core.closed import mine_closed, mine_maximal
from repro.core.columns import RankColumns, drop_one_index
from repro.core.constraints import mine_constrained
from repro.core.mining import mine_frequent_itemsets
from repro.core.plt import PLT
from repro.core.topk import mine_top_k
from tests.conftest import random_database
from tests.core.test_constraints import filtered_oracle
from tests.core.test_topk import oracle_top_k

SEEDS = range(40)


def _decoded(plt, columns):
    return {frozenset(plt.rank_table.decode_ranks(r)): s for r, s in columns}


class TestDropOneIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_subset_is_found(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 6))
        # ranks past 2**62: no packed key could hold a row of them
        universe = rng.choice(2**62, 12, replace=False) + 2**62
        longer = np.unique(np.sort(rng.choice(universe, (40, length + 1)), axis=1), axis=0)
        longer = longer[(np.diff(longer, axis=1) > 0).all(axis=1)].astype(np.int64)
        subsets = {tuple(np.delete(row, d)) for row in longer for d in range(length + 1)}
        extra = [tuple(sorted(rng.choice(universe, length, replace=False))) for _ in range(5)]
        shorter = np.array(sorted(subsets | set(extra)), np.int64).reshape(-1, length)
        shorter = shorter[rng.permutation(len(shorter))]
        index = drop_one_index(shorter, longer)
        assert index.shape == longer.shape
        for row, found in zip(longer, index):
            for d, at in enumerate(found):
                assert shorter[at].tolist() == np.delete(row, d).tolist()

    def test_zero_rows(self):
        index = drop_one_index(np.array([[1, 2]]), np.zeros((0, 3), np.int64))
        assert index.shape == (0, 3) and index.dtype == np.int64


class TestClosedMaximal:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_the_post_filters(self, seed):
        db = random_database(seed + 4100, max_items=9, max_transactions=35)
        for min_support in (1, 2, 3):
            plt = PLT.from_transactions(db, min_support)
            full = mine_frequent_itemsets(db, min_support)
            closed = mine_closed(plt, min_support)
            maximal = mine_maximal(plt, min_support)
            assert isinstance(closed, RankColumns) and isinstance(maximal, RankColumns)
            assert _decoded(plt, closed) == full.closed().as_dict()
            assert _decoded(plt, maximal) == full.maximal().as_dict()

    def test_empty_and_one_rank(self):
        empty = PLT.from_transactions([], 1)
        assert mine_closed(empty, 1) == [] and mine_maximal(empty, 1) == []
        one = PLT.from_transactions([("a",)] * 3 + [("b",)], 2)
        assert mine_closed(one, 2) == [((1,), 3)]
        assert mine_maximal(one, 2) == [((1,), 3)]


def _oracle_on(plt, db, k, min_len, max_len):
    """The top-k oracle over the PLT's items (its infrequent ones dropped)."""
    kept = set(plt.rank_table.items())
    return oracle_top_k([t & kept for t in db], k, min_len=min_len, max_len=max_len)


class TestTopK:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_oracle(self, seed):
        db = random_database(seed + 4200, max_items=8, max_transactions=25)
        for built_at in (1, 2, 3):
            plt = PLT.from_transactions(db, built_at)
            for k in (1, 4, 20):
                for min_len in (1, 2, 3):
                    for max_len in (None, 1, 2, 4):
                        if max_len is not None and max_len < min_len:
                            continue
                        pairs = mine_top_k(plt, k, min_len=min_len, max_len=max_len)
                        got = {(s, frozenset(plt.rank_table.decode_ranks(r))) for r, s in pairs}
                        assert got == _oracle_on(plt, db, k, min_len, max_len)
                        assert pairs == sorted(pairs, key=lambda p: (-p[1], len(p[0]), p[0]))

    def test_cutoff_below_the_plt_support(self):
        db = [("a", "b")] * 5 + [("a", "c")] * 3 + [("c",)]
        plt = PLT.from_transactions(db, 4)
        # the second-best pair, {a, c}, is below the PLT's own support
        assert mine_top_k(plt, 2, min_len=2) == [((1, 2), 5), ((1, 3), 3)]

    def test_empty_one_rank_and_larger_than_the_universe(self):
        assert mine_top_k(PLT.from_transactions([], 1), 3) == []
        one = PLT.from_transactions([("a",)] * 4, 1)
        assert mine_top_k(one, 5) == [((1,), 4)]
        assert mine_top_k(one, 1, min_len=2) == []
        db = random_database(4300, max_items=6, max_transactions=12)
        plt = PLT.from_transactions(db, 1)
        assert len(mine_top_k(plt, 10_000)) == len(mine_frequent_itemsets(db, 1))


class TestConstrained:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_filtered_oracle(self, seed):
        rng = random.Random(seed + 4400)
        db = random_database(seed + 4400, max_items=8, max_transactions=30)
        items = sorted({i for t in db for i in t})
        weights = {i: rng.randint(1, 4) for i in items}
        predicates = [
            None,
            lambda s: len(s) <= 2,
            lambda s: sum(weights[i] for i in s) <= 6,
        ]
        for predicate in predicates:
            required = set(rng.sample(items, min(len(items), rng.randint(0, 2))))
            excluded = set(rng.sample(items, min(len(items), rng.randint(0, 2)))) - required
            max_len = rng.choice([None, 2, 3])
            kwargs = dict(required=required, excluded=excluded, predicate=predicate, max_len=max_len)
            got = mine_constrained(db, 2, **kwargs)
            assert dict(got) == filtered_oracle(db, 2, **kwargs)
            assert [len(items) for items, _ in got] == sorted(len(items) for items, _ in got)

    def test_predicate_is_asked_only_above_passing_subsets(self):
        db = random_database(4500, max_items=8, max_transactions=30)
        calls = []

        def predicate(items):
            calls.append(items)
            return 0 not in items

        got = mine_constrained(db, 2, predicate=predicate)
        asked = list(calls)
        assert dict(got) == filtered_oracle(db, 2, predicate=predicate)
        # {0} fails, so no superset of it is ever asked
        assert (0,) in asked
        assert all(items == (0,) or 0 not in items for items in asked)
        assert len(asked) == len(set(asked))

    def test_empty_and_one_rank(self):
        assert mine_constrained([], 1, predicate=lambda s: True) == []
        assert mine_constrained([("a",)] * 3, 2, predicate=lambda s: True) == [(("a",), 3)]
