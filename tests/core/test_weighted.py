"""Unit tests for weighted-transaction PLT construction."""

import pytest

from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.errors import InvalidSupportError
from tests.conftest import random_database


class TestWeighted:
    def test_equals_expanded_multiset(self):
        pairs = [({"a", "b"}, 3), ({"a"}, 2), ({"b", "c"}, 1)]
        weighted = PLT.from_weighted_transactions(pairs, 2)
        expanded = PLT.from_transactions(
            [t for t, w in pairs for _ in range(w)], 2
        )
        assert weighted == expanded

    @pytest.mark.parametrize("seed", range(6))
    def test_random_equivalence(self, seed):
        import random

        rng = random.Random(seed + 3100)
        db = random_database(seed + 3100, max_items=7, max_transactions=15)
        pairs = [(t, rng.randint(1, 8)) for t in db]
        for min_support in (1, 3, 6):
            weighted = PLT.from_weighted_transactions(pairs, min_support)
            expanded = PLT.from_transactions(
                [t for t, w in pairs for _ in range(w)], min_support
            )
            assert weighted == expanded
            assert sorted(mine_conditional(weighted, min_support)) == sorted(
                mine_conditional(expanded, min_support)
            )

    def test_n_transactions_is_total_weight(self):
        plt = PLT.from_weighted_transactions([({"x"}, 10), ({"y"}, 5)], 1)
        assert plt.n_transactions == 15

    def test_relative_support_in_weight_units(self):
        plt = PLT.from_weighted_transactions([({"x"}, 9), ({"y"}, 1)], 0.5)
        assert plt.min_support == 5
        assert "x" in plt.rank_table
        assert "y" not in plt.rank_table  # weight 1 < 5

    def test_huge_weights_stay_cheap(self):
        plt = PLT.from_weighted_transactions([({"a", "b"}, 10**9)], 1)
        assert plt.n_vectors() == 1
        assert plt.item_support("a") == 10**9

    def test_invalid_weight(self):
        with pytest.raises(InvalidSupportError):
            PLT.from_weighted_transactions([({"a"}, 0)], 1)
        with pytest.raises(InvalidSupportError):
            PLT.from_weighted_transactions([({"a"}, -3)], 1)

    def test_empty_input(self):
        plt = PLT.from_weighted_transactions([], 1)
        assert plt.n_vectors() == 0

    def test_duplicate_transactions_merge_weights(self):
        plt = PLT.from_weighted_transactions([({"a"}, 2), ({"a"}, 3)], 1)
        assert plt.partition(1) == {(1,): 5}


def _weighted_fpgrowth(pairs, min_support):
    """FP-growth over weighted transactions: each path inserted once with
    its weight, so every count is a Python int."""
    from collections import Counter

    from repro.baselines.fpgrowth import fpgrowth_from_tree
    from repro.baselines.fptree import FPTree

    supports = Counter()
    for t, w in pairs:
        for item in t:
            supports[item] += w
    frequent = [i for i, s in supports.items() if s >= min_support]
    frequent.sort(key=lambda i: (-supports[i], i))
    order = {item: rank for rank, item in enumerate(frequent)}
    tree = FPTree(order, min_support)
    for t, w in pairs:
        path = sorted((i for i in t if i in order), key=order.__getitem__)
        if path:
            tree.insert(path, w)
    return fpgrowth_from_tree(tree, min_support)


class TestExactSupports:
    """Supports in weight units stay exact to the last unit up to 2**63."""

    @staticmethod
    def _mined(plt, pairs):
        decode = plt.rank_table.decode_ranks
        return {frozenset(decode(ranks)): sup for ranks, sup in pairs}

    @pytest.mark.parametrize("ratio", [0, 30, 1e30])
    def test_float_edge_matches_topdown_and_fpgrowth(self, ratio, monkeypatch):
        # a ratio of 0 sends every rank to the tidset kernel, 1e30 to the
        # lattice leaves; 30 is the rule itself
        import repro.core.conditional as cond
        from repro.core.topdown import mine_topdown

        monkeypatch.setattr(cond, "_LATTICE_COST_RATIO", ratio)
        edge = 2**53
        pairs = [
            ({"a", "b", "c", "d"}, edge + 1),
            ({"a", "b", "c"}, edge + 1),
            ({"a", "b"}, 1),
            ({"c"}, 2),
            ({"b", "c", "d"}, 3),
        ]
        plt = PLT.from_weighted_transactions(pairs, 1)
        want = _weighted_fpgrowth(pairs, 1)
        assert want[frozenset("c")] == 2 * edge + 7
        assert want[frozenset("abc")] == 2 * edge + 2
        assert self._mined(plt, mine_conditional(plt, 1)) == want
        assert self._mined(plt, mine_topdown(plt, 1)) == want
        # at a threshold one unit above a support, that itemset drops out
        high = edge + 4
        assert self._mined(plt, mine_conditional(plt, high)) == {
            items: sup for items, sup in want.items() if sup >= high
        }

    def test_item_total_of_2_63_raises(self):
        with pytest.raises(InvalidSupportError, match="2\\*\\*63"):
            PLT.from_weighted_transactions([({"a", "b"}, 2**62), ({"a"}, 2**62)], 1)

    def test_supports_up_to_int64_max(self):
        from repro.compress.index import ItemIndex
        from repro.core.topdown import mine_topdown

        pairs = [({"a", "b"}, 2**62), ({"b", "c"}, 2**62 - 1), ({"a", "c"}, 2**61)]
        plt = PLT.from_weighted_transactions(pairs, 2**61)
        # the weights total past 2**63; every support still fits
        assert plt.n_transactions == 2**63 + 2**61 - 1
        assert plt.item_support("b") == 2**63 - 1
        assert plt.flat.rank_supports()[1:] == [2**62 + 2**61, 2**63 - 1, 2**62 + 2**61 - 1]
        index = ItemIndex(plt.flat)
        assert index.rank_support(2) == 2**63 - 1
        assert index.support([]) == 2**63 + 2**61 - 1
        assert index.conditional_paths(3, 2**61) == {(1,): 2**61, (2,): 2**62 - 1}
        want = _weighted_fpgrowth(pairs, 2**61)
        assert self._mined(plt, mine_conditional(plt)) == want
        assert self._mined(plt, mine_topdown(plt)) == want
