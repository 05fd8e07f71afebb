"""Unit tests for Algorithm 3 (conditional / pattern-growth mining)."""

import pytest

from repro.core.conditional import (
    conditional_database,
    mine_conditional,
    mine_conditional_block,
)
from repro.core.plt import PLT
from repro.core.position import encode
from repro.errors import BudgetExceeded, InvalidSupportError
from repro.robustness.governor import MiningBudget, ResourceGovernor
from tests.conftest import random_database


class TestConditionalDatabase:
    """Figure 5 behaviour; the golden values live in test_paper_example."""

    def test_top_rank_requires_no_prior_migration(self, paper_plt):
        cd, support, _ = conditional_database(paper_plt, 4)
        assert support == 4

    def test_missing_rank_gives_empty(self, paper_plt):
        cd, support, _ = conditional_database(paper_plt, 1)
        # rank 1 = A; all vectors containing A start with it, so after
        # migration the bucket at sum 1 holds A's prefix-vector mass
        assert support == 4
        assert cd == {}  # prefixes of (1,) are empty

    def test_rank_without_bucket(self):
        plt = PLT.from_transactions([("a", "c"), ("a", "c")], 1)
        # ranks: a=1, c=2; no vector sums to... both vectors are (1,1) sum 2
        cd, support, remaining = conditional_database(plt, 1)
        assert support == 2  # migrated prefix (1,) x2


class TestMineConditional:
    def test_empty_plt(self):
        plt = PLT.from_transactions([], 1)
        assert mine_conditional(plt, 1) == []

    def test_single_item_database(self):
        plt = PLT.from_transactions([("x",)] * 4, 2)
        assert mine_conditional(plt, 2) == [((1,), 4)]

    def test_default_support(self, paper_plt):
        assert sorted(mine_conditional(paper_plt)) == sorted(
            mine_conditional(paper_plt, 2)
        )

    def test_invalid_support(self, paper_plt):
        with pytest.raises(InvalidSupportError):
            mine_conditional(paper_plt, 0)
        with pytest.raises(InvalidSupportError):
            mine_conditional(paper_plt, 2, max_len=0)

    def test_max_len(self, paper_plt):
        pairs = mine_conditional(paper_plt, 2, max_len=2)
        assert max(len(r) for r, _ in pairs) == 2
        full = [p for p in mine_conditional(paper_plt, 2) if len(p[0]) <= 2]
        assert sorted(pairs) == sorted(full)

    def test_no_duplicate_itemsets(self, paper_plt):
        pairs = mine_conditional(paper_plt, 1)
        keys = [r for r, _ in pairs]
        assert len(keys) == len(set(keys))

    @staticmethod
    def _mine_rank(plt, rank):
        from repro.core.columns import RankColumns
        from repro.core.conditional import mine_conditional_flat_range

        pairs = RankColumns()
        mine_conditional_flat_range(plt.flat, rank, rank + 1, 2, pairs)
        return list(pairs)

    def test_rank_restriction_partitions_output(self, paper_plt):
        all_pairs = sorted(mine_conditional(paper_plt, 2))
        by_parts = []
        for rank in (4, 3, 2, 1):
            by_parts.extend(self._mine_rank(paper_plt, rank))
        assert sorted(by_parts) == all_pairs

    def test_rank_restriction_selects_by_max_item(self, paper_plt):
        pairs = self._mine_rank(paper_plt, 3)
        assert pairs and all(max(r) == 3 for r, _ in pairs)

    def test_long_single_path_with_max_len(self):
        # a 60-item transaction: recursion depth equals max_len, and the
        # pair level already has C(60, 2) itemsets — cap at 2 and verify
        db = [tuple(range(60))] * 2
        plt = PLT.from_transactions(db, 2)
        singles = mine_conditional(plt, 2, max_len=1)
        assert len(singles) == 60
        pairs = mine_conditional(plt, 2, max_len=2)
        assert len(pairs) == 60 + 60 * 59 // 2
        assert all(s == 2 for _, s in pairs)


class TestBlockEntry:
    """``mine_conditional_block`` mines a delta-keyed ``CD_rank`` and
    hands every pair to its callback, on a budget trip too."""

    @pytest.mark.parametrize("seed", range(5))
    def test_each_rank_matches_the_full_mine(self, seed):
        db = random_database(seed + 900, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        full = dict(mine_conditional(plt, 2))
        for rank in range(1, plt.max_rank() + 1):
            cd, _, _ = conditional_database(plt, rank)
            got = []
            mine_conditional_block(cd, rank, 2, lambda i, s: got.append((i, s)))
            want = {i: s for i, s in full.items() if i[-1] == rank and len(i) > 1}
            assert len(got) == len(want) and dict(got) == want

    def test_a_trip_reports_what_was_mined(self):
        db = [tuple(range(8))] * 3 + [tuple(range(0, 8, 2))] * 2
        plt = PLT.from_transactions(db, 2)
        top = plt.max_rank()
        cd, _, _ = conditional_database(plt, top)
        got = []
        with pytest.raises(BudgetExceeded):
            mine_conditional_block(
                cd, top, 2, lambda i, s: got.append((i, s)),
                governor=ResourceGovernor(MiningBudget(max_itemsets=10)),
            )
        full = dict(mine_conditional(plt, 2))
        assert 0 < len(got) <= 10 and all(full[i] == s for i, s in got)


class TestMigrationCorrectness:
    """Infrequent maximal items must still migrate their prefixes."""

    def test_infrequent_top_item_counts_flow_down(self):
        # z occurs once (infrequent at min_support 2) but its transaction
        # must still count towards {a, b}
        db = [("a", "b", "z"), ("a", "b")]
        plt = PLT.from_transactions(db, 1)  # keep z in the structure
        pairs = dict(mine_conditional(plt, 2))
        a, b = plt.rank_table.rank("a"), plt.rank_table.rank("b")
        assert pairs[(a, b)] == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce(self, seed):
        from repro.baselines.bruteforce import mine_bruteforce

        db = random_database(seed + 500, max_items=8, max_transactions=25)
        for min_support in (1, 2, 4):
            plt = PLT.from_transactions(db, min_support)
            got = {
                frozenset(plt.rank_table.decode_ranks(r)): s
                for r, s in mine_conditional(plt, min_support)
            }
            assert got == mine_bruteforce(db, min_support)
