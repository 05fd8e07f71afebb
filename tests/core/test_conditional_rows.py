"""Differential tests for the rows-in entry of Algorithm 3 and for rank strips.

Every conditional database that arrives on its own — a served ``topk``
miss, a distributed block, a store bucket, a parallel task — is mined by
:func:`~repro.core.conditional.mine_conditional_rows`; a rank space too
wide for the dense pair matrix is mined in rank strips.  Both are pinned
here against FP-growth, which shares no code with the PLT.
"""

import numpy as np
import pytest

import repro.core.conditional as cond
from repro.baselines.fpgrowth import mine_fpgrowth
from repro.compress.index import ItemIndex
from repro.core.columns import RankColumns
from repro.core.conditional import (
    conditional_database,
    mine_conditional,
    mine_conditional_block,
    mine_conditional_flat_range,
    mine_conditional_paths,
    mine_conditional_rows,
    salvage,
)
from repro.core.plt import PLT
from repro.errors import BudgetExceeded
from repro.parallel import mine_parallel
from repro.perf.counters import collecting
from repro.robustness.governor import MiningBudget, ResourceGovernor
from tests.conftest import random_database


def _decoded(plt, pairs):
    """``(rank tuple, support)`` pairs as ``{frozenset(items): support}``;
    every rank tuple must be ascending and appear once."""
    pairs = list(pairs)
    assert all(list(ranks) == sorted(set(ranks)) for ranks, _ in pairs)
    decoded = {frozenset(plt.rank_table.decode_ranks(ranks)): s for ranks, s in pairs}
    assert len(decoded) == len(pairs)
    return decoded


def _containing(expected, item):
    """The FP-growth itemsets of two or more items that hold ``item``."""
    return {items: s for items, s in expected.items() if item in items and len(items) > 1}


def _rows(paths):
    """``(rows, ranks, freqs)`` arrays for a list of ``(path, freq)``."""
    rows = np.repeat(np.arange(len(paths)), [len(path) for path, _ in paths])
    ranks = np.array([r for path, _ in paths for r in path], np.int64)
    return rows, ranks, np.array([freq for _, freq in paths], np.int64)


class TestRowsEntry:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_served_rank_matches_fpgrowth(self, seed):
        # the served gather holds ranks above and below the mined rank,
        # with one row per stored path (no aggregation, no projection)
        db = random_database(seed + 9100, max_items=11, max_transactions=60)
        for min_support in (1, 2, 4):
            plt = PLT.from_transactions(db, min_support)
            index = ItemIndex(plt.flat)
            for max_len in (2, 3, None):
                expected = mine_fpgrowth(db, min_support, max_len=max_len)
                for rank in range(1, plt.max_rank() + 1):
                    out = RankColumns()
                    rows, ranks, freqs = index.conditional_paths(rank)
                    mine_conditional_rows(rows, ranks, freqs, rank, min_support, out, max_len)
                    item = plt.rank_table.decode_ranks([rank])[0]
                    assert _decoded(plt, out) == _containing(expected, item)

    def test_duplicate_rows_count_as_their_sum(self):
        # three rows (1, 2, 4) and two (2, 3) around rank 3: {1, 2, 3} and
        # {1, 2, 3, 4} need the duplicates summed to reach support 3
        paths = [((1, 2, 4), 1)] * 3 + [((2, 4), 1), ((2, 4), 1), ((1,), 1)]
        out = RankColumns()
        mine_conditional_rows(*_rows(paths), 3, 3, out)
        assert dict(out) == {
            (1, 3): 4, (2, 3): 5, (3, 4): 5,
            (1, 2, 3): 3, (1, 3, 4): 3, (2, 3, 4): 5, (1, 2, 3, 4): 3,
        }

    def test_empty_and_one_rank_databases(self):
        out = RankColumns()
        mine_conditional_rows(*_rows([]), 4, 1, out)
        assert len(out) == 0
        # a one-rank CD: the pair only, whichever side of the rank it is
        for other in (2, 6):
            out = RankColumns()
            mine_conditional_rows(*_rows([((other,), 3), ((other,), 2)]), 4, 5, out)
            assert list(out) == [(tuple(sorted((other, 4))), 5)]
        out = RankColumns()
        mine_conditional_rows(*_rows([((2,), 3)]), 4, 5, out)
        assert len(out) == 0

    def test_work_items_are_the_rows_kept(self):
        paths = [((1, 2), 2), ((1, 2), 2), ((1,), 5), ((5, 6), 1)]
        with collecting() as counts:
            mine_conditional_rows(*_rows(paths), 3, 2, RankColumns())
        # (1,) holds one locally frequent rank and (5, 6) none
        assert counts["cond_work_items_merged"] == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_block_with_ranks_above_the_rank(self, seed):
        # perfbench's serve trace: delta vectors of every stored path
        # through the rank, less the rank, so ranks above it remain
        from repro.core import position

        db = random_database(seed + 9200, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        expected = mine_fpgrowth(db, 2)
        index = ItemIndex(plt.flat)
        for rank in range(1, plt.max_rank() + 1):
            prefixes = {}
            for path, freq in index.paths_containing(rank):
                if len(path) > 1:
                    vec = position.encode(tuple(r for r in path if r != rank))
                    prefixes[vec] = prefixes.get(vec, 0) + freq
            got = []
            mine_conditional_block(prefixes, rank, 2, lambda i, s: got.append((i, s)))
            item = plt.rank_table.decode_ranks([rank])[0]
            assert _decoded(plt, got) == _containing(expected, item)


class TestCappedPartials:
    @pytest.mark.parametrize("cap", [1, 3, 7, 20])
    def test_a_trip_keeps_at_most_the_cap(self, cap):
        db = [tuple(range(8))] * 3 + [tuple(range(0, 8, 2))] * 2
        plt = PLT.from_transactions(db, 2)
        full = dict(mine_conditional(plt, 2))
        top = plt.max_rank()
        governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
        cd, support, _ = conditional_database(plt, top)
        out = RankColumns([(np.array([[top]]), np.array([support]))])
        governor.note_itemsets()
        paths = {tuple(np.cumsum(vec).tolist()): freq for vec, freq in cd.items()}
        with pytest.raises(BudgetExceeded) as info:
            mine_conditional_paths(paths, top, 2, out, governor=governor)
        partial = salvage(info.value, out, governor)
        assert 0 < len(partial) <= cap
        assert all(full[itemset] == s for itemset, s in partial)


@pytest.fixture
def strips_of(monkeypatch):
    """Mine ``plt`` in strips of ``height`` ranks: the pair-matrix cap is
    set to ``height`` rows of the PLT's rank width."""

    def set_height(plt, height):
        width = plt.max_rank() + 1
        monkeypatch.setattr(cond, "_PAIR_MATRIX_MAX_CELLS", height * width)
        return width

    return set_height


class TestRankStrips:
    @pytest.mark.parametrize("seed", range(10))
    def test_serial_and_parallel_match_fpgrowth(self, seed, strips_of):
        # most of these rank spaces (5, 7 or 8 ranks) end in a short strip
        db = random_database(seed + 9300, max_items=13, max_transactions=60)
        for min_support in (1, 2, 4):
            plt = PLT.from_transactions(db, min_support)
            strips_of(plt, 3)
            for max_len in (2, 3, None):
                expected = mine_fpgrowth(db, min_support, max_len=max_len)
                serial = mine_conditional(plt, min_support, max_len=max_len)
                assert _decoded(plt, serial) == expected
            expected = mine_fpgrowth(db, min_support)
            assert _decoded(plt, mine_parallel(plt, min_support, n_workers=2)) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_ranges_that_cut_through_a_strip(self, seed, strips_of):
        # a shm worker's range starts its strips at its own top, so a
        # boundary off the serial run's strip grid cuts a serial strip
        db = random_database(seed + 9400, max_items=14, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        width = strips_of(plt, 3)
        expected = mine_fpgrowth(db, 2)
        for cut in range(2, width - 1):
            if (width - cut) % 3 == 0:
                continue
            parts = []
            for lo, hi in ((1, cut), (cut, width)):
                part = RankColumns()
                mine_conditional_flat_range(flat, lo, hi, 2, part)
                assert all(lo <= ranks[-1] < hi for ranks, _ in part)
                parts += part
            assert _decoded(plt, parts) == expected

    def test_a_governed_trip_in_a_lower_strip(self, strips_of):
        from repro.errors import MiningInterrupted

        db = random_database(9500, max_items=14, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        full = dict(mine_conditional(plt, 2))
        strips_of(plt, 2)
        governor = ResourceGovernor(MiningBudget(max_itemsets=4 * len(full) // 5))
        with pytest.raises(MiningInterrupted) as info:
            mine_conditional(plt, 2, governor=governor)
        marker = info.value.progress["complete_from_rank"]
        partial = dict(info.value.partial)
        assert partial and len(info.value.partial) <= 4 * len(full) // 5
        assert all(full[ranks] == s for ranks, s in partial.items())
        assert all(partial[r] == s for r, s in full.items() if max(r) >= marker)


def test_quest_above_the_matrix_cap(monkeypatch):
    # 2,131 frequent ranks: the whole pair matrix (4.5M cells) exceeds the
    # cap, so the rank space is mined in three strips, the last one short
    from repro.data.quest import generate_quest

    db = generate_quest(n_transactions=6000, n_items=3000, n_patterns=2000, seed=1)
    plt = PLT.from_transactions(db, 4)
    width = plt.max_rank() + 1
    assert width * width > cond._PAIR_MATRIX_MAX_CELLS
    assert (width - 1) % (cond._PAIR_MATRIX_MAX_CELLS // width)
    strips = mine_conditional(plt, 4)
    monkeypatch.setattr(cond, "_PAIR_MATRIX_MAX_CELLS", width * width)
    assert strips == mine_conditional(plt, 4).pairs()
    assert len(strips) == 52102
