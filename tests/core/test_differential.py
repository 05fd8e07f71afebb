"""Differential tests for the rank-path mining kernels.

The kernels (:func:`mine_conditional`, :func:`mine_topdown`) must be
itemset-for-itemset identical on arbitrary inputs to two independent
witnesses:

* each other (two different PLT algorithms over the same structure), and
* the FP-growth baseline, which shares no code with the PLT at all,
  across support levels and ``max_len`` caps.

Seeded random databases keep every failure reproducible; the edge cases
pin the two lattice extremes — no frequent items at all, and every item
frequent in every transaction (the full powerset).
"""

import pytest

from repro.baselines.fpgrowth import mine_fpgrowth
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.topdown import mine_topdown
from tests.conftest import random_database


def _as_item_dict(plt, pairs):
    """Decode (rank-tuple, support) pairs to {frozenset(items): support}."""
    table = plt.rank_table
    return {frozenset(table.decode_ranks(ranks)): sup for ranks, sup in pairs}


@pytest.mark.parametrize("seed", range(50))
def test_conditional_topdown_fpgrowth_agree(seed):
    db = random_database(seed + 7000, max_items=12, max_transactions=60)
    min_support = (seed % 4) + 1
    plt = PLT.from_transactions(db, min_support)

    cond = mine_conditional(plt, min_support)
    top = mine_topdown(plt, min_support, work_limit=None)
    assert sorted(cond) == sorted(top)

    assert _as_item_dict(plt, cond) == mine_fpgrowth(db, min_support)


def _assert_matches_fpgrowth(plt, pairs, expected):
    # the length check keeps duplicate emissions visible through the dict
    assert len(pairs) == len(expected)
    assert _as_item_dict(plt, pairs) == expected


@pytest.mark.parametrize("seed", range(20))
def test_both_kernels_match_fpgrowth_across_supports(seed):
    db = random_database(seed + 7100, max_items=11, max_transactions=50)
    for min_support in (1, 2, 4):
        plt = PLT.from_transactions(db, min_support)
        expected = mine_fpgrowth(db, min_support)
        _assert_matches_fpgrowth(plt, mine_conditional(plt, min_support), expected)
        _assert_matches_fpgrowth(
            plt, mine_topdown(plt, min_support, work_limit=None), expected
        )


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_max_len_matches_fpgrowth(seed, max_len):
    db = random_database(seed + 7200, max_items=10, max_transactions=45)
    plt = PLT.from_transactions(db, 2)
    expected = mine_fpgrowth(db, 2, max_len=max_len)
    _assert_matches_fpgrowth(plt, mine_conditional(plt, 2, max_len=max_len), expected)
    _assert_matches_fpgrowth(
        plt, mine_topdown(plt, 2, max_len=max_len, work_limit=None), expected
    )


def test_empty_frequent_set():
    # support threshold above the transaction count: nothing is frequent
    db = [frozenset({1, 2}), frozenset({2, 3})]
    plt = PLT.from_transactions(db, 5)
    assert mine_conditional(plt, 5) == []
    assert mine_topdown(plt, 5, work_limit=None) == []
    assert mine_fpgrowth(db, 5) == {}


def test_all_items_frequent_full_powerset():
    # every item in every transaction: the answer is the full powerset,
    # every subset at the same support — the densest possible lattice
    db = [frozenset({"a", "b", "c", "d", "e"})] * 6
    plt = PLT.from_transactions(db, 1)

    cond = mine_conditional(plt, 1)
    assert sorted(cond) == sorted(mine_topdown(plt, 1, work_limit=None))

    decoded = _as_item_dict(plt, cond)
    assert len(decoded) == 2**5 - 1
    assert set(decoded.values()) == {6}
    assert decoded == mine_fpgrowth(db, 1)


def test_emission_is_sorted_ascending():
    # the engine contract the parallel and out-of-core callers rely on:
    # itemsets arrive at emit already sorted, no per-emit re-sort needed
    db = random_database(7300, max_items=10, max_transactions=50)
    plt = PLT.from_transactions(db, 2)
    for itemset, _ in mine_conditional(plt, 2):
        assert list(itemset) == sorted(itemset)


@pytest.fixture
def wide_rank_sweep(monkeypatch):
    """Send mine_conditional down the bucket sweep it takes once the dense
    pair-support matrix would exceed its cap (1,414+ frequent ranks)."""
    import repro.core.conditional as cond

    monkeypatch.setattr(cond, "_PAIR_MATRIX_MAX_CELLS", 0)


@pytest.mark.parametrize("seed", range(20))
def test_wide_rank_sweep_matches_fpgrowth(seed, wide_rank_sweep):
    db = random_database(seed + 7100, max_items=11, max_transactions=50)
    for min_support in (1, 2, 4):
        plt = PLT.from_transactions(db, min_support)
        for max_len in (1, 2, 3, None):
            expected = mine_fpgrowth(db, min_support, max_len=max_len)
            _assert_matches_fpgrowth(
                plt, mine_conditional(plt, min_support, max_len=max_len), expected
            )


def test_wide_rank_sweep_governed_complete_region(wide_rank_sweep):
    # a budget trip on the sweep still marks a verified-complete region:
    # every itemset whose maximal rank is >= the marker was enumerated
    from repro.errors import MiningInterrupted
    from repro.robustness.governor import MiningBudget, ResourceGovernor

    db = random_database(7400, max_items=12, max_transactions=60)
    plt = PLT.from_transactions(db, 2)
    full = dict(mine_conditional(plt, 2))
    # the cap trips inside a lower rank's subtree, so the region is not empty
    governor = ResourceGovernor(MiningBudget(max_itemsets=4 * len(full) // 5))
    with pytest.raises(MiningInterrupted) as info:
        mine_conditional(plt, 2, governor=governor)
    marker = info.value.progress.get("complete_from_rank")
    assert marker is not None and marker <= plt.max_rank()
    mined = dict(info.value.partial)
    assert mined
    for ranks, support in mined.items():
        assert full[ranks] == support
    for ranks, support in full.items():
        if max(ranks) >= marker:
            assert mined.get(ranks) == support


@pytest.fixture(params=["recursion", "lattice"])
def leaf_branch(request, monkeypatch):
    """Force the lattice-leaf switch to one branch for every rank: a ratio
    of 0 sends every conditional database down the recursion, a huge one
    sends every rank whose locally frequent ranks fit the key to the
    subset lattice."""
    import repro.core.conditional as cond

    ratio = 0 if request.param == "recursion" else 1e30
    monkeypatch.setattr(cond, "_LATTICE_COST_RATIO", ratio)
    return request.param


@pytest.mark.parametrize("seed", range(20))
def test_leaf_branches_match_fpgrowth(seed, leaf_branch):
    db = random_database(seed + 7100, max_items=11, max_transactions=50)
    for min_support in (1, 2, 4):
        plt = PLT.from_transactions(db, min_support)
        for max_len in (1, 2, 3, None):
            expected = mine_fpgrowth(db, min_support, max_len=max_len)
            _assert_matches_fpgrowth(
                plt, mine_conditional(plt, min_support, max_len=max_len), expected
            )


def _wide_rank_database(seed):
    """Sparse noise plus a rank with more locally frequent ranks than the
    lattice key has bits.

    Ranks follow the labels' lexicographic order, so ``w`` is the top
    rank and every ``a..`` partner ranks below it.  ``w`` meets each of
    70 partners in two short rows ``{a_i, a_i+1, w}`` (each twice): at
    support 2 all 70 partners are locally frequent in ``CD_w``, at
    support 4 the inner 68, while every row holds only two of them.
    (Long transactions cannot show this under the forced lattice: every
    rank along a 70-item path whose prefix fits the key would ask for a
    lattice of up to 2^57 subsets.)
    """
    noise = [frozenset(f"n{i:02d}" for i in t) for t in random_database(seed, max_items=11)]
    wide = [frozenset({f"a{i:02d}", f"a{i + 1:02d}", "w"}) for i in range(69)] * 2
    return noise + wide


@pytest.mark.parametrize("seed", [7500, 7501])
def test_wide_rank_takes_the_recursion(seed, leaf_branch):
    from repro.perf.counters import collecting

    db = _wide_rank_database(seed)
    for min_support in (2, 4):
        plt = PLT.from_transactions(db, min_support)
        for max_len in (2, 3, None):
            with collecting() as counts:
                pairs = mine_conditional(plt, min_support, max_len=max_len)
            _assert_matches_fpgrowth(
                plt, pairs, mine_fpgrowth(db, min_support, max_len=max_len)
            )
            if max_len is None:
                # w's 68-70 partners never fit the key: it always recurses
                assert counts["cond_work_items_merged"] > 0
                if leaf_branch == "lattice":
                    assert counts["topdown_work_items"] > 0


def test_no_frequent_rank(leaf_branch):
    # every item is in the PLT, none reaches the mining threshold
    db = random_database(7600, max_items=9, max_transactions=30)
    plt = PLT.from_transactions(db, 1)
    assert mine_conditional(plt, len(db) + 1) == []
    assert mine_fpgrowth(db, len(db) + 1) == {}
