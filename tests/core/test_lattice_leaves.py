"""Lattice leaves in Algorithm 3's top level: counters and budget trips.

A top-level conditional database ``CD_j`` whose distinct rows' subsets
are few enough is enumerated by the top-down subset kernel instead of
the recursion.  These tests pin the switch rule against a brute-force
recount, and check that budget trips inside the lattice phase and inside
a lattice rank's emission leave exact partials and a valid
``complete_from_rank``.
"""

import time
import traceback
from collections import Counter
from itertools import combinations

import pytest

import repro.core.conditional as cond
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.errors import BudgetExceeded
from repro.perf.counters import collecting
from repro.robustness.governor import MiningBudget, ResourceGovernor
from tests.conftest import random_database

SUPPORT = 3


@pytest.fixture(scope="module")
def plt():
    # dense enough that the lowest ranks take the lattice and the top
    # ranks (longer rows) the recursion
    db = random_database(7705, max_items=14, max_transactions=80, min_transactions=60)
    return PLT.from_transactions(db, SUPPORT)


def _brute_lattice(plt, min_support):
    """The lattice ranks and ``sum(2^K - 1)`` over their distinct rows,
    recounted from the stored paths with plain sets."""
    paths = list(plt.iter_rank_paths())
    top = plt.max_rank()
    key_bits = 64 - top.bit_length()
    single, pair = Counter(), Counter()
    for path, freq in paths:
        for r in path:
            single[r] += freq
        for k, j in combinations(path, 2):
            pair[k, j] += freq
    ranks, work = set(), 0
    for j in range(1, top + 1):
        if single[j] < min_support:
            continue
        local = {k for k in range(1, j) if pair[k, j] >= min_support}
        if not 2 <= len(local) <= key_bits:
            continue
        # CD_j's rows projected on its locally frequent ranks; identical
        # projections collapse, and rows of fewer than two ranks carry
        # nothing beyond the pair supports
        rows = {frozenset(r for r in path if r in local) for path, _ in paths if j in path}
        sizes = [len(row) for row in rows if len(row) >= 2]
        subsets = sum(2**k - 1 for k in sizes)
        if sizes and subsets <= cond._LATTICE_COST_RATIO * sum(sizes):
            ranks.add(j)
            work += subsets
    return ranks, work


def test_topdown_work_items_count_the_lattice_rows(plt):
    ranks, work = _brute_lattice(plt, SUPPORT)
    # both branches run on this input
    assert ranks and max(ranks) < plt.max_rank()
    with collecting() as counts:
        mine_conditional(plt, SUPPORT)
    assert counts["topdown_work_items"] == work
    assert counts["cond_work_items_merged"] > 0


def test_cap_trip_inside_a_lattice_rank(plt):
    ranks, _ = _brute_lattice(plt, SUPPORT)
    order = mine_conditional(plt, SUPPORT)
    # the first itemset beyond a pair that a lattice rank emits
    idx = next(
        i for i, (itemset, _) in enumerate(order)
        if len(itemset) >= 3 and itemset[-1] in ranks
    )
    governor = ResourceGovernor(MiningBudget(max_itemsets=idx))
    with pytest.raises(BudgetExceeded) as info:
        mine_conditional(plt, SUPPORT, governor=governor)
    exc = info.value
    assert exc.reason == "max_itemsets"
    assert exc.partial == order[:idx]
    j = order[idx][0][-1]
    assert exc.progress["complete_from_rank"] == j + 1
    mined = dict(exc.partial)
    for itemset, support in order:
        if itemset[-1] > j:
            assert mined[itemset] == support


def test_deadline_trip_inside_the_lattice_phase(plt, monkeypatch):
    expand = cond._expand

    def slow_expand(*args, **kwargs):
        time.sleep(0.6)
        return expand(*args, **kwargs)

    monkeypatch.setattr(cond, "_expand", slow_expand)
    governor = ResourceGovernor(MiningBudget(deadline=0.5, check_interval=1))
    with pytest.raises(BudgetExceeded) as info:
        mine_conditional(plt, SUPPORT, governor=governor)
    exc = info.value
    assert exc.reason == "deadline"
    assert any(frame.name == "_expand" for frame in traceback.extract_tb(exc.__traceback__))
    # the lattice runs before any rank is emitted: nothing is complete yet
    assert exc.partial == []
    assert exc.progress["complete_from_rank"] == plt.max_rank() + 1


def test_record_layout_leaves_match_packed(plt):
    # a weight of 2^48 per transaction leaves no room below the leaf keys
    # for the count bits, so the leaves take the record layout; the
    # weighted database's items are the original ranks
    weight = 1 << 48
    paths = list(plt.iter_rank_paths())
    weighted = PLT.from_weighted_transactions(
        [(path, freq * weight) for path, freq in paths], SUPPORT * weight
    )
    seen = []
    lattice = cond._Lattice

    def spy(*args):
        seen.append(lattice(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cond, "_Lattice", spy)
        got = mine_conditional(weighted, SUPPORT * weight)
    # the distinct rows' table and the chosen ranks' lattice
    assert len(seen) == 2 and not any(table.packed for table in seen)
    decode = weighted.rank_table.decode_ranks
    want = mine_conditional(plt, SUPPORT)
    assert {frozenset(decode(ranks)): sup for ranks, sup in got} == {
        frozenset(ranks): sup * weight for ranks, sup in want
    }
