"""The tidset kernel in Algorithm 3's top level.

A top-level conditional database ``CD_j`` that the lattice rule rejects
is read off the pair codes and mined level by level on packed tidsets
(``_cd_rows``, ``_tidset_rows``, ``_tidset_mine``).  These tests pin its
answers against FP-growth, its chunking against an unchunked run, and
its budget trips (itemset cap, memory) against the partial-result
contract: exact supports, a prefix of the full run's pairs, and
``complete_from_rank`` just above the rank in flight.
"""

import random
import traceback

import pytest

import repro.core.conditional as cond
from repro.baselines.fpgrowth import mine_fpgrowth
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.errors import BudgetExceeded
from repro.robustness.governor import MiningBudget, ResourceGovernor
from tests.conftest import random_database


def _sparse(seed):
    return random_database(seed, max_items=16, max_transactions=60, min_transactions=30)


def _dense(seed):
    """Long rows over a narrow alphabet: most ranks' rows hold many
    locally frequent ranks, so the lattice rule rejects them."""
    rng = random.Random(seed)
    return [frozenset(rng.sample(range(14), rng.randint(8, 12))) for _ in range(50)]


def _tidset_ranks(plt, min_support, max_len=None):
    """The ranks ``mine_conditional`` sends to the tidset kernel."""
    seen = []
    mine = cond._tidset_mine

    def spy(*args, **kwargs):
        seen.append(args[5])
        return mine(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cond, "_tidset_mine", spy)
        mine_conditional(plt, min_support, max_len=max_len)
    return seen


def _decoded(plt, pairs):
    decode = plt.rank_table.decode_ranks
    return {frozenset(decode(ranks)): support for ranks, support in pairs}


@pytest.fixture(params=["natural", "forced"])
def branch(request, monkeypatch):
    """``natural`` keeps the lattice rule; ``forced`` (a ratio of 0) sends
    every rank with two or more locally frequent ranks to the tidsets."""
    if request.param == "forced":
        monkeypatch.setattr(cond, "_LATTICE_COST_RATIO", 0)
    return request.param


@pytest.mark.parametrize("max_len", [3, 4, None])
@pytest.mark.parametrize("seed", range(8))
def test_matches_fpgrowth(seed, max_len, branch):
    rng = random.Random(seed)
    cases = [(_sparse(seed + 8100), 3), (_dense(seed + 8200), 12)]
    # weighted: each transaction repeated by its weight for FP-growth
    weighted = [(t, rng.randint(1, 4)) for t in _sparse(seed + 8300)]
    expanded = [t for t, w in weighted for _ in range(w)]
    for db, min_support in cases:
        plt = PLT.from_transactions(db, min_support)
        got = mine_conditional(plt, min_support, max_len=max_len)
        assert _decoded(plt, got) == mine_fpgrowth(db, min_support, max_len=max_len)
    plt = PLT.from_weighted_transactions(weighted, 6)
    got = mine_conditional(plt, 6, max_len=max_len)
    assert _decoded(plt, got) == mine_fpgrowth(expanded, 6, max_len=max_len)


def test_both_inputs_reach_the_kernel():
    """The differential above is not vacuous: without forcing, the dense
    inputs send ranks to the tidset kernel, and deep levels come out."""
    for seed in range(8):
        plt = PLT.from_transactions(_dense(seed + 8200), 12)
        assert _tidset_ranks(plt, 12)
        assert max(len(ranks) for ranks, _ in mine_conditional(plt, 12)) >= 5


def test_frontier_spanning_many_chunks(monkeypatch):
    plt = PLT.from_transactions(_dense(8400), 18)
    full = mine_conditional(plt, 18)
    assert _tidset_ranks(plt, 18)
    lookups = []
    supports = cond._tid_supports

    def counting(masks, table):
        lookups.append(len(masks))
        return supports(masks, table)

    monkeypatch.setattr(cond, "_tid_supports", counting)
    unchunked = mine_conditional(plt, 18)
    calls = len(lookups)
    # a few cells per chunk: every level splits into many set and mask chunks
    monkeypatch.setattr(cond, "_CHUNK_SUBSETS", 16)
    chunked = mine_conditional(plt, 18)
    assert len(lookups) - calls > 10 * calls
    assert max(lookups[calls:]) <= 16
    assert chunked == unchunked == full


@pytest.fixture(scope="module")
def dense_plt():
    return PLT.from_transactions(_dense(8500), 12)


@pytest.fixture(scope="module")
def wide_plt():
    """1,500 distinct rows of 8-12 of 20 items: the top ranks' tidsets
    span 24 words, so a tidset level holds far more than the lattice."""
    rng = random.Random(8600)
    db = [frozenset(rng.sample(range(20), rng.randint(8, 12))) for _ in range(1500)]
    return PLT.from_transactions(db, 100)


def _check_partial(plt, full, exc, j):
    """``exc.partial`` is exact, a prefix of ``full``'s pairs, and holds
    every itemset above the rank ``j`` in flight."""
    partial = exc.partial
    assert partial == full[: len(partial)]
    assert exc.progress["complete_from_rank"] == j + 1
    mined = dict(partial)
    for itemset, support in full:
        if itemset[-1] > j:
            assert mined[itemset] == support


def test_cap_trip_inside_a_tidset_rank(dense_plt):
    ranks = set(_tidset_ranks(dense_plt, 12))
    full = list(mine_conditional(dense_plt, 12))
    deep = [
        i for i, (itemset, _) in enumerate(full)
        if len(itemset) >= 4 and itemset[-1] in ranks
    ]
    # the first level-3 row of a tidset rank, and one deep inside a level
    for idx in (deep[0], deep[len(deep) // 2]):
        governor = ResourceGovernor(MiningBudget(max_itemsets=idx))
        with pytest.raises(BudgetExceeded) as info:
            mine_conditional(dense_plt, 12, governor=governor)
        exc = info.value
        assert exc.reason == "max_itemsets"
        assert exc.partial == full[:idx]
        _check_partial(dense_plt, full, exc, full[idx][0][-1])


def test_memory_trip_inside_a_tidset_rank(wide_plt):
    """The tidsets, their byte table and the candidate masks are NumPy
    buffers the allocator sample does not see; the kernel declares them,
    so a memory budget between what the earlier phases hold and what a
    tidset level holds trips inside the level.  Every figure declared
    also counts the pair codes, which live until the last level: the
    budget trips only with them counted."""
    holds, codes = [], []

    class Recording(ResourceGovernor):
        def hold(self, nbytes):
            holds.append((nbytes, in_tidset))
            super().hold(nbytes)

    in_tidset = False
    build, mine = cond._pair_codes, cond._tidset_mine

    def recorded(*args):
        column, blocks = build(*args)
        codes.append(column.nbytes)
        return column, blocks

    def flagged(*args, **kwargs):
        nonlocal in_tidset
        in_tidset = True
        return mine(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cond, "_pair_codes", recorded)
        mp.setattr(cond, "_tidset_mine", flagged)
        mine_conditional(wide_plt, 100, governor=Recording())
    before = max(nbytes for nbytes, tidset in holds if not tidset)
    during = max(nbytes for nbytes, tidset in holds if tidset)
    # room on both sides for the allocator sample's share of the estimate
    assert during > before + (1 << 18)
    budget = (before + during) // 2
    assert during - codes[0] + (1 << 18) < budget
    full = list(mine_conditional(wide_plt, 100))
    governor = ResourceGovernor(MiningBudget(memory_budget=budget, check_interval=1))
    with pytest.raises(BudgetExceeded) as info:
        mine_conditional(wide_plt, 100, governor=governor)
    exc = info.value
    assert exc.reason == "memory"
    frames = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
    assert "_tidset_level" in frames
    _check_partial(wide_plt, full, exc, governor.progress["mining_rank"])


def test_parallel_workers_match_serial(dense_plt):
    from repro.parallel import mine_parallel

    serial = mine_conditional(dense_plt, 12)
    assert sorted(mine_parallel(dense_plt, 12, n_workers=2)) == sorted(serial)
    capped = mine_conditional(dense_plt, 12, max_len=4)
    assert sorted(mine_parallel(dense_plt, 12, n_workers=2, max_len=4)) == sorted(capped)


@pytest.mark.parametrize("words", [1, 3, 40])
def test_byte_table_matches_the_bit_matrix_product(words):
    """The doubling table equals the 8 x 256 bit-matrix product per byte,
    and the support lookup equals summing each mask's rows directly, in
    exact int64 with weights near ``2**62`` (all of them together stay
    below ``2**63``, as the kernel's row frequencies do)."""
    import numpy as np

    rng = np.random.default_rng(words)
    weights = rng.integers(0, 2**40, 64 * words, dtype=np.int64)
    # two heavy rows in one byte, a third in the last byte
    weights[[1, 6, 64 * words - 1]] = [2**62 - 12345, 2**61 + 678, 2**60 - 9]
    bits = (np.arange(256) >> np.arange(8)[:, None]) & 1
    table = cond._byte_table(weights)
    assert table.dtype == np.int64
    assert (table == (weights.reshape(-1, 8) @ bits).T).all()
    masks = rng.integers(0, 2**63, (50, words), dtype=np.int64).view(np.uint64)
    masks[0] = ~np.uint64(0)
    exact = [
        sum(int(w) for r, w in enumerate(weights.tolist()) if int(mask[r // 64]) >> (r % 64) & 1)
        for mask in masks
    ]
    assert cond._tid_supports(masks, table).tolist() == exact
