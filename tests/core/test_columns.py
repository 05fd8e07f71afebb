"""``RankColumns.cut`` and the one shape every budget trip's partial takes.

A governed run keeps the itemsets at or above the rank in flight, at most
``max_itemsets`` of them, in :meth:`RankColumns.pairs` order.  The cut is
pinned here against a plain-list reference of that rule, and every trip
path (serial, top-down, in-process and pool parallel, a shared-memory
range worker, the out-of-core store, a served ``topk`` miss) is checked
to hand back a :class:`RankColumns` cut from the kernel's blocks, with no
row built per itemset between the trip and the facade.
"""

import random

import numpy as np
import pytest

import repro.parallel.shm as shm
import repro.serve.engine as engine_module
from repro.compress.store import PLTStore
from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.topdown import mine_topdown
from repro.data.quest import generate_quest
from repro.errors import MiningInterrupted
from repro.parallel import mine_parallel
from repro.robustness.governor import CancellationToken, MiningBudget, ResourceGovernor
from repro.serve.engine import PatternEngine, ServingIndex

SUPPORT = 5


def _random_columns(seed):
    """Blocks of random lengths and maximal ranks, plus a few one-row
    blocks (a served item's single is one)."""
    rng = np.random.default_rng(seed)
    cols = RankColumns()
    for _ in range(rng.integers(0, 6)):
        length = int(rng.integers(1, 5))
        n = int(rng.integers(0, 30))
        ranks = np.sort(rng.choice(np.arange(1, 40), (n, length)), axis=1)
        cols.add(ranks.astype(np.int64), rng.integers(1, 100, n, dtype=np.int64))
    for _ in range(rng.integers(0, 8)):
        length = int(rng.integers(1, 5))
        itemset = np.sort(rng.choice(np.arange(1, 40), (1, length), replace=False), axis=1)
        cols.add(itemset.astype(np.int64), rng.integers(1, 100, 1, dtype=np.int64))
    return cols


def _reference(cols, low):
    """What a trip kept before the cut existed: every itemset as a pair
    (blocks in order), maximal rank descending (stable), those below
    ``low`` dropped."""
    pairs = [
        (tuple(row), support)
        for ranks, supports in cols.blocks
        for row, support in zip(ranks.tolist(), supports.tolist())
    ]
    return sorted((p for p in pairs if p[0][-1] >= low), key=lambda p: -p[0][-1])


def _is_cut_of(part, whole):
    """``part``'s blocks are row subsets of ``whole``'s blocks, in order:
    nothing was rebuilt."""
    sources = iter(whole.blocks)
    for ranks, supports in part.blocks:
        for source_ranks, source_supports in sources:
            rows = {(tuple(r), s) for r, s in zip(source_ranks.tolist(), source_supports.tolist())}
            if ranks.shape[1] == source_ranks.shape[1] and all(
                (tuple(r), s) in rows for r, s in zip(ranks.tolist(), supports.tolist())
            ):
                break
        else:
            return False
    return True


class TestCut:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_sorted_list_cut(self, seed):
        cols = _random_columns(seed)
        total = len(cols)
        assert cols.pairs() == _reference(cols, 0)
        tops = sorted(cols.tops().tolist())
        middle = tops[len(tops) // 2] if tops else 20
        for low in (0, 1, middle, 41):
            reference = _reference(cols, low)
            for n in (0, 1, total // 2, total, total + 3, None):
                cut = cols.cut(low, n)
                assert cut.pairs() == reference[:n]
                assert len(cut) == len(reference[:n])
                assert _is_cut_of(cut, cols)

    def test_tops_follow_blocks_then_rows(self):
        cols = RankColumns([(np.array([[1, 4], [2, 3]]), np.array([5, 6]))])
        cols.add(np.array([[7]]), np.array([2]))
        assert cols.tops().tolist() == [4, 3, 7]
        assert RankColumns().tops().tolist() == []

    def test_empty_and_whole(self):
        assert RankColumns().cut(3, 2) == []
        cols = _random_columns(3)
        assert cols.cut() == cols.pairs()
        # blocks kept whole are shared, not copied
        whole = cols.cut()
        assert all(a is b for (a, _), (b, _) in zip(whole.blocks, cols.blocks))


class _CancelAfter(CancellationToken):
    """A token that cancels itself on its ``polls + 1``-th poll."""

    def __init__(self, polls: int) -> None:
        super().__init__()
        self.polls = polls

    @property
    def cancelled(self) -> bool:
        self.polls -= 1
        if self.polls < 0:
            self.cancel("tripped")
        return super().cancelled


@pytest.fixture(scope="module")
def quest():
    db = generate_quest(n_transactions=300, n_items=40, avg_transaction_len=8, seed=3)
    return db, PLT.from_transactions(db, SUPPORT)


def _caps(n):
    return sorted({1, 2, 7, n // 10, n // 3, n // 2, n - 1})


def _trip(miner, *args, **kwargs):
    with pytest.raises(MiningInterrupted) as info:
        miner(*args, **kwargs)
    return info.value


def _check_partial(exc, full):
    """A cut of int64 blocks whose pairs are exact."""
    partial = exc.partial
    assert isinstance(partial, RankColumns)
    assert all(isinstance(ranks, np.ndarray) for ranks, _ in partial.blocks)
    supports = dict(full)
    assert all(supports[itemset] == support for itemset, support in partial)


def _record_salvage(monkeypatch, module):
    """Wrap ``module.salvage``; the list it returns collects one
    ``(out, cut)`` per call."""
    cuts = []
    salvage = module.salvage

    def spy(exc, out, governor):
        cuts.append((out, salvage(exc, out, governor)))
        return cuts[-1][1]

    monkeypatch.setattr(module, "salvage", spy)
    return cuts


class TestEveryTripPath:
    def test_serial(self, quest):
        _, plt = quest
        full = mine_conditional(plt, SUPPORT)
        pairs = full.pairs()
        for cap in _caps(len(full)):
            governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
            exc = _trip(mine_conditional, plt, SUPPORT, governor=governor)
            _check_partial(exc, full)
            assert exc.partial.pairs() == pairs[:cap]

    def test_topdown_sweep_and_cap(self, quest, monkeypatch):
        import repro.core.lattice as lattice

        _, plt = quest
        full = mine_topdown(plt, SUPPORT)
        for cap in _caps(len(full)):
            governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
            exc = _trip(mine_topdown, plt, SUPPORT, governor=governor)
            _check_partial(exc, full)
            assert exc.partial.pairs() == full.pairs()[:cap]
        monkeypatch.setattr(lattice, "_CHUNK_SUBSETS", 1)
        for polls in (0, 40, 120):
            governor = ResourceGovernor(
                MiningBudget(check_interval=1), cancel=_CancelAfter(polls)
            )
            exc = _trip(mine_topdown, plt, SUPPORT, governor=governor)
            _check_partial(exc, full)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_parallel(self, quest, n_workers):
        _, plt = quest
        full = mine_conditional(plt, SUPPORT)
        for cap in _caps(len(full)):
            governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
            exc = _trip(mine_parallel, plt, SUPPORT, n_workers=n_workers, governor=governor)
            _check_partial(exc, full)
            assert len(exc.partial) <= cap
            assert "tripped_s" in governor.progress

    def test_shm_range_worker(self, quest, monkeypatch):
        _, plt = quest
        full = mine_conditional(plt, SUPPORT)
        cuts = _record_salvage(monkeypatch, shm)
        executor = shm.SharedMemoryExecutor(plt.flat)
        try:
            lo, hi = 1, plt.max_rank() + 1
            status, blocks, reason, _ = shm._shm_cond_range(
                (executor.meta, lo, hi, SUPPORT, None, MiningBudget(max_itemsets=50))
            )
        finally:
            executor.close()
        assert (status, reason) == ("partial", "max_itemsets")
        (out, cut), = cuts
        assert isinstance(cut, RankColumns)
        assert _is_cut_of(cut, out)
        assert sum(len(supports) for _, supports in blocks) == len(cut) == 50
        assert cut.pairs() == full.pairs()[:50]

    def test_store_partials_are_prefixes(self, quest, tmp_path):
        _, plt = quest
        path = PLTStore.write(plt, tmp_path / "q.plts")
        with PLTStore(path) as store:
            full = store.mine(SUPPORT)
            assert isinstance(full, RankColumns)
            pairs = full.pairs()
            assert sorted(pairs) == sorted(mine_conditional(plt, SUPPORT))
            governors = [ResourceGovernor(MiningBudget(max_itemsets=cap)) for cap in _caps(len(pairs))]
            governors += [
                ResourceGovernor(MiningBudget(check_interval=1), cancel=_CancelAfter(polls))
                for polls in (0, 5, 30, 90, 200)
            ]
            for governor in governors:
                exc = _trip(store.mine, SUPPORT, governor=governor)
                _check_partial(exc, full)
                # each rank's single is a block ahead of its other blocks
                assert exc.partial.pairs() == pairs[: len(exc.partial)]
                marker = exc.progress["complete_from_rank"]
                assert {p for p in pairs if p[0][-1] >= marker} <= set(exc.partial.pairs())

    def test_serve_topk_miss(self, quest, monkeypatch):
        db, _ = quest
        cuts = _record_salvage(monkeypatch, engine_module)
        engine = PatternEngine(ServingIndex.from_transactions(db, SUPPORT))
        item = random.Random(1).choice(sorted(engine.index.rank_table.items()))
        env = engine.handle(
            {"op": "topk", "item": item, "k": None, "budget": {"max_itemsets": 3}}
        )
        assert env["ok"] and env["complete"] is False
        (out, cut), = cuts
        assert isinstance(cut, RankColumns) and len(cut) == 3
        assert _is_cut_of(cut, out)
        # the item's single is the last block: in pairs() order it follows
        # every other itemset its rank tops
        ranks, supports = out.blocks[-1]
        assert ranks.tolist() == [[engine.index.rank_table.rank(item)]]
