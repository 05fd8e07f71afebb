"""The top level's pair codes and the rows read off them.

:func:`~repro.core.conditional.mine_conditional_flat_range` builds every
stored path's lower-triangle pair codes once per call.  Each rank strip
counts its slice of them into the pair matrix, and one lookup of the
strip's frequent cells' local indices over the same codes gives every
``CD_j``'s rows: keyed for the lattice leaves, or as cells for the tidset
kernel.  These tests pin the answers against FP-growth, which shares no
code with the PLT, at every strip height; the two ways a keyable rank
reaches the tidsets (the lattice rule rejects it, or it has more locally
frequent ranks than a key holds); budget trips inside every phase; and
the codes being built once however many strips there are.
"""

import random
import traceback
import types

import pytest

import repro.core.conditional as cond
import repro.robustness.governor as governor_module
from repro.baselines.fpgrowth import mine_fpgrowth
from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional, mine_conditional_flat_range
from repro.core.plt import PLT
from repro.errors import BudgetExceeded
from repro.perf.counters import collecting
from repro.robustness.governor import MiningBudget, ResourceGovernor
from tests.conftest import random_database

#: strip heights: one strip, strips of three ranks, one-rank strips
HEIGHTS = [None, 3, 0]


def _decoded(plt, pairs):
    decode = plt.rank_table.decode_ranks
    return {frozenset(decode(ranks)): support for ranks, support in pairs}


def _dense(seed):
    """Long rows over a narrow alphabet: the top ranks' rows hold so many
    locally frequent ranks that the lattice rule rejects them."""
    rng = random.Random(seed)
    return [frozenset(rng.sample(range(14), rng.randint(8, 12))) for _ in range(50)]


#: the item of :func:`_many_locals` that every other item meets
_Z = 100


def _many_locals():
    """62 items, each far more frequent than ``_Z``, which occurs with
    every one of them: ``CD_Z`` has 62 locally frequent ranks, more than
    the ``64 - bit_length(62)`` a lattice key holds."""
    weighted = [(frozenset({k}), 150) for k in range(62)]
    weighted += [(frozenset({_Z, k, k + 1}), 2) for k in range(61)]
    weighted += [(frozenset({_Z, k, k + 1, k + 2}), 1) for k in range(0, 60, 3)]
    return weighted


@pytest.fixture
def strips(monkeypatch):
    """Set the pair-matrix cap so that ``plt`` is mined in strips of
    ``height`` ranks (``None``: one strip; 0: one rank a strip)."""

    def set_height(plt, height):
        if height is not None:
            width = plt.max_rank() + 1
            monkeypatch.setattr(cond, "_PAIR_MATRIX_MAX_CELLS", height * width)

    return set_height


def _tidset_calls(monkeypatch):
    """Record ``(j, locally frequent ranks)`` of every ``_tidset_mine`` call."""
    seen = []
    mine = cond._tidset_mine

    def spy(rows, cols, freqs, pairs, local, j, *args, **kwargs):
        seen.append((j, len(local)))
        return mine(rows, cols, freqs, pairs, local, j, *args, **kwargs)

    monkeypatch.setattr(cond, "_tidset_mine", spy)
    return seen


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("seed", range(8))
def test_matches_fpgrowth_at_every_strip_height(seed, height, strips):
    db = random_database(seed + 9700, max_items=14, max_transactions=60)
    for min_support in (1, 3):
        plt = PLT.from_transactions(db, min_support)
        strips(plt, height)
        for max_len in (2, 3, None):
            got = mine_conditional(plt, min_support, max_len=max_len)
            assert _decoded(plt, got) == mine_fpgrowth(db, min_support, max_len=max_len)


@pytest.mark.parametrize("height", HEIGHTS)
def test_keyable_ranks_the_lattice_rule_rejects(height, strips, monkeypatch):
    plt = PLT.from_transactions(_dense(9800), 12)
    strips(plt, height)
    seen = _tidset_calls(monkeypatch)
    got = mine_conditional(plt, 12)
    assert _decoded(plt, got) == mine_fpgrowth(_dense(9800), 12)
    keyable = 64 - plt.max_rank().bit_length()
    assert seen and all(2 <= count <= keyable for _, count in seen)


@pytest.mark.parametrize("height", HEIGHTS)
def test_a_rank_with_more_locals_than_a_key_holds(height, strips, monkeypatch):
    weighted = _many_locals()
    plt = PLT.from_weighted_transactions(weighted, 2)
    top = plt.max_rank()
    assert plt.rank_table.decode_ranks((top,)) == (_Z,)
    strips(plt, height)
    seen = _tidset_calls(monkeypatch)
    got = mine_conditional(plt, 2)
    expanded = [t for t, w in weighted for _ in range(w)]
    assert _decoded(plt, got) == mine_fpgrowth(expanded, 2)
    assert (top, 62) in seen
    assert 62 > 64 - top.bit_length()


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("dense", [True, False])
def test_work_items_are_the_tidset_ranks_rows(dense, height, strips, monkeypatch):
    # every stored path through a tidset rank j at a column c >= 2 whose
    # first c ranks hold two or more of CD_j's locally frequent ranks,
    # counted path by path; the sparse rows often hold just one, and a
    # ratio of 0 sends every rank with two or more to the tidsets
    if dense:
        db, min_support = _dense(10400), 12
    else:
        db, min_support = random_database(10500, max_items=14, max_transactions=60), 3
        monkeypatch.setattr(cond, "_LATTICE_COST_RATIO", 0)
    plt = PLT.from_transactions(db, min_support)
    strips(plt, height)
    seen = _tidset_calls(monkeypatch)
    with collecting() as counts:
        full = dict(mine_conditional(plt, min_support))
    expected = 0
    for j, _ in seen:
        local = {r[0] for r in full if len(r) == 2 and r[1] == j}
        for path in plt.flat.paths_by_length().values():
            for row in path[0].tolist():
                if j in row[2:]:
                    expected += len(local.intersection(row[: row.index(j)])) >= 2
    assert seen and counts["cond_work_items_merged"] == expected


def _check_partial(full, exc):
    """``exc.partial`` is exact and a prefix of ``full``'s pairs, and it
    holds every itemset whose maximal rank is complete."""
    partial = exc.partial.pairs()
    assert partial == full[: len(partial)]
    complete = exc.progress.get("complete_from_rank")
    if complete is not None:
        mined = dict(partial)
        assert all(mined[r] == s for r, s in full if r[-1] >= complete)


@pytest.mark.parametrize("height", HEIGHTS)
def test_cap_trips_keep_a_prefix(height, strips):
    plt = PLT.from_transactions(_dense(10000), 12)
    strips(plt, height)
    full = mine_conditional(plt, 12).pairs()
    for cap in sorted({1, 2, 5, len(full) // 7, len(full) // 3, len(full) // 2, len(full) - 1}):
        governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
        with pytest.raises(BudgetExceeded) as info:
            mine_conditional(plt, 12, governor=governor)
        assert info.value.reason == "max_itemsets"
        assert len(info.value.partial) <= cap
        _check_partial(full, info.value)


@pytest.mark.parametrize("height", HEIGHTS)
def test_deadline_trips_keep_a_prefix(height, strips, monkeypatch):
    # a clock that reads one second later at every look, checked at every
    # tick: a deadline of n seconds trips at the governor's n-th check,
    # so the sweep trips in every phase of the run, the rows' reading
    # included
    clock = types.SimpleNamespace(now=0.0)

    def monotonic():
        clock.now += 1.0
        return clock.now

    monkeypatch.setattr(governor_module, "time", types.SimpleNamespace(monotonic=monotonic))
    plt = PLT.from_transactions(_dense(10100), 12)
    strips(plt, height)
    full = mine_conditional(plt, 12).pairs()

    class Counting(ResourceGovernor):
        checks = 0

        def _check(self):
            self.checks += 1
            super()._check()

    unbounded = Counting(MiningBudget(deadline=1e9, check_interval=1))
    mine_conditional(plt, 12, governor=unbounded)
    checks = unbounded.checks
    assert checks > 10
    sizes, frames = set(), set()
    for deadline in range(1, checks):
        governor = ResourceGovernor(MiningBudget(deadline=deadline, check_interval=1))
        with pytest.raises(BudgetExceeded) as info:
            mine_conditional(plt, 12, governor=governor)
        assert info.value.reason == "deadline"
        _check_partial(full, info.value)
        sizes.add(len(info.value.partial))
        frames.update(frame.name for frame in traceback.extract_tb(info.value.__traceback__))
    assert len(sizes) > 5
    assert {"_cd_rows", "_expand", "_tidset_mine", "_tidset_level"} <= frames


@pytest.mark.parametrize("height", HEIGHTS)
def test_pair_codes_are_built_once_per_call(height, strips, monkeypatch):
    db = random_database(10200, max_items=12, max_transactions=60, min_transactions=40)
    plt = PLT.from_transactions(db, 2)
    strips(plt, height)
    built, counted = [], []
    codes, count = cond._pair_codes, cond._strip_supports

    def spy_codes(arrays, width):
        built.append(width)
        return codes(arrays, width)

    def spy_count(*args):
        counted.append(args[-2:])
        return count(*args)

    monkeypatch.setattr(cond, "_pair_codes", spy_codes)
    monkeypatch.setattr(cond, "_strip_supports", spy_count)
    width = plt.max_rank() + 1
    assert width > 4
    expected = mine_fpgrowth(db, 2)
    assert _decoded(plt, mine_conditional(plt, 2)) == expected
    assert built == [width]
    if height is None:
        assert counted == [(0, width)]
    else:
        step = max(1, height)
        assert counted == [(max(1, top - step), top) for top in range(width, 1, -step)]
    # two ranges, each one call: the codes are built once a range
    built.clear()
    parts = []
    for lo, hi in ((width // 2, width), (1, width // 2)):
        part = RankColumns()
        mine_conditional_flat_range(plt.flat, lo, hi, 2, part)
        parts += part.pairs()
    assert _decoded(plt, parts) == expected
    assert built == [width, width]


@pytest.mark.parametrize("max_len", [2, 3, None])
def test_a_precomputed_matrix_counts_no_strip(max_len, monkeypatch):
    # the shm segment carries the whole matrix: a range reads it, and
    # builds its codes for the rows alone, which a max_len of 2 skips
    db = random_database(10300, max_items=12, max_transactions=60, min_transactions=40)
    plt = PLT.from_transactions(db, 2)
    flat = plt.flat
    assert flat.compute_pair_support()
    built, counted = [], []
    codes, count = cond._pair_codes, cond._strip_supports

    def spy_codes(*args):
        built.append(args[-1])
        return codes(*args)

    def spy_count(*args):
        counted.append(args[-2:])
        return count(*args)

    monkeypatch.setattr(cond, "_pair_codes", spy_codes)
    monkeypatch.setattr(cond, "_strip_supports", spy_count)
    out = RankColumns()
    mine_conditional_flat_range(flat, 1, plt.max_rank() + 1, 2, out, max_len)
    assert counted == []
    assert built == ([] if max_len == 2 else [plt.max_rank() + 1])
    assert _decoded(plt, out) == mine_fpgrowth(db, 2, max_len=max_len)
