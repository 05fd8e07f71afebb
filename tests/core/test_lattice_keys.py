"""Narrow lattice keys: each chunk packed at its own count width.

The subset-lattice kernel (:mod:`repro.core.lattice`) aggregates one
chunk of generated subsets as ``mask << w | count``, where ``w`` is the
bit length of the chunk's summed row frequency: a ``uint32`` column while
``key_bits + w <= 32``, a ``uint64`` one up to 64 bits, records beyond.
These tests run every entry into the kernel on both sides of the 32-bit
edge — Algorithm 2's sweep, its shared-memory slices and Algorithm 3's
lattice leaves — and check the answers against FP-growth or a brute-force
recount, the work counter against its estimate, and budget trips against
the record layout.
"""

import itertools
import random
from collections import Counter

import pytest

import repro.core.lattice as lattice
import repro.core.topdown as topdown
from repro.baselines.fpgrowth import mine_fpgrowth
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.topdown import estimate_topdown_work, mine_topdown, topdown_subset_path_frequencies
from repro.errors import Cancelled
from repro.perf.counters import collecting
from repro.robustness.governor import CancellationToken, MiningBudget, ResourceGovernor
from tests.conftest import random_database

#: Items of the weighted databases: every one is frequent, so the top-down
#: keys are ``N_ITEMS`` bits wide.
N_ITEMS = 12

EDGE = [31, 32, 33]


def _layout(width: int) -> str:
    return "uint32" if width <= 32 else "uint64" if width <= 64 else "record"


@pytest.fixture
def chunks(monkeypatch):
    """Every chunk the kernel aggregates, as ``(width, layout)``.

    ``width`` is ``key_bits`` plus the bit length of the narrower bound on
    a key's count, the chunk's summed frequency or the lattice's total;
    ``layout`` is what the chunk's subsets were doubled in.
    """
    seen, layouts = [], []
    chunk, double = lattice._Lattice.chunk, lattice._double

    def spy_double(buf, bits, heads):
        layouts.append("record" if bits.ndim == 3 else bits.dtype.name)
        return double(buf, bits, heads)

    def spy_chunk(self, bits, freqs, *args):
        width = self.key_bits + min(sum(freqs.tolist()).bit_length(), self.shift)
        part = chunk(self, bits, freqs, *args)
        seen.append((width, layouts.pop()))
        return part

    monkeypatch.setattr(lattice, "_double", spy_double)
    monkeypatch.setattr(lattice._Lattice, "chunk", spy_chunk)
    return seen


def _check_layouts(seen, widest=None):
    assert seen
    assert [layout for _, layout in seen] == [_layout(width) for width, _ in seen]
    if widest is not None:
        assert max(width for width, _ in seen) == widest


def _weighted(width: int, seed: int):
    """A small database, its weights scaled by ``2^k`` so that the widest
    chunk (the kernel takes one per path length here) is ``width`` bits,
    and the scale."""
    rng = random.Random(seed)
    # the full row (weight 2) makes every item frequent at support 2
    small = [(list(range(N_ITEMS)), 2)] + [
        (rng.sample(range(N_ITEMS), rng.randint(1, 6)), rng.randint(1, 3)) for _ in range(30)
    ]
    by_length = Counter()
    for t, w in small:
        by_length[len(t)] += w
    scale = 1 << (width - N_ITEMS - max(by_length.values()).bit_length())
    return small, [(t, w * scale) for t, w in small], scale


def _bruteforce_paths(plt):
    """Every non-empty subset of every stored rank path, with its support."""
    truth = Counter()
    for path, freq in plt.iter_rank_paths():
        for size in range(1, len(path) + 1):
            for sub in itertools.combinations(path, size):
                truth[sub] += freq
    return truth


@pytest.mark.parametrize("width", EDGE)
def test_mine_topdown_at_the_edge_matches_fpgrowth(width, chunks):
    small, weighted, scale = _weighted(width, width)
    plt = PLT.from_weighted_transactions(weighted, 2 * scale)
    assert plt.max_rank() == N_ITEMS
    with collecting() as counts:
        pairs = mine_topdown(plt, 2 * scale)
    _check_layouts(chunks, widest=width)
    assert counts["topdown_work_items"] == estimate_topdown_work(plt)
    decode_ranks = plt.rank_table.decode_ranks
    got = {frozenset(decode_ranks(ranks)): sup for ranks, sup in pairs}
    want = mine_fpgrowth([t for t, w in small for _ in range(w)], 2)
    assert got == {itemset: sup * scale for itemset, sup in want.items()}


@pytest.mark.parametrize("width", EDGE)
def test_threshold_one_lattice_at_the_edge_is_bruteforce(width, chunks):
    _, weighted, _ = _weighted(width, width + 100)
    plt = PLT.from_weighted_transactions(weighted, 1)
    paths = topdown_subset_path_frequencies(plt)
    _check_layouts(chunks, widest=width)
    assert {p: f for bucket in paths.values() for p, f in bucket.items()} == _bruteforce_paths(plt)


@pytest.mark.parametrize("heavy", [1 << 20, 1 << 55])
def test_one_sweep_mixes_chunk_layouts(heavy, chunks, monkeypatch):
    """One path per chunk: the light paths pack in 32 bits and the heavy
    ones do not (in 64 bits, or as records past 64), side by side in one
    length group, into a packed table (``heavy = 2^20``) or a record one
    (``2^55``)."""
    rng = random.Random(heavy.bit_length())
    weighted = [(list(range(N_ITEMS)), 1)] + [
        (rng.sample(range(N_ITEMS), rng.randint(1, 5)), rng.choice([1, 3, heavy, 3 * heavy]))
        for _ in range(40)
    ]
    monkeypatch.setattr(lattice, "_CHUNK_SUBSETS", 1)
    plt = PLT.from_weighted_transactions(weighted, 1)
    assert topdown._flat_lattice(plt.flat).packed == (heavy < 1 << 32)
    with collecting() as counts:
        paths = topdown_subset_path_frequencies(plt)
    _check_layouts(chunks)
    layouts = {layout for _, layout in chunks}
    assert layouts == {"uint32", "uint64" if heavy < 1 << 32 else "record"}
    assert counts["topdown_work_items"] == estimate_topdown_work(plt)
    truth = _bruteforce_paths(plt)
    assert {p: f for bucket in paths.values() for p, f in bucket.items()} == truth
    support = 2 * heavy
    mined = dict(mine_topdown(plt, support))
    assert mined == {p: f for p, f in truth.items() if f >= support}


@pytest.mark.parametrize("width", EDGE)
def test_shm_slices_merge_across_the_edge(width):
    from repro.parallel import topdown_parallel

    _, weighted, _ = _weighted(width, width)
    plt = PLT.from_weighted_transactions(weighted, 1)
    assert topdown_parallel(plt, n_workers=2) == topdown._plt_lattice(plt).vectors()


SUPPORT = 3


@pytest.fixture(scope="module")
def leaf_db():
    # the lattice-leaves fixture: the lowest ranks take the lattice
    return random_database(7705, max_items=14, max_transactions=80, min_transactions=60)


@pytest.mark.parametrize("width", EDGE)
def test_lattice_leaves_at_the_edge_match_fpgrowth(width, leaf_db, chunks):
    """Scaling every weight by ``2^k`` widens each leaf chunk by ``k``
    bits and leaves the choice of lattice ranks alone."""
    mine_conditional(PLT.from_transactions(leaf_db, SUPPORT), SUPPORT)
    unit = max(w for w, _ in chunks)
    assert unit < width
    chunks.clear()
    weight = 1 << (width - unit)
    plt = PLT.from_weighted_transactions([(t, weight) for t in leaf_db], SUPPORT * weight)
    got = mine_conditional(plt, SUPPORT * weight)
    _check_layouts(chunks, widest=width)
    decode_ranks = plt.rank_table.decode_ranks
    want = mine_fpgrowth(leaf_db, SUPPORT)
    assert {frozenset(decode_ranks(r)): s for r, s in got} == {
        itemset: sup * weight for itemset, sup in want.items()
    }


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


@pytest.mark.parametrize("chunk", [1, 7, lattice._CHUNK_SUBSETS])
def test_governed_trips_do_not_see_the_layout(chunk, chunks, monkeypatch):
    """Unit weights pack every chunk in 32 bits; a weight of ``2^52``
    pushes every chunk past 64 bits, onto the record layout.  A trip after
    the same number of polls reports the same ``complete_min_len`` and the
    same partial (scaled) on both, and each partial holds exactly the
    frequent itemsets of the finalised lengths."""
    rng = random.Random(11)
    db = [rng.sample(range(14), rng.randint(2, 8)) for _ in range(60)]
    monkeypatch.setattr(lattice, "_CHUNK_SUBSETS", chunk)
    trips = {}
    for weight in (1, 1 << 52):
        plt = PLT.from_weighted_transactions([(t, weight) for t in db], SUPPORT * weight)
        chunks.clear()
        full = dict(mine_topdown(plt, SUPPORT * weight))
        assert {layout for _, layout in chunks} == {"uint32" if weight == 1 else "record"}
        n_chunks = len(chunks)
        trips[weight] = []
        for polls in range(0, n_chunks, max(1, n_chunks // 12)):
            governor = ResourceGovernor(MiningBudget(check_interval=1), cancel=_CancelAfter(polls))
            with pytest.raises(Cancelled) as info:
                mine_topdown(plt, SUPPORT * weight, governor=governor)
            marker = info.value.progress["complete_min_len"]
            partial = dict(info.value.partial)
            assert partial == {r: s for r, s in full.items() if len(r) >= marker}
            trips[weight].append((marker, {r: s // weight for r, s in partial.items()}))
    assert trips[1] == trips[1 << 52]
    assert len({marker for marker, _ in trips[1]}) >= 3


def test_patched_chunk_size_reaches_the_kernel(chunks, monkeypatch):
    """The kernel reads ``_CHUNK_SUBSETS`` from :mod:`repro.core.lattice`,
    so a patch there sets how many chunks a sweep aggregates."""
    # five distinct paths of length 4
    db = [tuple(range(i, i + 4)) for i in range(5)]
    plt = PLT.from_transactions(db, 1)
    answers, counts = [], []
    # a chunk holds max(1, size >> 4) rows: one, two, all five
    for size in (1, 32, lattice._CHUNK_SUBSETS):
        monkeypatch.setattr(lattice, "_CHUNK_SUBSETS", size)
        chunks.clear()
        answers.append(mine_topdown(plt, 1).pairs())
        counts.append(len(chunks))
    assert counts == [5, 3, 1]
    assert answers[0] == answers[1] == answers[2]
