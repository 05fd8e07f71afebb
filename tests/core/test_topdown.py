"""Unit tests for Algorithm 2 (top-down mining)."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.lattice as lattice_kernel
import repro.core.topdown as topdown
from repro.baselines.bruteforce import support_counts_bruteforce
from repro.baselines.fpgrowth import mine_fpgrowth
from repro.core.plt import PLT
from repro.core.position import decode, path_to_vector
from repro.core.topdown import (
    DEFAULT_WORK_LIMIT,
    estimate_topdown_work,
    mine_topdown,
    subset_frequencies_flat,
    topdown_subset_frequencies,
    topdown_subset_path_frequencies,
)
from repro.errors import InvalidSupportError, TopDownExplosionError
from repro.perf.counters import collecting
from tests.conftest import random_database


def _subset_counts_via_topdown(db, min_support=1):
    plt = PLT.from_transactions(db, min_support)
    counts = topdown_subset_frequencies(plt)
    table = plt.rank_table
    return {
        frozenset(table.decode_ranks(decode(vec))): freq
        for bucket in counts.values()
        for vec, freq in bucket.items()
    }


class TestNoDuplication:
    """The paper's central top-down claim: every subset exactly once."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bruteforce_subset_counts(self, seed):
        db = random_database(seed, max_items=7, max_transactions=20)
        truth = support_counts_bruteforce(db)
        got = _subset_counts_via_topdown(db)
        assert got == dict(truth)

    def test_single_transaction_counts_power_set(self):
        db = [("a", "b", "c", "d")]
        got = _subset_counts_via_topdown(db)
        assert len(got) == 2**4 - 1
        assert all(f == 1 for f in got.values())

    def test_duplicate_transactions_scale_counts(self):
        db = [("a", "b", "c")] * 5
        got = _subset_counts_via_topdown(db)
        assert set(got.values()) == {5}

    def test_overlapping_transactions_accumulate(self):
        db = [("a", "b"), ("b", "c"), ("a", "b", "c")]
        got = _subset_counts_via_topdown(db)
        assert got[frozenset("b")] == 3
        assert got[frozenset("ab")] == 2
        assert got[frozenset("abc")] == 1


class TestMineTopdown:
    def test_filters_by_support(self, paper_plt):
        pairs = dict(mine_topdown(paper_plt, 2))
        assert (1, 3, 4) not in pairs  # ACD freq 1
        assert pairs[(1, 2)] == 4

    def test_default_support_from_plt(self, paper_plt):
        assert dict(mine_topdown(paper_plt)) == dict(mine_topdown(paper_plt, 2))

    def test_max_len(self, paper_plt):
        pairs = mine_topdown(paper_plt, 2, max_len=1)
        assert all(len(ranks) == 1 for ranks, _ in pairs)
        assert len(pairs) == 4

    def test_invalid_support(self, paper_plt):
        with pytest.raises(InvalidSupportError):
            mine_topdown(paper_plt, 0)

    def test_results_sorted_rank_tuples(self, paper_plt):
        for ranks, _ in mine_topdown(paper_plt, 2):
            assert list(ranks) == sorted(ranks)


class TestWorkLimit:
    def test_estimate_grows_with_length(self):
        db_short = [("a", "b")] * 3
        db_long = [tuple("abcdefghij")] * 3
        plt_s = PLT.from_transactions(db_short, 1)
        plt_l = PLT.from_transactions(db_long, 1)
        assert estimate_topdown_work(plt_l) > estimate_topdown_work(plt_s)

    def test_explosion_guard_raises(self):
        db = [tuple(range(30))]
        plt = PLT.from_transactions(db, 1)
        with pytest.raises(TopDownExplosionError):
            topdown_subset_frequencies(plt, work_limit=1000)

    def test_guard_disabled_with_none(self):
        db = [tuple(range(12))]
        plt = PLT.from_transactions(db, 1)
        counts = topdown_subset_frequencies(plt, work_limit=None)
        assert sum(len(b) for b in counts.values()) == 2**12 - 1

    def test_default_limit_allows_small_inputs(self, paper_plt):
        assert estimate_topdown_work(paper_plt) < DEFAULT_WORK_LIMIT


class TestSubsetFrequenciesShape:
    def test_keyed_by_length(self, paper_plt):
        counts = topdown_subset_frequencies(paper_plt)
        for length, bucket in counts.items():
            for vec in bucket:
                assert len(vec) == length

    def test_flat_helper(self, paper_plt):
        counts = topdown_subset_frequencies(paper_plt)
        flat = subset_frequencies_flat(counts)
        assert len(flat) == sum(len(b) for b in counts.values())
        assert flat[(1, 1)] == 4  # AB

    def test_empty_plt(self):
        plt = PLT.from_transactions([], 1)
        assert topdown_subset_frequencies(plt) == {}
        assert mine_topdown(plt, 1) == []


class TestAgainstConditional:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_frequent_sets(self, seed):
        from repro.core.conditional import mine_conditional

        db = random_database(seed + 100, max_items=8, max_transactions=30)
        for min_support in (1, 2, 3):
            plt = PLT.from_transactions(db, min_support)
            a = sorted(mine_topdown(plt, min_support))
            b = sorted(mine_conditional(plt, min_support))
            assert a == b


# -- subset-lattice kernel differentials ------------------------------------
#: Chunk sizes under test: one subset (one row per chunk), an odd size
#: that splits short-path groups mid-way, and the module default.
CHUNKS = [1, 7, lattice_kernel._CHUNK_SUBSETS]


def _databases(max_items=130, max_len=6, max_tx=40):
    """Short transactions over up to ``max_items`` item ids (so top-down
    stays cheap while the key width crosses one and two 64-bit words)."""
    return st.integers(1, max_items).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), max_size=max_len), max_size=max_tx
        )
    )


def _bruteforce_paths(plt):
    """Every non-empty subset of every stored rank path, with its support."""
    truth = Counter()
    for path, freq in plt.iter_rank_paths():
        for size in range(1, len(path) + 1):
            for sub in itertools.combinations(path, size):
                truth[sub] += freq
    return truth


#: A wide run: 130 distinct items (three key words), each in three short
#: transactions.
_WIDE = [[i, (i + 1) % 130, (i + 57) % 130] for i in range(130)]


class TestLatticeKernel:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(db=_databases())
    @example(db=[])
    @example(db=[[3, 1, 4, 5, 9, 2]])
    @example(db=[[i] for i in range(100)])
    @example(db=_WIDE)
    def test_threshold_one_lattice_is_bruteforce(self, chunk, db):
        plt = PLT.from_transactions(db, 1)
        truth = _bruteforce_paths(plt)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_kernel, "_CHUNK_SUBSETS", chunk)
            paths = topdown_subset_path_frequencies(plt)
            vectors = topdown_subset_frequencies(plt)
        assert {p: f for bucket in paths.values() for p, f in bucket.items()} == truth
        assert all(len(p) == size for size, bucket in paths.items() for p in bucket)
        assert vectors == {
            size: {path_to_vector(p): f for p, f in bucket.items()}
            for size, bucket in paths.items()
        }

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(
        db=_databases(),
        min_support=st.integers(1, 4),
        max_len=st.one_of(st.none(), st.integers(1, 4)),
    )
    @example(db=_WIDE, min_support=2, max_len=None)
    @example(db=[[5]] * 3 + [[7]] * 2, min_support=2, max_len=1)
    def test_mine_topdown_matches_fpgrowth(self, chunk, db, min_support, max_len):
        plt = PLT.from_transactions(db, min_support)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_kernel, "_CHUNK_SUBSETS", chunk)
            pairs = mine_topdown(plt, min_support, max_len=max_len)
        decode_ranks = plt.rank_table.decode_ranks
        got = {frozenset(decode_ranks(ranks)): sup for ranks, sup in pairs}
        assert len(got) == len(pairs)
        assert got == mine_fpgrowth(db, min_support, max_len=max_len)

    def test_wide_keys_use_several_words(self):
        plt = PLT.from_transactions(_WIDE, 1)
        assert plt.max_rank() == 130
        lattice = topdown._flat_lattice(plt.flat)
        assert lattice.words == 3 and not lattice.packed
        pairs = dict(mine_topdown(plt, 2))
        assert len(pairs) == 130  # only the singletons reach support 2
        assert set(pairs.values()) == {3}

    def test_work_items_count_generated_subsets(self):
        db = random_database(77, max_items=10, max_transactions=40)
        plt = PLT.from_transactions(db, 1)
        with collecting() as counts:
            mine_topdown(plt, 1)
        assert counts["topdown_work_items"] == estimate_topdown_work(plt)


class TestKeyLayouts:
    """The packed layout holds ``mask << c | count`` in one word while
    ``max_rank + c <= 64`` (``c = bit_length(total path frequency)``);
    one bit more takes the record layout.  Both run right at the edge."""

    @staticmethod
    def _weighted(key_bits, seed):
        """A small database, its weights scaled by ``2^k`` so that
        ``max_rank + c == key_bits``, and the scale."""
        rng = random.Random(seed)
        n = 12
        # the full row (weight 2) makes every item frequent at support 2
        small = [(list(range(n)), 2)] + [
            (rng.sample(range(n), rng.randint(1, 6)), rng.randint(1, 3)) for _ in range(30)
        ]
        total = sum(w for _, w in small)
        scale = 1 << (key_bits - n - total.bit_length())
        return small, [(t, w * scale) for t, w in small], scale

    @pytest.mark.parametrize("key_bits", [63, 64, 65])
    def test_layout_edge_matches_fpgrowth(self, key_bits):
        small, weighted, scale = self._weighted(key_bits, key_bits)
        plt = PLT.from_weighted_transactions(weighted, 2 * scale)
        lattice = topdown._flat_lattice(plt.flat)
        assert plt.max_rank() + lattice.shift == key_bits
        assert lattice.packed == (key_bits <= 64)
        with collecting() as counts:
            pairs = mine_topdown(plt, 2 * scale)
        assert counts["topdown_work_items"] == estimate_topdown_work(plt)
        decode_ranks = plt.rank_table.decode_ranks
        got = {frozenset(decode_ranks(ranks)): sup for ranks, sup in pairs}
        expanded = [t for t, w in small for _ in range(w)]
        want = mine_fpgrowth(expanded, 2)
        assert got == {itemset: sup * scale for itemset, sup in want.items()}

    @pytest.mark.parametrize("key_bits", [63, 64, 65])
    def test_layout_edge_shm_slices_merge(self, key_bits):
        from repro.parallel import topdown_parallel

        _, weighted, _ = self._weighted(key_bits, key_bits)
        plt = PLT.from_weighted_transactions(weighted, 1)
        want = topdown._plt_lattice(plt).vectors()
        assert topdown_parallel(plt, n_workers=2) == want
