"""Resource-governed mining: deadlines, caps, cancellation, degradation.

The acceptance workload is a dense random database of about 1.7M
frequent itemsets; under a 0.5 s deadline the facade must hand back a
:class:`PartialResult` within one second of wall clock, spend under a
quarter second of it after the trip, and every itemset it reports must
carry its exact support (verified here by brute-force recount).
"""

import threading
import time

import pytest

from repro.core.conditional import mine_conditional
from repro.core.mining import (
    ApproximateResult,
    MiningResult,
    PartialResult,
    mine_frequent_itemsets,
)
from repro.core.plt import PLT
from repro.core.topdown import mine_topdown
from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    Cancelled,
    InvalidParameterError,
    MiningInterrupted,
    ReproError,
)
from repro.robustness.governor import (
    CancellationToken,
    DegradationPolicy,
    MiningBudget,
    ResourceGovernor,
)


def _dense_db(n_tx=1100, universe=36, tx_len=15, seed=42):
    import random

    rng = random.Random(seed)
    return [tuple(rng.sample(range(universe), tx_len)) for _ in range(n_tx)]


def _support_of(itemset, db_sets):
    needle = frozenset(itemset)
    return sum(1 for t in db_sets if needle <= t)


#: The acceptance workload's frequent itemsets at support 8.
DENSE_ITEMSETS = 1_675_115


@pytest.fixture(scope="module")
def dense_db():
    # 3,300 transactions: far more work than a 0.5 s deadline allows
    return _dense_db(n_tx=3300)


@pytest.fixture(scope="module")
def small_db():
    # small enough to mine unbounded in milliseconds (for ground truth)
    return _dense_db(n_tx=120, universe=30, tx_len=8, seed=7)


@pytest.fixture(scope="module")
def deadline_partial(dense_db):
    """One governed run shared by the acceptance assertions."""
    t0 = time.perf_counter()
    result = mine_frequent_itemsets(dense_db, 8, deadline=0.5)
    wall = time.perf_counter() - t0
    return result, wall


class TestDeadlineAcceptance:
    def test_partial_returned_within_one_second(self, deadline_partial):
        result, wall = deadline_partial
        assert isinstance(result, PartialResult)
        assert not result.complete and not result.approximate
        assert result.stop_reason == "deadline"
        assert wall < 1.0
        assert 0.4 <= result.elapsed < 1.0
        assert len(result) > 0
        assert result.method.endswith("+partial")

    def test_overrun_after_the_trip_is_reported(self, deadline_partial):
        # the partial is cut and decoded as arrays, so the time from the
        # trip to the return stays small however much was mined before it
        result, _ = deadline_partial
        tripped = result.progress["tripped_s"]
        assert 0.5 <= tripped <= result.elapsed
        assert result.elapsed - tripped < 0.25

    def test_partial_supports_are_exact(self, deadline_partial, dense_db):
        result, _ = deadline_partial
        db_sets = [frozenset(t) for t in dense_db]
        # recount a deterministic spread of the reported itemsets
        step = max(1, len(result) // 200)
        for fi in result[::step]:
            assert fi.support == _support_of(fi.items, db_sets)
            assert fi.support >= result.min_support

    def test_partial_reports_verified_complete_region(self, deadline_partial):
        result, _ = deadline_partial
        assert result.progress.get("complete_from_rank") is not None
        assert result.complete_from_rank == result.progress["complete_from_rank"]

    def test_unbounded_run_exceeds_five_seconds(self, dense_db):
        # the acceptance workload's work, not a wall-clock floor: a
        # floor would have to grow the fixture with every kernel speedup
        result = mine_frequent_itemsets(dense_db, 8)
        assert len(result) == DENSE_ITEMSETS
        assert result.complete and not isinstance(result, PartialResult)


class TestDegradation:
    def test_sampling_fallback_is_flagged_approximate(self, dense_db):
        policy = DegradationPolicy(fallback="sampling", sample_fraction=0.05)
        result = mine_frequent_itemsets(
            dense_db, 8, deadline=0.2, degradation=policy
        )
        assert isinstance(result, ApproximateResult)
        assert result.approximate and not result.complete
        assert "approximate" in result.disclaimer.lower()
        assert result.method.endswith("+approx-sampling")
        assert result.info["fallback"] == "sampling"

    def test_topk_fallback_is_flagged_approximate(self, small_db):
        policy = DegradationPolicy(fallback="topk", k=25)
        result = mine_frequent_itemsets(
            small_db, 4, max_itemsets=10, degradation=policy
        )
        assert isinstance(result, ApproximateResult)
        assert result.method.endswith("+approx-topk")
        assert len(result) <= 2 * 25  # mine_top_k keeps boundary ties
        # top-k supports are exact counts even though coverage is partial
        db_sets = [frozenset(t) for t in small_db]
        for fi in result:
            assert fi.support == _support_of(fi.items, db_sets)

    def test_degradation_requires_a_budget(self, small_db):
        with pytest.raises(InvalidParameterError, match="needs a budget"):
            mine_frequent_itemsets(
                small_db, 4, degradation=DegradationPolicy(fallback="topk")
            )

    def test_admission_rejection_degrades(self, small_db):
        policy = DegradationPolicy(fallback="topk", k=10)
        result = mine_frequent_itemsets(
            small_db, 2, memory_budget=1, degradation=policy
        )
        assert isinstance(result, ApproximateResult)
        assert result.info["stop_reason"] == "admission"

    def test_admission_rejection_raises_without_policy(self, small_db):
        with pytest.raises(AdmissionRejected):
            mine_frequent_itemsets(small_db, 2, memory_budget=1)


class TestCaps:
    def test_max_itemsets_cap_respected(self, small_db):
        result = mine_frequent_itemsets(small_db, 3, max_itemsets=40)
        assert isinstance(result, PartialResult)
        assert result.stop_reason == "max_itemsets"
        assert len(result) <= 40
        db_sets = [frozenset(t) for t in small_db]
        for fi in result:
            assert fi.support == _support_of(fi.items, db_sets)

    def test_generous_budget_returns_complete_result(self, small_db):
        bounded = mine_frequent_itemsets(
            small_db, 4, budget=MiningBudget(deadline=300.0, max_itemsets=10**9)
        )
        unbounded = mine_frequent_itemsets(small_db, 4)
        assert isinstance(bounded, MiningResult)
        assert not isinstance(bounded, PartialResult)
        assert bounded.complete
        assert bounded == unbounded

    def test_on_budget_raise_propagates_with_partial(self, small_db):
        with pytest.raises(BudgetExceeded) as info:
            mine_frequent_itemsets(
                small_db, 3, max_itemsets=15, on_budget="raise"
            )
        exc = info.value
        assert exc.reason == "max_itemsets"
        assert 0 < len(exc.partial_items) <= 15

    def test_partial_decodes_on_first_read(self, small_db, monkeypatch):
        """A trip returns its cut undecoded: ``len()`` reads the rank
        columns, and the decode runs once, when the itemsets are read."""
        from repro.core import mining

        decoded = []
        decode = mining._decode

        def spy(found, table):
            decoded.append(len(found))
            return decode(found, table)

        monkeypatch.setattr(mining, "_decode", spy)
        result = mine_frequent_itemsets(small_db, 3, max_itemsets=15)
        assert isinstance(result, PartialResult)
        n = len(result)
        assert 0 < n <= 15
        assert decoded == []
        itemsets = list(result)
        assert decoded == [n]
        assert len(itemsets) == n and result.columns() is not None
        assert result[0] == itemsets[0] and decoded == [n]
        db_sets = [frozenset(t) for t in small_db]
        for fi in itemsets:
            assert fi.support == _support_of(fi.items, db_sets)


class TestCancellation:
    def test_token_cancels_mining(self, dense_db):
        token = CancellationToken()
        timer = threading.Timer(0.15, token.cancel)
        timer.start()
        try:
            result = mine_frequent_itemsets(dense_db, 8, cancel=token)
        finally:
            timer.cancel()
        assert isinstance(result, PartialResult)
        assert result.stop_reason == "cancelled"

    def test_pre_cancelled_token_raises_mode(self, small_db):
        token = CancellationToken()
        token.cancel("shutdown")
        with pytest.raises(Cancelled):
            mine_frequent_itemsets(small_db, 3, cancel=token, on_budget="raise")

    def test_token_unit(self):
        token = CancellationToken()
        assert not token.cancelled
        token.raise_if_cancelled()
        token.cancel("user hit ^C")
        assert token.cancelled
        with pytest.raises(Cancelled, match="user hit"):
            token.raise_if_cancelled()


class TestGovernorUnit:
    def test_memory_trip(self):
        budget = MiningBudget(memory_budget=1_000, check_interval=1)
        governor = ResourceGovernor(budget)
        governor.start()
        ballast = [bytearray(4096) for _ in range(2_000)]  # ~8 MB
        with pytest.raises(BudgetExceeded) as info:
            for _ in range(10):
                governor.tick()
        assert info.value.reason == "memory"
        assert len(ballast) == 2_000

    def test_itemset_counter_trips_after_cap(self):
        governor = ResourceGovernor(MiningBudget(max_itemsets=3))
        governor.start()
        governor.note_itemsets(3)
        with pytest.raises(BudgetExceeded, match="itemset budget") as info:
            governor.note_itemsets()
        assert info.value.reason == "max_itemsets"

    def test_every_trip_stamps_its_time(self):
        cancel = CancellationToken()
        governors = [
            ResourceGovernor(MiningBudget(max_itemsets=1)),
            ResourceGovernor(MiningBudget(deadline=0.01, check_interval=1)),
            ResourceGovernor(MiningBudget(check_interval=1), cancel=cancel),
        ]
        cancel.cancel()
        for governor in governors:
            governor.start()
            time.sleep(0.02)
            assert "tripped_s" not in governor.progress
            with pytest.raises(MiningInterrupted):
                governor.note_itemsets(2)
            assert 0.02 <= governor.progress["tripped_s"] <= governor.elapsed()

    def test_a_trip_is_freed_without_the_cycle_collector(self):
        # a trip bound in a frame of its own traceback would pin every
        # frame's arrays (a shm worker's views of its segment among them)
        import gc
        import weakref

        governor = ResourceGovernor(MiningBudget(max_itemsets=1))
        gc.disable()
        try:
            try:
                governor.note_itemsets(2)
            except BudgetExceeded as exc:
                trip = weakref.ref(exc)
            assert trip() is None
        finally:
            gc.enable()

    def test_unlimited_budget_never_trips(self):
        budget = MiningBudget()
        assert budget.unlimited()
        governor = ResourceGovernor(budget)
        governor.start()
        for _ in range(10_000):
            governor.tick(7)
        governor.note_itemsets(10**6)

    def test_budget_validation(self):
        with pytest.raises(InvalidParameterError):
            MiningBudget(deadline=-1.0)
        with pytest.raises(InvalidParameterError):
            MiningBudget(max_itemsets=0)
        with pytest.raises(InvalidParameterError):
            MiningBudget(memory_budget=-5)
        with pytest.raises(InvalidParameterError):
            DegradationPolicy(fallback="bogus")
        with pytest.raises(InvalidParameterError):
            DegradationPolicy(fallback="sampling", sample_fraction=0.0)

    def test_facade_kwarg_validation(self, small_db):
        with pytest.raises(InvalidParameterError, match="not both"):
            mine_frequent_itemsets(
                small_db, 3, deadline=1.0, budget=MiningBudget(deadline=1.0)
            )
        with pytest.raises(InvalidParameterError, match="on_budget"):
            mine_frequent_itemsets(small_db, 3, deadline=1.0, on_budget="bogus")
        with pytest.raises(ReproError, match="governance"):
            mine_frequent_itemsets(small_db, 3, method="apriori", deadline=1.0)


class TestVerifiedCompleteRegion:
    def test_complete_from_rank_semantics(self, small_db):
        """Every itemset whose maximal rank is >= the marker was fully
        enumerated before the trip."""
        plt = PLT.from_transactions(small_db, 3)
        full = dict(mine_conditional(plt, 3))
        governor = ResourceGovernor(MiningBudget(max_itemsets=len(full) // 3))
        with pytest.raises(MiningInterrupted) as info:
            mine_conditional(plt, 3, governor=governor)
        exc = info.value
        marker = exc.progress.get("complete_from_rank")
        assert marker is not None
        mined = dict(exc.partial)
        assert mined  # partial is non-empty and exact
        for ranks, support in mined.items():
            assert full[ranks] == support
        for ranks, support in full.items():
            if max(ranks) >= marker:
                assert mined.get(ranks) == support


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


class TestOtherMiners:
    def test_topdown_partial_complete_min_len(self, small_db, monkeypatch):
        """Trips before and all through the sweep: every frequent itemset
        of length >= the marker is in the partial with its full support.
        Unit weights keep the lattice packed (30 ranks + 7 count bits)."""
        self._check_topdown_partials(small_db, monkeypatch, weight=1)

    def test_topdown_partial_record_layout(self, small_db, monkeypatch):
        """The same trips when a weight of 2^40 per transaction needs 47
        count bits, which forces the record layout."""
        self._check_topdown_partials(small_db, monkeypatch, weight=1 << 40)

    @staticmethod
    def _check_topdown_partials(small_db, monkeypatch, weight):
        import repro.core.topdown as topdown

        # paths of lengths 2..8, so the sweep crosses several length groups
        db = [t[: 2 + i % 7] for i, t in enumerate(small_db)]
        plt = PLT.from_weighted_transactions([(t, weight) for t in db], 3 * weight)
        assert topdown._flat_lattice(plt.flat).packed == (weight == 1)
        full = dict(mine_topdown(plt, 3 * weight))
        # one subset per chunk: the sweep polls the token once per path
        monkeypatch.setattr(topdown, "_CHUNK_SUBSETS", 1)
        db_sets = [frozenset(t) for t in db]
        decode = plt.rank_table.decode_ranks
        markers, salvaged = [], 0
        for polls in range(0, plt.n_vectors(), 4):
            governor = ResourceGovernor(
                MiningBudget(check_interval=1), cancel=_CancelAfter(polls)
            )
            with pytest.raises(Cancelled) as info:
                mine_topdown(plt, 3 * weight, governor=governor)
            exc = info.value
            marker = exc.progress.get("complete_min_len")
            assert marker is not None
            markers.append(marker)
            mined = dict(exc.partial)
            salvaged = max(salvaged, len(mined))
            for ranks, support in exc.partial:
                assert len(ranks) >= marker
                assert support == weight * _support_of(decode(ranks), db_sets)
            for ranks, support in full.items():
                if len(ranks) >= marker:
                    assert mined.get(ranks) == support
        assert markers == sorted(markers, reverse=True)
        assert markers[0] == max(map(len, db)) + 1  # tripped before any path
        assert len(set(markers)) >= 4  # and inside several length groups
        assert salvaged > 0

    def test_topdown_memory_trip_counts_lattice_arrays(self):
        """The lattice lives in NumPy buffers, which the allocator sample
        does not see: the kernel declares them, so the memory budget
        trips mid-sweep, not only at admission."""
        # three 16-item paths: ~2^16 distinct subsets, a 1 MiB key table
        db = [tuple(range(16)), tuple(range(1, 17)), tuple(range(2, 18))]
        plt = PLT.from_transactions(db, 1)
        governor = ResourceGovernor(MiningBudget(memory_budget=256 * 1024))
        # nothing is frequent at 4, so only the sweep allocates much
        with pytest.raises(BudgetExceeded) as info:
            mine_topdown(plt, 4, governor=governor)
        assert info.value.reason == "memory"
        assert info.value.progress["complete_min_len"] > 1

    def test_facade_topdown_governed(self, small_db):
        result = mine_frequent_itemsets(
            small_db, 3, method="plt-topdown", max_itemsets=20
        )
        assert isinstance(result, PartialResult)
        assert len(result) <= 20

    def test_parallel_inprocess_governed(self, small_db):
        result = mine_frequent_itemsets(
            small_db, 3, method="plt-parallel", max_itemsets=25, n_workers=1
        )
        assert isinstance(result, PartialResult)
        assert result.stop_reason == "max_itemsets"
        assert len(result) <= 25
        db_sets = [frozenset(t) for t in small_db]
        for fi in result:
            assert fi.support == _support_of(fi.items, db_sets)

    def test_parallel_pool_governed(self, small_db):
        result = mine_frequent_itemsets(
            small_db, 3, method="plt-parallel", max_itemsets=25, n_workers=2
        )
        assert isinstance(result, PartialResult)
        assert result.stop_reason == "max_itemsets"
        assert len(result) <= 25

    def test_store_mine_governed(self, small_db, tmp_path):
        from repro.compress.store import PLTStore

        plt = PLT.from_transactions(small_db, 3)
        path = PLTStore.write(plt, tmp_path / "t.plts")
        with PLTStore(path) as store:
            full = dict(store.mine(3))
            governor = ResourceGovernor(MiningBudget(max_itemsets=10))
            with pytest.raises(MiningInterrupted) as info:
                store.mine(3, governor=governor)
        exc = info.value
        assert 0 < len(exc.partial) <= 10
        assert exc.progress.get("complete_from_rank") is not None
        for ranks, support in exc.partial:
            assert full[ranks] == support

    def test_distributed_budget_trips(self, small_db):
        from repro.parallel.distributed import mine_distributed

        with pytest.raises(MiningInterrupted) as info:
            mine_distributed(
                small_db, 3, n_nodes=3, budget=MiningBudget(max_itemsets=10)
            )
        exc = info.value
        assert exc.reason == "max_itemsets"
        assert isinstance(exc.partial, list)
        assert "slots_complete" in exc.progress
        db_sets = [frozenset(t) for t in small_db]
        for items, support in exc.partial:
            assert support == _support_of(items, db_sets)

    def test_distributed_unbounded_unaffected(self, small_db):
        from repro.core.rank import sort_key
        from repro.parallel.distributed import mine_distributed

        pairs, _, _ = mine_distributed(small_db, 4, n_nodes=2)
        expected = sorted(
            (tuple(sorted(fi.items, key=sort_key)), fi.support)
            for fi in mine_frequent_itemsets(small_db, 4)
        )
        assert sorted(pairs) == expected


class TestBlockGranularPartials:
    """The conditional top level writes each rank's singles, pairs and
    lattice-leaf itemsets as array blocks and charges them to the cap as
    one batch per rank.  Whatever the cap, a partial stays exact, capped
    and complete from ``complete_from_rank`` up."""

    SUPPORT = 5

    @pytest.fixture(scope="class")
    def quest(self):
        from repro.data.quest import generate_quest

        db = generate_quest(n_transactions=300, n_items=40, avg_transaction_len=8, seed=3)
        return PLT.from_transactions(db, self.SUPPORT)

    @pytest.fixture(scope="class")
    def lattice_ranks(self, quest):
        import repro.core.conditional as cond

        masks = []
        lattice_leaves = cond._lattice_leaves

        def recording(*args, **kwargs):
            ranks, blocks = lattice_leaves(*args, **kwargs)
            masks.append(ranks)
            return ranks, blocks

        cond._lattice_leaves = recording
        try:
            mine_conditional(quest, self.SUPPORT)
        finally:
            cond._lattice_leaves = lattice_leaves
        (mask,) = masks
        ranks = set(mask.nonzero()[0].tolist())
        # the top level takes both branches on this input
        assert ranks and len(ranks) < quest.max_rank()
        return ranks

    @staticmethod
    def _caps(n):
        return sorted({1, 2, 3, 7, n // 50, n // 10, n // 4, n // 2, 3 * n // 4, n - 1, n})

    def _check(self, full, partial, cap, marker):
        mined = dict(partial)
        assert len(mined) == len(partial) <= cap
        for ranks, support in mined.items():
            assert full[ranks] == support
        if marker is not None:
            for ranks, support in full.items():
                if ranks[-1] >= marker:
                    assert mined.get(ranks) == support

    def test_serial_partials(self, quest, lattice_ranks):
        full = dict(mine_conditional(quest, self.SUPPORT))
        tripped_at = set()
        for cap in self._caps(len(full)):
            governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
            try:
                complete = mine_conditional(quest, self.SUPPORT, governor=governor)
            except BudgetExceeded as exc:
                assert exc.reason == "max_itemsets"
                marker = exc.progress["complete_from_rank"]
                self._check(full, exc.partial, cap, marker)
                tripped_at.add(marker - 1)
            else:
                assert cap == len(full) and dict(complete) == full
        # trips landed in lattice ranks and in tidset ranks
        assert tripped_at & lattice_ranks and tripped_at - lattice_ranks

    def test_parallel_partials(self, quest, lattice_ranks):
        from repro.parallel import mine_parallel

        full = dict(mine_conditional(quest, self.SUPPORT))
        for cap in self._caps(len(full)):
            governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
            try:
                complete = mine_parallel(quest, self.SUPPORT, n_workers=2, governor=governor)
            except MiningInterrupted as exc:
                self._check(full, exc.partial, cap, exc.progress["complete_from_rank"])
            else:
                assert cap == len(full) and dict(complete) == full
