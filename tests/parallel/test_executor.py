"""Tests for the multiprocessing executors (exactness, not speed)."""

import os
import time

import pytest

from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.topdown import topdown_subset_frequencies
from repro.errors import (
    DegradedExecutionWarning,
    ParallelExecutionError,
    TopDownExplosionError,
)
from repro.parallel import shm
from repro.parallel.executor import (
    _run_batches,
    default_workers,
    mine_parallel,
    topdown_parallel,
)
from repro.robustness.retry import RetryPolicy
from tests.conftest import random_database

NO_WAIT = RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


# -- module-level workers: picklable, and (via the parent-pid guard) able to
# -- misbehave only inside pool processes, so the in-process fallback works
def _double(batch):
    parent_pid, value = batch
    return value * 2


def _wedge_in_child(batch):
    parent_pid, value = batch
    if os.getpid() != parent_pid:
        time.sleep(60)  # wedged worker: never returns within the deadline
    return value * 2


def _die_in_child(batch):
    parent_pid, value = batch
    if os.getpid() != parent_pid:
        os._exit(13)  # killed worker: the pool never gets a result back
    return value * 2


def _raise_in_child(batch):
    parent_pid, value = batch
    if os.getpid() != parent_pid:
        raise ValueError("flaky worker")
    return value * 2


def _always_raise(batch):
    raise ValueError("broken batch")


class TestMineParallel:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_matches_serial(self, paper_plt, n_workers):
        serial = sorted(mine_conditional(paper_plt, 2))
        parallel = sorted(mine_parallel(paper_plt, 2, n_workers=n_workers))
        assert parallel == serial

    @pytest.mark.parametrize("seed", range(4))
    def test_random_databases(self, seed):
        db = random_database(seed + 700, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        serial = sorted(mine_conditional(plt, 2))
        assert sorted(mine_parallel(plt, 2, n_workers=2)) == serial

    def test_max_len_propagates(self, paper_plt):
        pairs = mine_parallel(paper_plt, 2, n_workers=2, max_len=1)
        assert all(len(r) == 1 for r, _ in pairs)

    def test_empty_plt(self):
        plt = PLT.from_transactions([], 1)
        assert mine_parallel(plt, 1, n_workers=2) == []

    def test_default_support_from_plt(self, paper_plt):
        assert sorted(mine_parallel(paper_plt, n_workers=1)) == sorted(
            mine_conditional(paper_plt, 2)
        )

    def test_single_worker_stays_in_process(self, paper_plt, monkeypatch):
        # poisoning Pool proves the n_workers=1 path never spawns
        import multiprocessing

        def boom(*a, **k):  # pragma: no cover - must not be called
            raise AssertionError("Pool must not be used for one worker")

        monkeypatch.setattr(multiprocessing, "Pool", boom)
        result = mine_parallel(paper_plt, 2, n_workers=1)
        assert len(result) == 13

    def test_facade_method(self, paper_db):
        from repro.core.mining import mine_frequent_itemsets

        a = mine_frequent_itemsets(paper_db, 2, method="plt-parallel", n_workers=2)
        b = mine_frequent_itemsets(paper_db, 2, method="plt")
        assert a == b


class TestTopdownParallel:
    def test_matches_serial(self, paper_plt):
        serial = topdown_subset_frequencies(paper_plt)
        parallel = topdown_parallel(paper_plt, n_workers=2)
        assert parallel == serial

    @pytest.mark.parametrize("seed", range(3))
    def test_random(self, seed):
        db = random_database(seed + 800, max_items=8, max_transactions=30)
        plt = PLT.from_transactions(db, 1)
        assert topdown_parallel(plt, n_workers=3) == topdown_subset_frequencies(plt)

    def test_work_limit_guard(self):
        plt = PLT.from_transactions([tuple(range(30))], 1)
        with pytest.raises(TopDownExplosionError):
            topdown_parallel(plt, n_workers=2, work_limit=100)

    def test_empty(self):
        plt = PLT.from_transactions([], 1)
        assert topdown_parallel(plt, n_workers=2) == {}


class TestHardening:
    """Wedged, killed, or crashing workers must not hang or corrupt runs."""

    def batches(self, n=2):
        return [(os.getpid(), v) for v in range(1, n + 1)]

    def test_healthy_batches_run_in_pool(self):
        assert _run_batches(
            _double, self.batches(3), timeout=30.0, retry=NO_WAIT, what="t"
        ) == [2, 4, 6]

    def test_wedged_worker_times_out_then_degrades(self):
        with pytest.warns(DegradedExecutionWarning, match="degrading"):
            results = _run_batches(
                _wedge_in_child,
                self.batches(),
                timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
                what="wedge-test",
            )
        assert results == [2, 4]

    def test_killed_worker_times_out_then_degrades(self):
        with pytest.warns(DegradedExecutionWarning):
            results = _run_batches(
                _die_in_child, self.batches(), timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
                what="kill-test",
            )
        assert results == [2, 4]

    def test_lost_worker_reported_as_worker_lost(self):
        # the degraded-mode warning must say a worker was lost (taxonomy:
        # WorkerLostError), not just that some deadline passed
        with pytest.warns(DegradedExecutionWarning, match="worker wedged or"):
            results = _run_batches(
                _die_in_child, self.batches(), timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
                what="lost-test",
            )
        assert results == [2, 4]

    def test_worker_lost_error_carries_batch_rank(self):
        from repro.errors import WorkerLostError
        from repro.parallel.executor import _batch_rank

        meta = {"name": "plt_shm_test", "layout": ()}
        # conditional batches are rank ranges:
        # (meta, lo, hi, min_support, max_len, budget) -> report lo
        assert _batch_rank((meta, 7, 9, 2, None, None)) == 7
        # top-down batches carry stored-path indices, not ranks
        assert _batch_rank((meta, 0, 40)) is None
        err = WorkerLostError("lost", rank=7)
        assert err.rank == 7 and err.node_id == 7

    def test_worker_exception_retried_then_degrades(self):
        with pytest.warns(DegradedExecutionWarning, match="flaky worker"):
            results = _run_batches(
                _raise_in_child, self.batches(), timeout=30.0, retry=NO_WAIT,
                what="raise-test",
            )
        assert results == [2, 4]

    def test_genuinely_broken_batch_raises_after_fallback(self):
        with pytest.warns(DegradedExecutionWarning):
            with pytest.raises(ParallelExecutionError, match="even in-process"):
                _run_batches(
                    _always_raise, self.batches(), timeout=30.0, retry=NO_WAIT,
                    what="broken-test",
                )

    def test_mine_parallel_accepts_timeout_and_retry(self, paper_plt):
        pairs = mine_parallel(
            paper_plt, 2, n_workers=2, timeout=60.0, retry=NO_WAIT
        )
        assert sorted(pairs) == sorted(mine_conditional(paper_plt, 2))

    def test_topdown_parallel_accepts_timeout_and_retry(self, paper_plt):
        assert topdown_parallel(
            paper_plt, n_workers=2, timeout=60.0, retry=NO_WAIT
        ) == topdown_subset_frequencies(paper_plt)


class TestDefaults:
    def test_default_workers_bounds(self):
        w = default_workers()
        assert 1 <= w <= 8


class _CountingPoolFactory:
    """Wraps the default pool factory and counts constructions."""

    def __init__(self):
        import multiprocessing as mp

        self._mp = mp
        self.count = 0

    def __call__(self, n_processes):
        self.count += 1
        return self._mp.Pool(processes=n_processes)


class TestPoolReuse:
    """One pool must serve every retry round unless a worker died.

    Regression guard for the per-round ``mp.Pool`` churn ``_run_batches``
    used to exhibit: spawning a fresh pool per attempt paid fork+teardown
    on every retry even when the incumbent workers were perfectly
    healthy.
    """

    def batches(self, n=2):
        return [(os.getpid(), v) for v in range(1, n + 1)]

    def test_healthy_run_builds_one_pool(self):
        factory = _CountingPoolFactory()
        assert _run_batches(
            _double, self.batches(3), timeout=30.0, retry=NO_WAIT,
            what="count-test", pool_factory=factory,
        ) == [2, 4, 6]
        assert factory.count == 1

    def test_worker_exception_reuses_the_pool(self):
        # a raise inside a worker leaves the pool healthy: both the retry
        # round and the first round must run in the SAME pool
        factory = _CountingPoolFactory()
        with pytest.warns(DegradedExecutionWarning, match="flaky worker"):
            results = _run_batches(
                _raise_in_child, self.batches(), timeout=30.0, retry=NO_WAIT,
                what="reuse-test", pool_factory=factory,
            )
        assert results == [2, 4]
        assert factory.count == 1

    def test_dead_worker_forces_a_fresh_pool(self):
        # a SIGKILLed/exited worker poisons the pool: the retry round must
        # build a new one instead of dispatching into a broken pool
        factory = _CountingPoolFactory()
        with pytest.warns(DegradedExecutionWarning):
            results = _run_batches(
                _die_in_child, self.batches(), timeout=0.75,
                retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
                what="dead-pool-test", pool_factory=factory,
            )
        assert results == [2, 4]
        assert factory.count == 2


class TestKeptPool:
    """One pool serves consecutive calls; it never pins a segment, and a
    call that may leave a worker busy or dead terminates it instead."""

    @pytest.fixture(autouse=True)
    def no_kept_pool(self):
        shm.shutdown_pool()
        yield
        shm.shutdown_pool()

    @pytest.fixture
    def pools_built(self, monkeypatch):
        import multiprocessing

        built = []
        real = multiprocessing.Pool

        def counting(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(multiprocessing, "Pool", counting)
        return built

    def batches(self, n=2):
        return [(os.getpid(), v) for v in range(1, n + 1)]

    def run(self, worker, n=2, timeout=30.0, retry=NO_WAIT, governor=None):
        return _run_batches(
            worker, self.batches(n), timeout=timeout, retry=retry,
            what="kept-test", governor=governor,
            pool_factory=shm.borrow_pool, keep_pool=shm.keep_pool,
        )

    def test_consecutive_calls_share_one_pool(self, pools_built):
        db = random_database(2101, max_items=10, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        for _ in range(3):
            assert topdown_parallel(plt, n_workers=2) == topdown_subset_frequencies(plt)
            assert sorted(mine_parallel(plt, 2, n_workers=2)) == sorted(
                mine_conditional(plt, 2)
            )
        assert len(pools_built) == 1
        assert shm._KEPT == pools_built

    def test_larger_request_replaces_the_kept_pool(self, pools_built):
        assert self.run(_double) == [2, 4]
        assert self.run(_double, n=3) == [2, 4, 6]
        assert len(pools_built) == 2
        assert shm._KEPT == [pools_built[1]]
        assert self.run(_double) == [2, 4]  # 3 workers >= 2: reused
        assert len(pools_built) == 2

    def test_raising_worker_keeps_the_pool(self, pools_built):
        with pytest.warns(DegradedExecutionWarning, match="flaky worker"):
            assert self.run(_raise_in_child) == [2, 4]
        assert shm._KEPT == pools_built

    def test_dead_worker_drops_the_pool(self, pools_built):
        with pytest.warns(DegradedExecutionWarning):
            assert self.run(
                _die_in_child, timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
            ) == [2, 4]
        assert shm._KEPT == []

    def test_driver_trip_drops_the_pool(self, pools_built):
        from repro.errors import BudgetExceeded
        from repro.robustness.governor import MiningBudget, ResourceGovernor

        governor = ResourceGovernor(MiningBudget(deadline=0.2)).start()
        with pytest.raises(BudgetExceeded):
            self.run(_wedge_in_child, governor=governor)
        assert shm._KEPT == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_kept_workers_map_no_segment(self):
        # the pool is forked while the driver maps the call's segment;
        # its workers must not keep that (unlinked) mapping alive
        db = random_database(2102, max_items=10, max_transactions=60)
        plt = PLT.from_transactions(db, 1)
        topdown_parallel(plt, n_workers=2)
        pids = [proc.pid for proc in shm._KEPT[0]._pool]
        deadline = time.monotonic() + 10.0
        while True:
            mapped = []
            for pid in pids:
                with open(f"/proc/{pid}/maps") as fh:
                    mapped += [line for line in fh if "plt_shm_" in line]
            if not mapped or time.monotonic() > deadline:
                break
            time.sleep(0.05)  # a worker may still be running its initializer
        assert mapped == []

    def test_forked_child_does_not_inherit_the_kept_pool(self):
        import multiprocessing

        assert self.run(_double) == [2, 4]
        assert len(shm._KEPT) == 1
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        child = ctx.Process(target=_report_kept, args=(queue,))
        child.start()
        child.join(30)
        assert queue.get() == (0, 1)
        assert len(shm._KEPT) == 1  # the parent's pool is untouched
        assert self.run(_double) == [2, 4]


def _report_kept(queue):
    queue.put((len(shm._KEPT), len(shm._INHERITED)))
