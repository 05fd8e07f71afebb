"""Differential and chaos tests for the shared-memory parallel executors.

The contract under test: multi-worker mining over a shared FlatPLT is
*indistinguishable* from in-process mining — identical itemsets,
identical budget-trip behaviour, identical partial results — while
shipping a small fraction of the segment's bytes through the pool pipes,
leaking no ``/dev/shm`` segment on any exit path, and degrading to
in-process mining when no segment can be created.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional, mine_conditional_flat_range
from repro.core.plt import PLT
from repro.core.topdown import (
    _plt_lattice,
    topdown_flat_slice,
    topdown_subset_frequencies,
)
from repro.errors import BudgetExceeded, Cancelled, DegradedExecutionWarning
from repro.parallel.executor import mine_parallel, topdown_parallel
from repro.parallel.shm import plan_path_slices, plan_rank_ranges
from repro.perf.counters import COUNTERS, collecting
from repro.robustness.governor import (
    CancellationToken,
    MiningBudget,
    ResourceGovernor,
)
from tests.conftest import random_database


def _segments():
    return [f for f in os.listdir("/dev/shm") if f.startswith("plt_shm_")]


def _lattice_plt():
    """A PLT whose top level mixes lattice leaves and tidset ranks."""
    db = random_database(7705, max_items=14, max_transactions=80, min_transactions=60)
    return PLT.from_transactions(db, 3)


needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


class TestDifferential:
    """shm workers == the flat kernels in-process == the PLT miners, across
    many seeded databases."""

    @pytest.mark.parametrize("seed", range(20))
    def test_conditional_three_ways(self, seed):
        db = random_database(seed + 1000, max_items=11, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        serial = sorted(mine_conditional(plt, 2))
        flat = plt.flat
        kernel = RankColumns()
        mine_conditional_flat_range(flat, 1, flat.max_rank + 1, 2, kernel)
        shm_r = sorted(mine_parallel(plt, 2, n_workers=2))
        assert shm_r == sorted(kernel) == serial

    @pytest.mark.parametrize("seed", range(6))
    def test_topdown_three_ways(self, seed):
        db = random_database(seed + 1100, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        flat = plt.flat
        # one slice over every path is the whole lattice's packed column
        column = topdown_flat_slice(flat, 0, flat.n_paths)
        assert column.tolist() == _plt_lattice(plt).column().tolist()
        shm_r = topdown_parallel(plt, n_workers=2)
        assert shm_r == topdown_subset_frequencies(plt)

    @pytest.mark.parametrize("seed", [3, 13])
    def test_sweep_fallback_range_miner(self, seed, monkeypatch):
        # a cap of 0 mines one-rank strips, each counting its own rows of
        # the pair matrix.  The range workers' pool keeps its own cap, so
        # the ranges are mined in-process here, highest first, before any
        # driver precomputes the matrix; every seed's rank space splits
        # into two ranges or more (seed 13 into three)
        import repro.core.conditional as cond

        monkeypatch.setattr(cond, "_PAIR_MATRIX_MAX_CELLS", 0)
        strips = []
        count = cond._strip_supports

        def spy(*args):
            strips.append(args[-2:])
            return count(*args)

        monkeypatch.setattr(cond, "_strip_supports", spy)
        db = random_database(seed + 1200, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        serial = mine_conditional(plt, 2).pairs()
        flat = plt.flat
        ranges = plan_rank_ranges(flat, 2, 3)
        assert len(ranges) >= 2
        assert flat.pair_support_matrix() is None
        strips.clear()
        parts = []
        for lo, hi in reversed(ranges):
            part = RankColumns()
            mine_conditional_flat_range(flat, lo, hi, 2, part)
            parts += part.pairs()
        assert parts == serial
        assert strips == [(r, r + 1) for r in range(ranges[-1][1] - 1, ranges[0][0] - 1, -1)]
        shm_r = sorted(mine_parallel(plt, 2, n_workers=2))
        assert shm_r == sorted(serial)

    def test_lattice_ranks_straddle_the_range_boundary(self):
        # dense enough that the lowest ranks take the lattice leaves and
        # the top ranks the tidsets; both workers' ranges hold lattice
        # ranks, so the leaves run on either side of the boundary
        plt = _lattice_plt()
        flat = plt.flat
        ranges = plan_rank_ranges(flat, 3, 2)
        assert len(ranges) == 2
        parts = []
        for lo, hi in ranges:
            part = RankColumns()
            with collecting() as counts:
                mine_conditional_flat_range(flat, lo, hi, 3, part)
            assert counts["topdown_work_items"] > 0
            parts += part
        serial = sorted(mine_conditional(plt, 3))
        assert sorted(parts) == serial
        assert sorted(mine_parallel(plt, 3, n_workers=2)) == serial

    def test_max_len_respected(self):
        db = random_database(1300, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        shm_r = mine_parallel(plt, 2, n_workers=2, max_len=2)
        assert shm_r and all(len(i) <= 2 for i, _ in shm_r)
        assert sorted(shm_r) == sorted(mine_conditional(plt, 2, max_len=2))

    def test_empty_and_single_worker(self):
        assert mine_parallel(PLT.from_transactions([], 1), 1, n_workers=2) == []
        # one worker never leaves the process
        db = random_database(1301, max_items=8, max_transactions=30)
        plt = PLT.from_transactions(db, 2)
        assert sorted(mine_parallel(plt, 2, n_workers=1)) == sorted(
            mine_conditional(plt, 2)
        )

    def test_unknown_transport_rejected(self):
        # there is one transport: the old selector is not silently ignored
        from repro.core.mining import mine_frequent_itemsets

        db = random_database(1302, max_items=8, max_transactions=30)
        plt = PLT.from_transactions(db, 2)
        with pytest.raises(TypeError, match="transport"):
            mine_parallel(plt, 2, n_workers=2, transport="shm")
        with pytest.raises(TypeError, match="transport"):
            topdown_parallel(plt, n_workers=2, transport="shm")
        with pytest.raises(TypeError, match="transport"):
            mine_frequent_itemsets(
                db, 2, method="plt-parallel", n_workers=2, transport="shm"
            )


class TestPlanning:
    def test_rank_ranges_cover_frequent_span(self):
        db = random_database(1400, max_items=12, max_transactions=80)
        flat = PLT.from_transactions(db, 2).flat
        ranges = plan_rank_ranges(flat, 2, 3)
        assert ranges
        # contiguous, ordered, non-empty
        for (lo, hi), (lo2, _hi2) in zip(ranges, ranges[1:]):
            assert lo < hi == lo2
        sup = flat.rank_supports()
        frequent = [r for r, s in enumerate(sup) if r >= 1 and s >= 2]
        assert ranges[0][0] == frequent[0]
        assert ranges[-1][1] == frequent[-1] + 1

    def test_rank_ranges_empty_when_nothing_frequent(self):
        db = random_database(1401, max_items=8, max_transactions=20)
        flat = PLT.from_transactions(db, 1).flat
        assert plan_rank_ranges(flat, 10_000, 4) == []

    def test_path_slices_partition_all_paths(self):
        db = random_database(1402, max_items=9, max_transactions=50)
        flat = PLT.from_transactions(db, 2).flat
        slices = plan_path_slices(flat, 3)
        assert slices[0][0] == 0 and slices[-1][1] == flat.n_paths
        for (_, hi), (lo2, _) in zip(slices, slices[1:]):
            assert hi == lo2


class TestGoverned:
    """Budget trips must not depend on the worker count: one worker mines
    in-process, two mine over the shared segment."""

    def _plt(self):
        db = random_database(1500, max_items=11, max_transactions=70)
        return PLT.from_transactions(db, 2)

    def test_max_itemsets_trip_parity(self):
        plt = self._plt()
        outcomes = {}
        for n_workers in (1, 2):
            governor = ResourceGovernor(MiningBudget(max_itemsets=8))
            with pytest.raises(BudgetExceeded) as info:
                mine_parallel(plt, 2, n_workers=n_workers, governor=governor)
            outcomes[n_workers] = (info.value.reason, len(info.value.partial))
        assert outcomes[2] == outcomes[1]
        assert outcomes[2][0] == "max_itemsets"
        assert outcomes[2][1] == 8

    def test_partial_results_are_real_itemsets(self):
        plt = self._plt()
        serial = dict(mine_conditional(plt, 2))
        governor = ResourceGovernor(MiningBudget(max_itemsets=8))
        with pytest.raises(BudgetExceeded) as info:
            mine_parallel(plt, 2, n_workers=2, governor=governor)
        for itemset, support in info.value.partial:
            assert serial[itemset] == support

    def test_precancelled_token_parity(self):
        plt = self._plt()
        for n_workers in (1, 2):
            token = CancellationToken()
            token.cancel("stop requested")
            governor = ResourceGovernor(cancel=token)
            with pytest.raises(Cancelled):
                mine_parallel(plt, 2, n_workers=n_workers, governor=governor)

    def test_facade_partial_result_parity(self):
        from repro.core.mining import PartialResult, mine_frequent_itemsets

        db = random_database(1501, max_items=11, max_transactions=70)
        markers = {}
        for n_workers in (1, 2):
            result = mine_frequent_itemsets(
                db,
                2,
                method="plt-parallel",
                n_workers=n_workers,
                max_itemsets=8,
            )
            assert isinstance(result, PartialResult)
            markers[n_workers] = (result.stop_reason, len(result))
        assert markers[2] == markers[1]

    def test_trip_parity_across_lattice_ranks(self):
        plt = _lattice_plt()
        serial = dict(mine_conditional(plt, 3))
        cap = len(serial) // 2
        outcomes = {}
        for n_workers in (1, 2):
            governor = ResourceGovernor(MiningBudget(max_itemsets=cap))
            with pytest.raises(BudgetExceeded) as info:
                mine_parallel(plt, 3, n_workers=n_workers, governor=governor)
            for itemset, support in info.value.partial:
                assert serial[itemset] == support
            outcomes[n_workers] = (info.value.reason, len(info.value.partial))
        assert outcomes[1] == outcomes[2] == ("max_itemsets", cap)

    @needs_dev_shm
    def test_no_segment_leak_after_trip(self):
        before = set(_segments())
        self.test_max_itemsets_trip_parity()
        self.test_precancelled_token_parity()
        assert set(_segments()) == before


class TestIpcAccounting:
    def test_shm_ships_far_fewer_bytes(self):
        # needs a database big enough that the segment dwarfs the fixed
        # per-task meta dict (on toy inputs the two are comparable)
        from repro.data.datasets import load

        db = load("T10.I4.D1K")
        plt = PLT.from_transactions(db, min_support=10)
        with collecting():
            mine_parallel(plt, 10, n_workers=2)
            counts = COUNTERS.snapshot()
        assert 0 < counts["ipc_bytes_sent"] < counts["shm_segment_bytes"] / 10

    def test_topdown_at_scale_matches_serial_and_ships_few_bytes(self):
        from repro.data.datasets import load

        plt = PLT.from_transactions(load("DENSE-16.D5K"), min_support=250)
        with collecting():
            got = topdown_parallel(plt, n_workers=2)
            counts = COUNTERS.snapshot()
        assert got == topdown_subset_frequencies(plt)
        assert 0 < counts["ipc_bytes_sent"] < counts["shm_segment_bytes"] / 10


@needs_dev_shm
class TestCleanup:
    def test_success_leaves_no_segments(self):
        before = set(_segments())
        db = random_database(1700, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        mine_parallel(plt, 2, n_workers=2)
        topdown_parallel(plt, n_workers=2)
        assert set(_segments()) == before

    def test_unreservable_segment_degrades_without_leak(self, monkeypatch):
        # a /dev/shm too small for the columns: page reservation fails
        # after the segment exists, which must still be unlinked
        import errno

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        before = set(_segments())
        db = random_database(1701, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        with pytest.warns(DegradedExecutionWarning, match="No space left"):
            got = sorted(mine_parallel(plt, 2, n_workers=2))
        assert got == sorted(mine_conditional(plt, 2))
        assert set(_segments()) == before

    def test_chaos_sigkilled_worker(self, tmp_path):
        """SIGKILL a worker mid-block: results still correct, no leaked
        segment, no resource_tracker noise at interpreter exit.

        Runs in a subprocess because the resource tracker only reports
        (and the tracker process only prints) at interpreter shutdown.
        """
        script = textwrap.dedent(
            """
            import json, os, sys
            from repro.core.conditional import mine_conditional
            from repro.core.plt import PLT
            from repro.parallel.executor import mine_parallel
            from repro.parallel.shm import CHAOS_KILL_ENV, plan_rank_ranges
            from repro.robustness.retry import RetryPolicy
            from tests.conftest import random_database
            import warnings

            db = random_database(1800, max_items=10, max_transactions=50)
            plt = PLT.from_transactions(db, 2)
            expected = sorted(mine_conditional(plt, 2))

            ranges = plan_rank_ranges(plt.flat, 2, 2)
            # poison the first range's task; the driver pid guard lets the
            # in-process degraded fallback survive and finish the mine
            os.environ[CHAOS_KILL_ENV] = f"{ranges[0][0]}:{os.getpid()}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # expected degrade warning
                got = sorted(mine_parallel(
                    plt, 2, n_workers=2, timeout=2.0,
                    retry=RetryPolicy(
                        max_retries=1, base_delay=0.0, max_delay=0.0
                    ),
                ))
            assert got == expected, "chaos results diverged"
            leaked = [
                f for f in os.listdir("/dev/shm") if f.startswith("plt_shm_")
            ]
            assert not leaked, f"leaked segments: {leaked}"
            print("CHAOS_OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "CHAOS_OK" in proc.stdout
        for needle in ("resource_tracker", "leaked", "KeyError"):
            assert needle not in proc.stderr, proc.stderr


class TestNoSegment:
    """Without a creatable segment, multi-worker mining runs in-process."""

    @pytest.fixture
    def no_dev_shm(self, monkeypatch):
        from multiprocessing import shared_memory

        def unavailable(*args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", "/dev/shm")

        monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)

    def test_conditional_degrades_to_in_process(self, no_dev_shm):
        db = random_database(1901, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        with pytest.warns(DegradedExecutionWarning, match="shared-memory"):
            got = sorted(mine_parallel(plt, 2, n_workers=2))
        assert got == sorted(mine_conditional(plt, 2))

    def test_topdown_degrades_to_in_process(self, no_dev_shm):
        db = random_database(1901, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        with pytest.warns(DegradedExecutionWarning, match="shared-memory"):
            got = topdown_parallel(plt, n_workers=2)
        assert got == topdown_subset_frequencies(plt)
