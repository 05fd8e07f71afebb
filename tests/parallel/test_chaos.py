"""Chaos suite: distributed mining must be *exact* under injected faults.

Property-style sweeps over the fault space.  Every test compares the
itemsets mined under faults against the sequential conditional miner's
ground truth — not "roughly right", byte-identical after canonical
sorting.  The protocol's claim (docs/FAULT_TOLERANCE.md) is fail-stop:
recoverable faults never change the output, unrecoverable ones raise.
"""

import pytest

from repro.core.mining import mine_frequent_itemsets
from repro.errors import CrashedNodeError, InvalidParameterError
from repro.parallel.distributed import mine_distributed
from repro.parallel.faults import FaultPlan
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.retry import RetryPolicy
from tests.conftest import random_database

DB = [
    ("a", "b", "c"),
    ("a", "b"),
    ("a", "c", "d"),
    ("b", "c"),
    ("a", "b", "c", "d"),
    ("d", "e"),
    ("a", "e"),
    ("b", "d"),
    ("c", "e"),
    ("a", "b", "c"),
]
MIN_SUPPORT = 2


def ground_truth(db=DB, min_support=MIN_SUPPORT):
    res = mine_frequent_itemsets(db, min_support)
    return sorted((tuple(sorted(fi.items)), fi.support) for fi in res)


TRUTH = ground_truth()


def assert_exact(plan, *, n_nodes=3, db=DB, min_support=MIN_SUPPORT, truth=None):
    pairs, stats, _ = mine_distributed(
        db, min_support, n_nodes=n_nodes, fault_plan=plan
    )
    assert sorted(pairs) == (TRUTH if truth is None else truth), plan
    return stats


def clean_message_count(n_nodes=3):
    _, stats, _ = mine_distributed(DB, MIN_SUPPORT, n_nodes=n_nodes)
    return stats.messages


class TestDropSweep:
    """Acceptance: exact results when any single message is lost."""

    def test_every_message_dropped_once(self):
        total = clean_message_count()
        assert total > 0
        for index in range(total):
            stats = assert_exact(FaultPlan(drop={index}))
            assert stats.dropped == 1
            assert stats.retransmits >= 1  # the loss was actually repaired

    def test_bursty_drops(self):
        for start in range(0, clean_message_count(), 5):
            assert_exact(FaultPlan(drop=set(range(start, start + 3))))


class TestCorruptionSweep:
    """Acceptance: exact results when any single payload is corrupted."""

    def test_every_message_corrupted_once(self):
        total = clean_message_count()
        for index in range(total):
            stats = assert_exact(FaultPlan(corrupt={index}))
            assert stats.corrupted == 1
            # CRC catches the damage; the frame is rejected then retransmitted
            assert stats.rejected_frames >= 1
            assert stats.retransmits >= 1

    def test_corrupted_and_dropped_together(self):
        assert_exact(FaultPlan(drop={2}, corrupt={5, 9}, duplicate={1}))


class TestDuplicateAndDelay:
    def test_every_message_duplicated_once(self):
        for index in range(clean_message_count()):
            stats = assert_exact(FaultPlan(duplicate={index}))
            assert stats.duplicated == 1

    def test_every_message_delayed(self):
        for index in range(clean_message_count()):
            assert_exact(FaultPlan(delay={index: 3}))


class TestCrashSweep:
    """Acceptance: exact results when any worker crashes at any superstep."""

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_single_worker_crash_any_superstep(self, n_nodes):
        # fault-free runs finish in <= 8 supersteps; also cover the tail
        # where the crash happens during recovery-free wind-down
        for node in range(1, n_nodes):
            for superstep in range(0, 10):
                stats = assert_exact(
                    FaultPlan(crashes={node: superstep}), n_nodes=n_nodes
                )
                if stats.supersteps > superstep:
                    assert stats.crashed_nodes == [node]
                else:  # the run finished before the scheduled crash
                    assert stats.crashed_nodes == []

    def test_crash_triggers_failover_accounting(self):
        stats = assert_exact(FaultPlan(crashes={1: 2}), n_nodes=3)
        assert stats.failovers == 1
        assert stats.checkpoint_reads >= 1  # the successor replayed state

    def test_two_workers_crash(self):
        for plan in (
            FaultPlan(crashes={1: 2, 2: 2}),
            FaultPlan(crashes={1: 1, 2: 20}),
            FaultPlan(crashes={1: 20, 2: 1}),
        ):
            assert_exact(plan, n_nodes=4)

    def test_crash_under_message_loss(self):
        assert_exact(
            FaultPlan(seed=13, crashes={2: 3}, drop_rate=0.1), n_nodes=3
        )

    def test_coordinator_crash_raises(self):
        with pytest.raises(CrashedNodeError):
            mine_distributed(
                DB, MIN_SUPPORT, n_nodes=3, fault_plan=FaultPlan(crashes={0: 2})
            )

    def test_crash_outside_cluster_rejected(self):
        # a crash that could never fire is a mistyped plan, not a no-op
        with pytest.raises(InvalidParameterError, match=r"\[3\] outside"):
            mine_distributed(
                DB, MIN_SUPPORT, n_nodes=3, fault_plan=FaultPlan(crashes={3: 2})
            )

    def test_sole_node_crash_raises(self):
        with pytest.raises(CrashedNodeError):
            mine_distributed(
                DB, MIN_SUPPORT, n_nodes=1, fault_plan=FaultPlan(crashes={0: 0})
            )


class TestRandomRates:
    """Seeded Bernoulli fault storms; deterministic, so failures replay."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lossy_network(self, seed):
        assert_exact(
            FaultPlan(
                seed=seed,
                drop_rate=0.08,
                corrupt_rate=0.05,
                duplicate_rate=0.08,
                delay_rate=0.08,
            ),
            n_nodes=4,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_databases_under_faults(self, seed):
        db = random_database(seed + 3000, max_items=9, max_transactions=40)
        truth = ground_truth(db, 2)
        plan = FaultPlan(seed=seed, drop_rate=0.1, crashes={1: 4})
        pairs, _, _ = mine_distributed(db, 2, n_nodes=3, fault_plan=plan)
        assert sorted(pairs) == truth


class TestDeterminism:
    """Same seed -> identical stats *and* identical output, twice."""

    def test_same_plan_same_everything(self):
        plan = FaultPlan(
            seed=77, drop_rate=0.12, corrupt_rate=0.05, duplicate_rate=0.1,
            delay_rate=0.1, crashes={3: 4},
        )
        # a 12% sustained drop rate can exhaust the default 3-retry budget
        # (the documented fail-stop); give the channel more headroom
        generous = RetryPolicy(max_retries=6, base_delay=1.0, max_delay=8.0)
        runs = [
            mine_distributed(
                DB, MIN_SUPPORT, n_nodes=4, fault_plan=plan, retry=generous
            )
            for _ in range(2)
        ]
        (p1, s1, t1), (p2, s2, t2) = runs
        assert p1 == p2
        assert s1.deterministic_summary() == s2.deterministic_summary()
        assert t1.items() == t2.items()
        assert sorted(p1) == TRUTH

    def test_fault_free_equals_faulty_output(self):
        """The headline guarantee: recovery reproduces the fault-free run."""
        clean, _, _ = mine_distributed(DB, MIN_SUPPORT, n_nodes=4)
        faulty, _, _ = mine_distributed(
            DB,
            MIN_SUPPORT,
            n_nodes=4,
            fault_plan=FaultPlan(seed=5, drop_rate=0.1, crashes={2: 3}),
        )
        assert faulty == clean  # same order, same pairs — byte-identical


class TestCheckpointReuse:
    def test_preexisting_checkpoints_short_circuit_recovery(self):
        """A successor finds the dead node's slices already checkpointed."""
        store = CheckpointStore()
        # first run populates the store (partitions + slices + results)
        mine_distributed(DB, MIN_SUPPORT, n_nodes=3, checkpoint_store=store)
        writes_before = store.writes
        pairs, stats, _ = mine_distributed(
            DB,
            MIN_SUPPORT,
            n_nodes=3,
            checkpoint_store=store,
            fault_plan=FaultPlan(crashes={1: 2}),
        )
        assert sorted(pairs) == TRUTH
        assert stats.checkpoint_reads >= 1

    def test_stats_expose_checkpoint_traffic(self):
        _, stats, _ = mine_distributed(DB, MIN_SUPPORT, n_nodes=3)
        assert stats.checkpoint_writes > 0  # slices + per-slot results
