"""Differential suite: sketch estimates vs exact PLT supports, 20 seeds.

The acceptance bar: on seeded databases, every 1-/2-itemset estimate is
within the advertised additive bound of the exact support, never below
it (conservative update), under a fixed memory cap — plus a drift
scenario where the sliding-window sketch tracks a distribution change
the whole-stream sketch misses.
"""

import random
from itertools import combinations

import pytest

from repro.core.plt import PLT
from repro.stream.summary import StreamSummary
from repro.stream.window import SlidingWindowSketch

#: Fixed memory cap every differential sketch must fit in (bytes).
MEMORY_CAP = 512 * 1024

EPSILON = 0.01
DELTA = 0.01


def _seeded_db(seed, n=400, universe=25, max_len=7):
    rng = random.Random(seed)
    return [
        tuple(set(rng.sample(range(universe), rng.randint(1, max_len))))
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_sketch_within_bound_of_exact_plt(seed):
    db = _seeded_db(seed)
    summary = StreamSummary(epsilon=EPSILON, delta=DELTA, capacity=128, seed=seed)
    for t in db:
        summary.push(t)
    assert summary.memory_bytes() <= MEMORY_CAP

    plt = PLT.from_transactions(db, 1)
    universe = sorted({i for t in db for i in t})

    item_bound = summary.error_bound(1)
    violations = []
    for item in universe:
        true = plt.support_of({item})
        est = summary.estimate((item,))
        assert est >= true, f"seed {seed}: under-report on {item}"
        if est > true + item_bound:
            violations.append(("item", item, est, true))

    pair_bound = summary.error_bound(2)
    for a, b in combinations(universe, 2):
        true = plt.support_of({a, b})
        est = summary.estimate((a, b))
        assert est >= true, f"seed {seed}: under-report on {(a, b)}"
        if est > true + pair_bound:
            violations.append(("pair", (a, b), est, true))

    # the (eps, delta) guarantee is per query w.p. >= 1-delta; across the
    # full cross-product a handful of excursions is within contract
    n_queries = len(universe) + len(universe) * (len(universe) - 1) // 2
    assert len(violations) <= max(1, int(n_queries * DELTA)), violations


@pytest.mark.parametrize("seed", range(0, 20, 4))
def test_heavy_hitters_enumerate_true_frequent_items(seed):
    """Anything truly above the space-saving floor must appear in top-k."""
    db = _seeded_db(seed)
    summary = StreamSummary(epsilon=EPSILON, delta=DELTA, capacity=128, seed=seed)
    for t in db:
        summary.push(t)
    plt = PLT.from_transactions(db, 1)
    universe = sorted({i for t in db for i in t})
    floor = summary.items_hh.total / summary.items_hh.capacity
    monitored = {e[0] for e in summary.items_hh.entries()}
    for item in universe:
        if plt.support_of({item}) > floor:
            rank = summary.registry.rank_for(item, create=False)
            assert rank in monitored


def test_degradation_policy_sketch_matches_direct_summary():
    """The governor's sketch fallback is the same one-pass summary."""
    from repro.core.mining import ApproximateResult, mine_frequent_itemsets
    from repro.robustness.governor import DegradationPolicy, MiningBudget

    db = _seeded_db(99)
    result = mine_frequent_itemsets(
        db,
        20,
        budget=MiningBudget(max_itemsets=1),
        degradation=DegradationPolicy(fallback="sketch", epsilon=0.02, seed=0),
    )
    assert isinstance(result, ApproximateResult)
    assert result.method.endswith("+approx-sketch")
    assert result.info["fallback"] == "sketch"
    assert result.info["stop_reason"] == "max_itemsets"

    direct = StreamSummary(epsilon=0.02, delta=0.01, capacity=256, seed=0)
    direct.extend(db)  # fed the way the fallback feeds it: one extend call
    assert result.as_dict() == direct.as_result(20).as_dict()

    exact = mine_frequent_itemsets(db, 20).as_dict()
    for itemset, est in result.as_dict().items():
        if itemset in exact:
            assert est >= exact[itemset]


class TestDrift:
    """A hard distribution change: the window tracks it, the whole-stream
    sketch keeps reporting the dead regime."""

    @staticmethod
    def _phases(n=1500):
        old = [("old_a", "old_b")] * n
        new = [("new_a", "new_b")] * n
        return old, new

    def test_window_tracks_change_whole_stream_misses_it(self):
        old, new = self._phases()
        whole = StreamSummary(epsilon=0.01, capacity=32)
        window = SlidingWindowSketch(300, buckets=4, epsilon=0.01, capacity=32)
        for t in old + new:
            whole.push(t)
            window.push(t)

        # the window has fully rotated onto the new regime: the old pattern
        # is gone from its answers, dominated by the new one
        w_old = window.estimate(("old_a", "old_b"))
        w_new = window.estimate(("new_a", "new_b"))
        assert w_old <= window.error_bound(2)
        assert w_new >= window.covered() - window.error_bound(2)
        top = {tuple(fi.items) for fi in window.top_k(4)}
        assert ("new_a", "new_b") in top
        assert ("old_a", "old_b") not in top

        # the whole-stream sketch still reports the dead regime as heavy —
        # right for "all time", wrong for "now"
        assert whole.estimate(("old_a", "old_b")) >= len(old)
        stale = {tuple(fi.items) for fi in whole.top_k(6)}
        assert ("old_a", "old_b") in stale

    def test_windowed_estimates_stay_one_sided_under_churn(self):
        rng = random.Random(3)
        window = SlidingWindowSketch(200, buckets=4, epsilon=0.02, capacity=64)
        recent = []
        for step in range(1200):
            t = tuple(set(rng.sample(range(step // 100, step // 100 + 10), 3)))
            window.push(t)
            recent.append(t)
            recent = recent[-200:]
        covered = recent[-window.covered() :]
        for probe in {i for t in covered for i in t}:
            true = sum(1 for t in covered if probe in t)
            assert window.estimate((probe,)) >= true
