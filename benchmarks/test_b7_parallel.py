"""B7 — parallel decomposition quality (ICPP venue / paper §6 claim).

Two measurements:

* wall time through a real process pool at 1/2/4 workers — on the
  single-core reference container this shows only the decomposition
  overhead (EXPERIMENTS.md records the caveat), and
* the LPT **makespan model** from measured per-task CPU times, recorded in
  ``extra_info`` — the projected speedup on a k-core host.  The
  reproduction target is near-linear model speedup (task granularity is
  fine and LPT balances it).
"""

import pytest

from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional_paths
from repro.parallel import conditional_tasks, lpt_partition, mine_parallel

from conftest import abs_support


@pytest.fixture(scope="module")
def task_times(sparse_plt):
    import time

    tasks = conditional_tasks(sparse_plt, sparse_plt.min_support)
    times = []
    for t in tasks:
        start = time.perf_counter()
        mine_conditional_paths(t.prefixes, t.rank, sparse_plt.min_support, RankColumns())
        times.append(time.perf_counter() - start)
    return times


@pytest.mark.parametrize("workers", (1, 2, 4))
def test_b7_pool_wall_time(benchmark, sparse_plt, workers, task_times):
    benchmark.group = "B7 parallel"
    result = benchmark.pedantic(
        mine_parallel,
        args=(sparse_plt, sparse_plt.min_support),
        kwargs={"n_workers": workers},
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    total = sum(task_times)
    bins = lpt_partition(
        list(range(len(task_times))), [int(s * 1e6) for s in task_times], workers
    )
    makespan = max(sum(task_times[i] for i in b) for b in bins if b)
    benchmark.extra_info.update(
        {
            "n_itemsets": len(result),
            "model_makespan_s": round(makespan, 4),
            "model_speedup": round(total / makespan, 2),
        }
    )


def test_b7_model_speedup_near_linear(task_times):
    """The decomposition itself must not be the bottleneck."""
    total = sum(task_times)
    for workers in (2, 4):
        bins = lpt_partition(
            list(range(len(task_times))), [int(s * 1e6) for s in task_times], workers
        )
        makespan = max(sum(task_times[i] for i in b) for b in bins if b)
        assert total / makespan > 0.75 * workers, workers


def test_b7_parallel_equals_serial(sparse_plt):
    from repro.core.conditional import mine_conditional

    serial = sorted(mine_conditional(sparse_plt, sparse_plt.min_support))
    parallel = sorted(
        mine_parallel(sparse_plt, sparse_plt.min_support, n_workers=4)
    )
    assert parallel == serial
