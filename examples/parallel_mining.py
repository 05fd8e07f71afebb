#!/usr/bin/env python3
"""Parallel PLT mining: the paper's partitioning claim in action.

Section 6 of the paper: "PLT provides partition criteria that makes it
easy to partition the mining process into several separate tasks; each can
be accomplished separately."  This example shows both decompositions:

* the conditional miner partitioned by top-level item, and
* the top-down pass partitioned by stored path,

verifying that the parallel results are bit-identical to the serial ones.

Because containers frequently expose a single CPU (this repo's reference
environment does), the example reports *two* speedup figures:

* measured wall-clock over a real process pool — honest but bounded by the
  physical core count of the host, and
* the **makespan model**: per-task CPU times are measured serially and the
  LPT bin loads give the wall time a k-core machine would see
  (``sum(task times) / max(bin loads)``).  On a multicore host the two
  converge; on one core only the model shows the decomposition quality.

Run:  python examples/parallel_mining.py
"""

import os
import time

from repro.core.conditional import mine_conditional, mine_conditional_block
from repro.core.plt import PLT
from repro.core.topdown import topdown_subset_frequencies
from repro.data.datasets import load
from repro.parallel import conditional_tasks, lpt_partition, mine_parallel, topdown_parallel


def main() -> None:
    db = load("T10.I4.D10K")
    min_support = max(1, int(0.002 * len(db)))
    plt = PLT.from_transactions(db, min_support)
    print(f"host CPUs: {os.cpu_count()}")
    print(f"workload: {len(db)} transactions, {len(plt.rank_table)} frequent items")
    print(f"PLT: {plt.n_vectors()} aggregated vectors, min_support={min_support}\n")

    tasks = conditional_tasks(plt, min_support)
    print(f"task decomposition: {len(tasks)} independent conditional tasks")
    sizes = sorted((t.cost_estimate() for t in tasks), reverse=True)
    print(f"  largest task ~{sizes[0]} positions, median ~{sizes[len(sizes) // 2]}\n")

    t0 = time.perf_counter()
    serial = sorted(mine_conditional(plt, min_support))
    t_serial = time.perf_counter() - t0
    print(f"serial conditional mining: {t_serial:.2f}s, {len(serial)} itemsets")

    # measured wall time through a real pool (bounded by physical cores)
    for workers in (2, 4):
        t0 = time.perf_counter()
        parallel = sorted(mine_parallel(plt, min_support, n_workers=workers))
        elapsed = time.perf_counter() - t0
        assert parallel == serial, "parallel result must match serial"
        print(f"pool ({workers} workers): {elapsed:.2f}s  measured x{t_serial / elapsed:.2f}")

    # makespan model: time each task once, report LPT bin balance
    per_task = []
    for t in tasks:
        t0 = time.perf_counter()
        mine_conditional_block(t.prefixes, t.rank, min_support, lambda *_: None)
        per_task.append(time.perf_counter() - t0)
    total = sum(per_task)
    print(f"\nmakespan model (total task CPU {total:.2f}s):")
    for workers in (2, 4, 8):
        bins = lpt_partition(list(range(len(tasks))), [int(s * 1e6) for s in per_task], workers)
        makespan = max(sum(per_task[i] for i in b) for b in bins if b)
        print(f"  {workers} workers: projected {makespan:.2f}s  speedup x{total / makespan:.2f}")

    # Top-down decomposition on a dense slice (where top-down is viable).
    # NOTE: partitioning the top-down pass trades away cross-transaction
    # (vector, cursor) aggregation, so workers duplicate shared expansions
    # on dense data — the honest caveat to the paper's partitioning claim.
    dense = load("DENSE-30")
    plt_dense = PLT.from_transactions(dense, max(1, int(0.02 * len(dense))))
    print(f"\ntop-down pass on DENSE-30 ({plt_dense.n_vectors()} vectors):")
    t0 = time.perf_counter()
    serial_counts = topdown_subset_frequencies(plt_dense, work_limit=None)
    t_serial = time.perf_counter() - t0
    n_subsets = sum(len(b) for b in serial_counts.values())
    print(f"serial:             {t_serial:.2f}s  ({n_subsets} distinct subsets)")
    t0 = time.perf_counter()
    parallel_counts = topdown_parallel(plt_dense, n_workers=2, work_limit=None)
    elapsed = time.perf_counter() - t0
    assert parallel_counts == serial_counts
    print(
        f"pool (2 workers):   {elapsed:.2f}s  "
        f"(duplicated expansion: partitioning loses aggregation sharing)"
    )

    # Distributed mining on the simulated cluster: the PLT's partition
    # criterion as a message-passing algorithm, with every byte accounted.
    from repro.parallel.distributed import mine_distributed

    print("\ndistributed data-distribution mining (simulated cluster):")
    small = db.sample(3000, seed=1)
    min_sup = max(1, int(0.005 * len(small)))
    reference = None
    for nodes in (1, 2, 4, 8):
        pairs, stats, _ = mine_distributed(list(small), min_sup, n_nodes=nodes)
        if reference is None:
            reference = pairs
        assert pairs == reference, "distributed result must be node-count invariant"
        s = stats.summary()
        print(
            f"  {nodes} nodes: {s['bytes_sent']:>8} B in {s['messages']:>3} msgs, "
            f"compute {s['total_compute_s']:.2f}s, "
            f"modelled makespan {s['modelled_parallel_s']:.2f}s"
        )


if __name__ == "__main__":
    main()
