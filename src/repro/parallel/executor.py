"""Multiprocessing executors for PLT mining — hardened against bad pools.

Two exact (not approximate) parallel schemes, both over one shared-memory
:class:`~repro.core.flat.FlatPLT` segment (see :mod:`repro.parallel.shm`):

* :func:`mine_parallel` — parallel **conditional** mining.  Workers mine
  disjoint top-level rank ranges straight off the shared columns; results
  concatenate with no reconciliation because itemsets are partitioned by
  their maximal item (the paper's §6 partitioning).
* :func:`topdown_parallel` — parallel **top-down** subset lattice.
  Workers run the lattice kernel over disjoint slices of the stored
  paths; the driver merges their ``(keys, counts)`` tables with the same
  aggregation.

Both run in-process for one worker or a PLT with at most one vector, so
results and code paths stay testable without process overhead.  The
worker pool outlives the call: a call that ends with every worker
healthy keeps it for the next one (see :mod:`repro.parallel.shm`), so
repeated calls fork once.  When the
platform cannot create the segment (no ``/dev/shm``, or too little room)
they run in-process as well, under a
:class:`~repro.errors.DegradedExecutionWarning`, with the same answer.
With perf counters enabled, ``ipc_bytes_sent`` measures what dispatch
pushes through the pool pipes and ``shm_segment_bytes`` what the shared
segment holds instead.

Failure handling (see ``docs/FAULT_TOLERANCE.md``): every batch result is
collected with a per-batch **timeout** instead of a blocking ``pool.map``
— a wedged or killed worker can no longer hang the caller forever.
Failed or timed-out batches are retried per the
:class:`~repro.robustness.retry.RetryPolicy`; the pool is reused across
rounds while it is known-healthy (a worker that merely *raised* is back
on the task queue) and rebuilt only when a round saw a timeout or a torn
pipe — evidence of wedged or dead processes that ``terminate()`` must
reap.  Batches that still fail after the retry budget run in-process
sequentially — degraded but correct — with a
:class:`~repro.errors.DegradedExecutionWarning`.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections.abc import Callable, Sequence

from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.position import PositionVector
from repro.core.topdown import (
    DEFAULT_WORK_LIMIT,
    _flat_lattice,
    _plt_lattice,
    estimate_topdown_work,
)
from repro.data.transaction_db import check_max_len
from repro.errors import (
    BudgetExceeded,
    Cancelled,
    DegradedExecutionWarning,
    MiningInterrupted,
    ParallelExecutionError,
    TopDownExplosionError,
    WorkerLostError,
)
from repro.perf.counters import COUNTERS as _COUNTERS
from repro.parallel.shm import (
    SharedMemoryExecutor,
    borrow_pool,
    keep_pool,
    _shm_cond_range,
    _shm_topdown_slice,
    plan_path_slices,
    plan_rank_ranges,
)
from repro.robustness.governor import ResourceGovernor
from repro.robustness.retry import RetryPolicy

__all__ = [
    "mine_parallel",
    "topdown_parallel",
    "default_workers",
    "DEFAULT_BATCH_TIMEOUT",
    "DEFAULT_EXECUTOR_RETRY",
]

#: Per-batch result deadline in seconds.  Generous — it exists to turn
#: "hangs forever on a wedged worker" into "degrades after a bound", not
#: to police slow batches.  Pass ``timeout=None`` to wait indefinitely.
DEFAULT_BATCH_TIMEOUT = 300.0

#: One immediate retry on a fresh pool, then in-process fallback.
DEFAULT_EXECUTOR_RETRY = RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


def default_workers() -> int:
    """Worker count default: physical parallelism, capped for sanity."""
    return max(1, min(os.cpu_count() or 1, 8))


# ---------------------------------------------------------------------------
# the hardened batch runner
# ---------------------------------------------------------------------------
def _batch_rank(batch) -> int | None:
    """Lowest top-level rank of a conditional batch, for error reports.

    Conditional batches are rank ranges ``(meta, lo, hi, min_support,
    max_len, budget)`` and report ``lo``; top-down batches ``(meta, start,
    end)`` carry stored-path indices, not ranks, and yield ``None``.
    """
    if isinstance(batch, tuple) and len(batch) == 6:
        return batch[1]
    return None


def _run_batches(
    worker: Callable,
    batches: Sequence,
    *,
    timeout: float | None,
    retry: RetryPolicy | None,
    what: str,
    governor: ResourceGovernor | None = None,
    pool_factory: Callable | None = None,
    keep_pool: Callable | None = None,
) -> list:
    """Run ``worker(batch)`` for every batch on worker processes, reliably.

    Results are collected with a per-batch deadline via ``AsyncResult.get``
    (``pool.map`` would block forever on a wedged worker).  Failed or
    timed-out batches are retried; one pool is **reused across retry
    rounds** while it is known-healthy — a worker that merely raised an
    exception is already back on the task queue, so respawning the whole
    pool would only pay fork-and-import again.  The pool is rebuilt when a
    round observed a timeout or a torn result pipe (a worker wedged in a
    batch, or dead): ``terminate()`` reaps the old processes first.
    Whatever survives the retry budget runs in-process sequentially under
    a :class:`DegradedExecutionWarning`; an error even then is a genuine
    bug in the batch and is re-raised as :class:`ParallelExecutionError`.

    ``pool_factory`` (``n_processes -> pool``) customises pool
    construction; the default is a plain ``mp.Pool``.  The pool is
    terminated at the end unless ``keep_pool`` is given and the call
    finished with every worker healthy: then ``keep_pool(pool)`` takes it
    (the drivers hand it back to :func:`~repro.parallel.shm.keep_pool`
    for the next call).  When perf counters are enabled, every dispatched batch's
    pickled size is charged to ``ipc_bytes_sent`` — re-sent batches count
    again, because they are in fact sent again.

    With a ``governor``, the result wait is sliced so the driver runs its
    checks (token, deadline, memory) between waits; a trip terminates
    the pool (via the ``finally``) and raises with the results already
    collected attached as ``raw_results``.

    Returns results in batch order.
    """
    import multiprocessing as mp

    if retry is None:
        retry = DEFAULT_EXECUTOR_RETRY
    if pool_factory is None:
        def pool_factory(n_processes: int):
            return mp.Pool(processes=n_processes)
    results: list = [None] * len(batches)
    remaining = list(range(len(batches)))
    last_error: BaseException | None = None
    pool = None
    pool_dirty = False
    finished = False
    try:
        for attempt in range(retry.max_retries + 1):
            if not remaining:
                break
            if attempt:
                pause = retry.delay(attempt, key=what)
                if pause:
                    time.sleep(pause)
            if pool_dirty and pool is not None:
                pool.terminate()
                pool.join()
                pool = None
            if pool is None:
                try:
                    pool = pool_factory(len(remaining))
                except Exception as exc:  # pragma: no cover - resource exhaustion
                    last_error = exc
                    continue
                pool_dirty = False
            failed: list[int] = []
            if _COUNTERS.enabled:
                for i in remaining:
                    _COUNTERS.add(
                        "ipc_bytes_sent",
                        len(pickle.dumps(batches[i], pickle.HIGHEST_PROTOCOL)),
                    )
            handles = [(i, pool.apply_async(worker, (batches[i],))) for i in remaining]
            deadline = None if timeout is None else time.monotonic() + timeout
            for i, handle in handles:
                while True:
                    if governor is not None:
                        try:
                            governor.check_now()
                        except MiningInterrupted as exc:
                            exc.raw_results = list(results)
                            raise
                    budget = (
                        None if deadline is None else max(0.0, deadline - time.monotonic())
                    )
                    # slice the wait so a governed driver observes its
                    # token/deadline promptly; ungoverned waits stay whole
                    if governor is not None:
                        slice_budget = 0.05 if budget is None else min(0.05, budget)
                    else:
                        slice_budget = budget
                    try:
                        results[i] = handle.get(slice_budget)
                        break
                    except mp.TimeoutError:
                        if governor is not None and (budget is None or budget > 0):
                            continue
                        failed.append(i)
                        pool_dirty = True  # the worker is still wedged in it
                        # a killed pool worker never errors — its result
                        # just never arrives, so the deadline is also the
                        # worker-loss detector
                        last_error = WorkerLostError(
                            f"{what}: batch {i} exceeded the {timeout}s "
                            "deadline (worker wedged or its process was "
                            "killed)",
                            rank=_batch_rank(batches[i]),
                        )
                        break
                    except (EOFError, ConnectionError, OSError) as exc:
                        # the worker died mid-result (pipe torn down)
                        failed.append(i)
                        pool_dirty = True
                        last_error = WorkerLostError(
                            f"{what}: worker running batch {i} died before "
                            f"returning a result: {exc!r}",
                            rank=_batch_rank(batches[i]),
                        )
                        break
                    except Exception as exc:
                        # the worker survived (it raised) — pool stays usable
                        failed.append(i)
                        last_error = exc
                        break
            remaining = failed
        finished = True
    finally:
        if pool is not None:
            if finished and not pool_dirty and keep_pool is not None:
                # every dispatched batch came back: no worker is busy
                keep_pool(pool)
            else:
                pool.terminate()
                pool.join()
    if remaining:
        warnings.warn(
            f"{what}: {len(remaining)} of {len(batches)} batches failed on "
            f"worker processes after {retry.max_retries + 1} attempts "
            f"(last error: {last_error}); degrading to in-process execution",
            DegradedExecutionWarning,
            stacklevel=3,
        )
        for i in remaining:
            try:
                results[i] = worker(batches[i])
            except Exception as exc:
                raise ParallelExecutionError(
                    f"{what}: batch {i} failed even in-process: {exc}"
                ) from exc
    return results


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def _open_segment(flat: FlatPLT, what: str) -> SharedMemoryExecutor | None:
    """Place ``flat`` in a shared segment, or return ``None`` — under a
    :class:`DegradedExecutionWarning` — when the platform cannot provide
    one, so the caller mines in-process instead."""
    try:
        return SharedMemoryExecutor(flat)
    except OSError as exc:
        warnings.warn(
            f"{what}: cannot create a shared-memory segment ({exc}); "
            "degrading to in-process execution",
            DegradedExecutionWarning,
            stacklevel=3,
        )
        return None


def mine_parallel(
    plt: PLT,
    min_support: int | None = None,
    *,
    n_workers: int | None = None,
    max_len: int | None = None,
    timeout: float | None = DEFAULT_BATCH_TIMEOUT,
    retry: RetryPolicy | None = None,
    governor: ResourceGovernor | None = None,
) -> RankColumns:
    """Parallel conditional mining; same output as ``mine_conditional``.

    Workers mine top-level rank ranges off a shared-memory FlatPLT.
    ``timeout`` bounds each batch attempt (seconds; ``None`` disables) and
    ``retry`` sets how many pool retries failed batches get before the
    in-process fallback.  One worker, a PLT with at most one vector, or
    frequent ranks that fit one range run ``mine_conditional``
    in-process.

    With a ``governor``: workers receive a budget copy carrying the
    *remaining* deadline and trip themselves; the driver additionally
    runs the governor's checks between result waits, and enforces
    ``max_itemsets`` on the merged output.  A trip raises
    :class:`~repro.errors.BudgetExceeded` / :class:`~repro.errors.Cancelled`
    carrying the itemsets collected so far as a :class:`RankColumns`
    (all exact supports, at most ``max_itemsets``) and
    ``progress["complete_from_rank"]``, as :func:`mine_conditional` does.
    """
    if min_support is None:
        min_support = plt.min_support
    check_max_len(max_len)
    if n_workers is None:
        n_workers = default_workers()
    if governor is not None:
        governor.start()
        governor.check_now()
    executor = None
    if n_workers > 1 and plt.n_vectors() > 1:
        flat = plt.flat
        ranges = plan_rank_ranges(flat, min_support, n_workers)
        if len(ranges) > 1:
            # one driver-side bincount pass; every range worker reads the
            # matrix off the segment instead of recomputing it
            flat.compute_pair_support()
            executor = _open_segment(flat, "mine_parallel")
    if executor is None:
        return mine_conditional(plt, min_support, max_len=max_len, governor=governor)
    try:
        ship_budget = None
        if governor is not None:
            ship_budget = governor.budget.with_deadline(governor.remaining_time())
        batches = [
            (executor.meta, lo, hi, min_support, max_len, ship_budget)
            for lo, hi in ranges
        ]
        try:
            parts = _run_batches(
                _shm_cond_range,
                batches,
                timeout=timeout,
                retry=retry,
                what="mine_parallel",
                governor=governor,
                pool_factory=borrow_pool,
                keep_pool=keep_pool,
            )
        except MiningInterrupted as exc:
            # a driver-side trip: salvage the results collected so far,
            # capped like a completed merge
            exc.partial, marker = _salvaged(ranges, exc.raw_results, governor)
            exc.progress.setdefault("complete_from_rank", marker)
            raise
        if governor is None:
            return _merged(parts)
        return _merge_governed_parts(ranges, parts, governor, "mine_parallel")
    finally:
        executor.close()


def _merged(parts: list) -> RankColumns:
    """The range workers' ``(status, blocks, reason, complete_from)``
    returns as one :class:`RankColumns` (ranges are disjoint: no
    reconciliation); ``None`` marks a range with no result."""
    return RankColumns([block for part in parts if part is not None for block in part[1]])


def _salvaged(ranges: list, parts: list, governor: ResourceGovernor):
    """The exact itemsets a governed parallel run keeps, and the rank
    from which they hold every itemset.

    Ranges are walked from the top: each complete range lowers the
    marker to its ``lo``, and the first tripped (or missing) range stops
    the walk at its own marker.  Cutting to ``max_itemsets`` keeps the
    highest maximal ranks (:meth:`RankColumns.cut`), so the marker can
    only rise past the top rank of the first itemset cut.
    """
    marker = ranges[-1][1]
    for (_lo, hi), part in zip(reversed(ranges), reversed(parts)):
        if part is None:
            marker = hi
            break
        status, _blocks, _reason, marker = part
        if status != "ok":
            break
    merged = _merged(parts)
    cap = governor.budget.max_itemsets
    if cap is None or len(merged) <= cap:
        return merged, marker
    tops = merged.tops()
    k = len(tops) - cap - 1  # once partitioned, the first cut itemset's top
    tops.partition(k)
    return merged.cut(n=cap), max(marker, int(tops[k]) + 1)


def _merge_governed_parts(
    ranges: list, parts: list, governor: ResourceGovernor, what: str
) -> RankColumns:
    """Merge governed worker returns; enforce the cap; raise on any trip."""
    results = _merged(parts)
    stop_reason = next((part[2] for part in parts if part[0] == "partial"), None)
    cap = governor.budget.max_itemsets
    if cap is not None and len(results) > cap and stop_reason is None:
        stop_reason = "max_itemsets"
    if stop_reason is None:
        governor.itemsets = len(results)
        return results
    partial, marker = _salvaged(ranges, parts, governor)
    governor.itemsets = len(partial)
    governor.progress["tripped_s"] = governor.elapsed()
    cls = Cancelled if stop_reason == "cancelled" else BudgetExceeded
    raise cls(
        f"{what}: budget exhausted in worker processes ({stop_reason})",
        reason=stop_reason,
        partial=partial,
        progress={"complete_from_rank": marker},
    )


def topdown_parallel(
    plt: PLT,
    *,
    n_workers: int | None = None,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
    timeout: float | None = DEFAULT_BATCH_TIMEOUT,
    retry: RetryPolicy | None = None,
    governor: ResourceGovernor | None = None,
) -> dict[int, dict[PositionVector, int]]:
    """Parallel top-down pass; same output as ``topdown_subset_frequencies``.

    Workers expand stored-path slices of a shared-memory FlatPLT;
    ``timeout``/``retry`` behave as in :func:`mine_parallel`, and one
    worker or a PLT with at most one vector runs in-process.

    Governance is driver-level only, and a trip raises with an empty
    ``partial``: each worker's table holds partial *sums* for
    vectors shared across slices, so an incomplete merge would report
    under-counted (inexact) frequencies — exactly what governed partials
    promise never to do.
    """
    if n_workers is None:
        n_workers = default_workers()
    if work_limit is not None:
        estimate = estimate_topdown_work(plt)
        if estimate > work_limit:
            raise TopDownExplosionError(
                f"top-down pass would generate up to {estimate} subset events "
                f"(work_limit={work_limit})"
            )
    if governor is not None:
        governor.start()
        governor.check_now()
    executor = None
    if n_workers > 1 and plt.n_vectors() > 1:
        flat = plt.flat
        executor = _open_segment(flat, "topdown_parallel")
    if executor is None:
        return _plt_lattice(plt, governor).vectors()
    try:
        batches = [
            (executor.meta, start, end)
            for start, end in plan_path_slices(flat, n_workers)
        ]
        try:
            parts = _run_batches(
                _shm_topdown_slice,
                batches,
                timeout=timeout,
                retry=retry,
                what="topdown_parallel",
                governor=governor,
                pool_factory=borrow_pool,
                keep_pool=keep_pool,
            )
        except MiningInterrupted as exc:
            exc.raw_results = []
            raise
        # every worker keyed its part by the same layout (_flat_lattice)
        lattice = _flat_lattice(flat)
        for part in parts:
            lattice.add(part)
        return lattice.vectors()
    finally:
        executor.close()

