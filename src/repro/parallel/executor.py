"""Multiprocessing executors for PLT mining — hardened against bad pools.

Two exact (not approximate) parallel schemes, both over one shared-memory
:class:`~repro.core.flat.FlatPLT` segment (see :mod:`repro.parallel.shm`):

* :func:`mine_parallel` — parallel **conditional** mining.  Workers mine
  disjoint top-level rank ranges straight off the shared columns; results
  concatenate with no reconciliation because itemsets are partitioned by
  their maximal item (the paper's §6 partitioning).
* :func:`topdown_parallel` — parallel **top-down** subset propagation.
  Workers expand disjoint slices of the stored paths; the partial subset
  frequency tables merge by addition.

Both run in-process for one worker or a PLT with at most one vector, so
results and code paths stay testable without process overhead.  When the
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
from array import array
from collections.abc import Callable, Sequence

from repro.core.conditional import mine_conditional
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.position import PositionVector, path_to_vector
from repro.core.topdown import (
    DEFAULT_WORK_LIMIT,
    _decode_path,
    _subset_byte_frequencies,
    estimate_topdown_work,
)
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
def _raise_if_tripped(governor: ResourceGovernor, what: str, results: list) -> None:
    """Driver-side trip check between result waits (pool paths only)."""
    cancel = governor.cancel
    if cancel is not None and cancel.cancelled:
        exc: MiningInterrupted = Cancelled(
            f"{what}: mining cancelled: {cancel.reason}", reason="cancelled"
        )
        exc.raw_results = [r for r in results if r is not None]
        raise exc
    remaining_t = governor.remaining_time()
    if remaining_t is not None and remaining_t <= 0:
        exc = BudgetExceeded(
            f"{what}: deadline of {governor.budget.deadline}s exceeded",
            reason="deadline",
        )
        exc.raw_results = [r for r in results if r is not None]
        raise exc


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
    construction (the drivers install an initializer that attaches
    workers to the shared segment); the default is a plain ``mp.Pool``.  When perf counters are enabled, every dispatched batch's
    pickled size is charged to ``ipc_bytes_sent`` — re-sent batches count
    again, because they are in fact sent again.

    With a ``governor``, the result wait is sliced so the driver observes
    its cancellation token and deadline between waits; a trip terminates
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
                        _raise_if_tripped(governor, what, results)
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
    finally:
        if pool is not None:
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
) -> list[tuple[tuple[int, ...], int]]:
    """Parallel conditional mining; same output as ``mine_conditional``.

    Workers mine top-level rank ranges off a shared-memory FlatPLT.
    ``timeout`` bounds each batch attempt (seconds; ``None`` disables) and
    ``retry`` sets how many pool retries failed batches get before the
    in-process fallback.  One worker, a PLT with at most one vector, or
    frequent ranks that fit one range run ``mine_conditional``
    in-process.

    With a ``governor``: workers receive a budget copy carrying the
    *remaining* deadline and trip themselves; the driver additionally
    polls the cancellation token and deadline between result waits, and
    enforces ``max_itemsets`` on the merged output.  A trip raises
    :class:`~repro.errors.BudgetExceeded` / :class:`~repro.errors.Cancelled`
    carrying every pair collected so far (all exact supports).
    """
    if min_support is None:
        min_support = plt.min_support
    if n_workers is None:
        n_workers = default_workers()
    if governor is not None:
        governor.start()
        governor.check_now()
    executor = None
    if n_workers > 1 and plt.n_vectors() > 1:
        flat = FlatPLT.from_plt(plt)
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
                pool_factory=executor.pool_factory,
            )
        except MiningInterrupted as exc:
            # a driver-side trip: salvage the (status, pairs, reason)
            # results collected so far, capped like a completed merge
            exc.partial = [
                pair for _status, part, _reason in exc.raw_results for pair in part
            ][: governor.budget.max_itemsets]
            raise
        if governor is None:
            return [pair for _status, part, _reason in parts for pair in part]
        return _merge_governed_parts(parts, governor, "mine_parallel")
    finally:
        executor.close()


def _merge_governed_parts(
    parts: list, governor: ResourceGovernor, what: str
) -> list[tuple[tuple[int, ...], int]]:
    """Merge governed worker returns; enforce the cap; raise on any trip."""
    results: list[tuple[tuple[int, ...], int]] = []
    stop_reason: str | None = None
    for status, part, reason in parts:
        results.extend(part)
        if status == "partial" and stop_reason is None:
            stop_reason = reason
    cap = governor.budget.max_itemsets
    if cap is not None and len(results) > cap:
        del results[cap:]
        if stop_reason is None:
            stop_reason = "max_itemsets"
    governor.itemsets = len(results)
    if stop_reason is not None:
        cls = Cancelled if stop_reason == "cancelled" else BudgetExceeded
        raise cls(
            f"{what}: budget exhausted in worker processes ({stop_reason})",
            reason=stop_reason,
            partial=results,
        )
    return results


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

    Governance is driver-level only, and a trip raises with **no**
    partial attached: each worker's table holds partial *sums* for
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
        flat = FlatPLT.from_plt(plt)
        executor = _open_segment(flat, "topdown_parallel")
    if executor is None:
        try:
            return _unpack(_subset_byte_frequencies(plt, governor=governor))
        except MiningInterrupted as exc:
            exc.partial = []
            raise
        finally:
            if governor is not None:
                governor.progress.pop("_topdown_counts", None)
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
                pool_factory=executor.pool_factory,
            )
        except MiningInterrupted as exc:
            exc.raw_results = []
            exc.partial = []
            raise
        packed: dict[int, dict[bytes, int]] = {}
        for part in parts:
            for length, bucket in part.items():
                target = packed.setdefault(length, {})
                target_get = target.get
                for pb, freq in bucket.items():
                    target[pb] = target_get(pb, 0) + freq
        # the workers all dropped length 1; one vectorised column pass
        # rebuilds the level exactly (singleton subset frequency == rank
        # support), instead of merging the lattice's widest level from
        # every worker's result pickle
        ones = {
            array("I", (rank,)).tobytes(): s
            for rank, s in enumerate(flat.rank_supports())
            if s
        }
        if ones:
            packed[1] = ones
        return _unpack(packed)
    finally:
        executor.close()


def _unpack(
    packed: dict[int, dict[bytes, int]]
) -> dict[int, dict[PositionVector, int]]:
    """Packed-path subset table -> the delta-vector result shape."""
    return {
        length: {path_to_vector(_decode_path(pb)): freq for pb, freq in bucket.items()}
        for length, bucket in packed.items()
    }
