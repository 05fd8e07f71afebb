"""The shared-memory segment behind the multiprocessing executors.

Every multi-worker run in :mod:`repro.parallel.executor` mines one
shared copy of the PLT instead of shipping conditional databases through
the pool pipe:

1. the mining process places the columns of the PLT's index (its
   :class:`~repro.core.flat.FlatPLT`, ``plt.flat``) in a single
   ``multiprocessing.shared_memory`` segment;
2. every task attaches the segment (a page-table mapping, not a copy)
   and detaches when it returns, so one pool can serve call after call;
3. tasks shrink to ``(meta, lo, hi, ...)`` tuples — a few hundred bytes —
   and workers mine *index ranges* straight off the shared columns:

   * conditional tasks are top-level **rank ranges** ``[lo, hi)`` run
     through :func:`~repro.core.conditional.mine_conditional_flat_range`;
     each returns its itemsets as one rank matrix and support column per
     length, and itemsets partition exactly by maximal rank, so the
     driver concatenates the per-range blocks with no reconciliation;
   * top-down tasks are stored-**path slices** ``[start, end)`` run
     through the subset-lattice kernel
     (:func:`~repro.core.topdown.topdown_flat_slice`); each returns its
     partial table (a packed ``uint64`` column when the keys fit one
     word), which the driver merges with the kernel's own aggregation.

Segment lifecycle: the driver owns the segment and guarantees
``close``/``unlink`` in a ``finally`` — success, worker crash, budget
trip and cancellation all pass through it, so no ``/dev/shm`` entry can
outlive the call.  Workers attach *untracked* (see
:meth:`FlatPLT.attach`), so the resource tracker never double-registers a
segment it does not own and never warns at exit.

Worker pool lifecycle: forking a pool costs more than a small top-down
pass, so the executors borrow one kept pool (:func:`borrow_pool`) and
hand it back when a call ends with every worker healthy
(:func:`keep_pool`).  A call that saw a dead or wedged worker, or was
stopped by its governor, terminates the pool instead, and the next call
forks a fresh one.  A forked worker drops the segment mappings it
inherits from the driver (:func:`_pool_init`), so a kept pool pins no
segment after its call returns.  The kept pool is terminated at
interpreter exit, or by :func:`shutdown_pool`.

Failure handling lives in :func:`~repro.parallel.executor._run_batches`
(timeouts, pool-reuse retries, in-process degraded fallback) — the
driver's cache is seeded with the owner's own view, so even the degraded
path mines the flat columns without a second attach.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from contextlib import contextmanager

from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional_flat_range, salvage
from repro.core.flat import FlatPLT
from repro.core.topdown import topdown_flat_slice
from repro.errors import MiningInterrupted
from repro.perf.counters import COUNTERS as _COUNTERS
from repro.robustness.governor import ResourceGovernor

__all__ = [
    "SharedMemoryExecutor",
    "borrow_pool",
    "keep_pool",
    "shutdown_pool",
    "plan_rank_ranges",
    "plan_path_slices",
]

#: Fault-injection hook for the chaos suite: ``"<range-start>:<driver-pid>"``.
#: A pool worker that picks up the task whose first index bound equals
#: ``<range-start>`` SIGKILLs itself — unless it *is* the driver process,
#: because the in-process degraded fallback must survive to produce the
#: answer (and the retry rounds re-kill replacement workers, exercising
#: the whole detection → retry → degrade chain).  Workers read the
#: environment they were forked with, so set it before the pool starts.
CHAOS_KILL_ENV = "REPRO_SHM_CHAOS_KILL"

#: The driver's own views of the segments it owns, keyed by segment name:
#: the degraded in-process fallback mines them without a second attach.
#: Forked workers unmap what they inherit of it (:func:`_pool_init`).
_FLAT_CACHE: dict[str, FlatPLT] = {}

#: The pool kept between calls (at most one); see :func:`borrow_pool`.
_KEPT: list = []
_KEPT_LOCK = threading.Lock()
#: Pools a forked child inherited: the parent's, never used or finalised.
_INHERITED: list = []


def _maybe_chaos_kill(key: int) -> None:
    spec = os.environ.get(CHAOS_KILL_ENV)
    if not spec:
        return
    want, _, driver = spec.partition(":")
    if str(key) == want and str(os.getpid()) != driver:
        os.kill(os.getpid(), signal.SIGKILL)


@contextmanager
def _attached_flat(meta: dict):
    """The segment's FlatPLT for one task: the driver's own view when it
    runs the task in-process, else an attach that is released on exit."""
    flat = _FLAT_CACHE.get(meta["name"])
    if flat is not None:
        yield flat
        return
    flat = FlatPLT.attach(meta)
    try:
        yield flat
    finally:
        flat.detach()


def _pool_init() -> None:
    """Pool initializer: unmap the driver's segments a forked worker
    inherits, which would otherwise stay mapped for the pool's lifetime."""
    for flat in _FLAT_CACHE.values():
        try:
            flat.detach()
        except BufferError:  # pragma: no cover - a view escaped; exit unmaps
            pass
    _FLAT_CACHE.clear()


# ---------------------------------------------------------------------------
# the kept worker pool
# ---------------------------------------------------------------------------
def borrow_pool(n_processes: int):
    """A pool of at least ``n_processes`` workers.

    Takes the kept pool when it is large enough (terminating it when it
    is not) and otherwise forks a new one.  The caller owns the pool
    until it returns it with :func:`keep_pool` or terminates it.
    """
    import multiprocessing as mp

    with _KEPT_LOCK:
        pool = _KEPT.pop() if _KEPT else None
    if pool is not None:
        if pool._processes >= n_processes:
            return pool
        _terminate(pool)
    return mp.Pool(processes=n_processes, initializer=_pool_init)


def keep_pool(pool) -> None:
    """Keep a pool borrowed from :func:`borrow_pool` for the next call.

    Only a pool whose workers are all idle and healthy may be kept.  A
    pool kept earlier (by a concurrent caller) is terminated.
    """
    with _KEPT_LOCK:
        old = _KEPT.pop() if _KEPT else None
        _KEPT.append(pool)
    if old is not None:
        _terminate(old)


def shutdown_pool() -> None:
    """Terminate the kept pool, if any (runs at interpreter exit)."""
    with _KEPT_LOCK:
        pool = _KEPT.pop() if _KEPT else None
    if pool is not None:
        _terminate(pool)


def _terminate(pool) -> None:
    pool.terminate()
    pool.join()


def _forget_kept_pool() -> None:
    """After ``fork``, in the child: the kept pool's workers and pipes
    belong to the parent, so the child must neither dispatch to it nor
    tear it down."""
    global _KEPT, _KEPT_LOCK
    _INHERITED.extend(_KEPT)
    _KEPT, _KEPT_LOCK = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_kept_pool)
# terminate() before multiprocessing's own exit hook: that hook stops the
# workers but leaves the pool object marked running, and its __del__
# then fails noisily during interpreter teardown
atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# worker entry points (module level: picklable)
# ---------------------------------------------------------------------------
def _shm_cond_range(args) -> tuple[str, list, str | None, int]:
    """Mine one top-level rank range off the shared columns.

    Returns ``(status, blocks, reason, complete_from)`` on both the
    governed and ungoverned paths, so the driver merges one shape:
    ``blocks`` is :meth:`RankColumns.by_length` — one int64 rank matrix
    and support column per itemset length, which pickle as a few buffers
    instead of a tuple per itemset — and every itemset of the range
    whose maximal rank is ``>= complete_from`` is in them.  Budget trips
    never propagate as exceptions (custom kwargs don't survive
    unpickling): ``status`` is ``"partial"``, ``reason`` names the trip
    and ``blocks`` hold :func:`~repro.core.conditional.salvage`'s cut;
    every support is exact either way.
    """
    meta, lo, hi, min_support, max_len, budget = args
    _maybe_chaos_kill(lo)
    out = RankColumns()
    with _attached_flat(meta) as flat:
        governor = None
        if budget is not None and not budget.unlimited():
            governor = ResourceGovernor(budget).start()
        try:
            mine_conditional_flat_range(
                flat, lo, hi, min_support, out, max_len, governor=governor
            )
        except MiningInterrupted as exc:
            return (
                "partial",
                salvage(exc, out, governor).by_length(),
                exc.reason,
                exc.progress.get("complete_from_rank", hi),
            )
    return ("ok", out.by_length(), None, lo)


def _shm_topdown_slice(args):
    """Expand one stored-path slice; returns its lattice part (the packed
    column, or ``(keys, counts)`` for keys too wide to pack)."""
    meta, start, end = args
    _maybe_chaos_kill(start)
    with _attached_flat(meta) as flat:
        return topdown_flat_slice(flat, start, end)


# ---------------------------------------------------------------------------
# range planning
# ---------------------------------------------------------------------------
def plan_rank_ranges(
    flat: FlatPLT, min_support: int, n_parts: int
) -> list[tuple[int, int]]:
    """Contiguous top-level rank ranges of roughly equal estimated work.

    Ranges cover ``[first frequent rank, last frequent rank + 1)`` and
    split on cumulative :meth:`FlatPLT.rank_costs` (conditional-database
    volume per rank), so a hot rank region doesn't land on one worker.
    Returns ``[]`` when nothing is frequent.
    """
    supports = flat.rank_supports()
    frequent = [
        r for r in range(1, flat.max_rank + 1) if supports[r] >= min_support
    ]
    if not frequent:
        return []
    n_parts = max(1, min(n_parts, len(frequent)))
    lo_all, hi_all = frequent[0], frequent[-1] + 1
    costs = flat.rank_costs()
    weights = [costs[r] + 1 for r in range(lo_all, hi_all)]
    return _balanced_split(lo_all, weights, n_parts)


def plan_path_slices(flat: FlatPLT, n_parts: int) -> list[tuple[int, int]]:
    """Contiguous stored-path slices balanced by ~``2^len`` expansion cost."""
    n = flat.n_paths
    if n == 0:
        return []
    n_parts = max(1, min(n_parts, n))
    off = flat.path_offsets
    weights = [1 << min(off[p + 1] - off[p], 30) for p in range(n)]
    return _balanced_split(0, weights, n_parts)


def _balanced_split(
    base: int, weights: list[int], n_parts: int
) -> list[tuple[int, int]]:
    """Split ``[base, base + len(weights))`` into ``n_parts`` contiguous
    ranges of roughly equal total weight (every range non-empty)."""
    end = base + len(weights)
    target = sum(weights) / n_parts
    ranges: list[tuple[int, int]] = []
    acc = 0.0
    lo = base
    for idx, weight in enumerate(weights):
        acc += weight
        nxt = base + idx + 1
        if acc >= target and len(ranges) < n_parts - 1 and nxt < end:
            ranges.append((lo, nxt))
            lo = nxt
            acc = 0.0
    ranges.append((lo, end))
    return ranges


# ---------------------------------------------------------------------------
# the segment owner
# ---------------------------------------------------------------------------
class SharedMemoryExecutor:
    """Owns one shared FlatPLT segment for the workers to mine.

    Construction copies the columns into the segment once and seeds the
    driver's cache with the owning view (so the degraded in-process
    fallback runs with no extra mapping).  :meth:`close` is
    idempotent and must run in a ``finally`` — it unmaps, unlinks, and
    evicts the cache entry, so no segment can leak on any exit path.

    Raises :class:`OSError` when the platform cannot provide the segment
    (no ``/dev/shm``, or too little room for the columns).
    """

    def __init__(self, flat: FlatPLT) -> None:
        self._shared = flat.to_shared_memory()
        self.meta = self._shared.meta
        _FLAT_CACHE[self.meta["name"]] = self._shared.flat
        # the denominator of the bench's ipc gate: dispatch traffic is
        # judged against the bytes the segment spares the pipe
        _COUNTERS.add("shm_segment_bytes", self._shared.shm.size)

    @property
    def name(self) -> str:
        return self.meta["name"]

    def close(self) -> None:
        _FLAT_CACHE.pop(self.meta["name"], None)
        self._shared.close()
        self._shared.unlink()
