"""The shared-memory segment behind the multiprocessing executors.

Every multi-worker run in :mod:`repro.parallel.executor` mines one
shared copy of the PLT instead of shipping conditional databases through
the pool pipe:

1. the driver lowers the PLT once into a
   :class:`~repro.core.flat.FlatPLT` and places its columns in a single
   ``multiprocessing.shared_memory`` segment;
2. worker processes attach on pool start (a page-table mapping, not a
   copy) and cache the attached view per segment name;
3. tasks shrink to ``(meta, lo, hi, ...)`` tuples — a few hundred bytes —
   and workers mine *index ranges* straight off the shared columns:

   * conditional tasks are top-level **rank ranges** ``[lo, hi)`` run
     through :func:`~repro.core.conditional.mine_conditional_flat_range`;
     itemsets partition exactly by maximal rank, so per-range results
     concatenate with no reconciliation;
   * top-down tasks are stored-**path slices** ``[start, end)`` run
     through the packed byte engine
     (:func:`~repro.core.topdown.topdown_flat_slice`); partial tables
     merge by addition, and workers drop their (redundant, widest)
     length-1 level — the driver reconstitutes it exactly from the
     vectorised :meth:`FlatPLT.rank_supports` column pass.

Segment lifecycle: the driver owns the segment and guarantees
``close``/``unlink`` in a ``finally`` — success, worker crash, budget
trip and cancellation all pass through it, so no ``/dev/shm`` entry can
outlive the call.  Workers attach *untracked* (see
:meth:`FlatPLT.attach`), so the resource tracker never double-registers a
segment it does not own and never warns at exit.

Failure handling lives in :func:`~repro.parallel.executor._run_batches`
(timeouts, pool-reuse retries, in-process degraded fallback) — the
driver's cache is seeded with the owner's own view, so even the degraded
path mines the flat columns without a second attach.
"""

from __future__ import annotations

import os
import pickle
import signal

from repro.core.conditional import mine_conditional_flat_range
from repro.core.flat import FlatPLT
from repro.core.topdown import topdown_flat_slice
from repro.errors import MiningInterrupted
from repro.perf.counters import COUNTERS as _COUNTERS
from repro.robustness.governor import ResourceGovernor

__all__ = [
    "SharedMemoryExecutor",
    "plan_rank_ranges",
    "plan_path_slices",
]

#: Fault-injection hook for the chaos suite: ``"<range-start>:<driver-pid>"``.
#: A pool worker that picks up the task whose first index bound equals
#: ``<range-start>`` SIGKILLs itself — unless it *is* the driver process,
#: because the in-process degraded fallback must survive to produce the
#: answer (and the retry rounds re-kill replacement workers, exercising
#: the whole detection → retry → degrade chain).
CHAOS_KILL_ENV = "REPRO_SHM_CHAOS_KILL"

#: Per-worker cache of attached flat structures, keyed by segment name.
#: Lives for the pool's lifetime; the driver seeds its own entry for the
#: degraded in-process fallback (forked workers inheriting it is harmless
#: — the inherited views map the same shared pages).
_FLAT_CACHE: dict[str, FlatPLT] = {}


def _maybe_chaos_kill(key: int) -> None:
    spec = os.environ.get(CHAOS_KILL_ENV)
    if not spec:
        return
    want, _, driver = spec.partition(":")
    if str(key) == want and str(os.getpid()) != driver:
        os.kill(os.getpid(), signal.SIGKILL)


def _attached_flat(meta: dict) -> FlatPLT:
    name = meta["name"]
    flat = _FLAT_CACHE.get(name)
    if flat is None:
        flat = FlatPLT.attach(meta)
        _FLAT_CACHE[name] = flat
    return flat


def _pool_attach(meta: dict) -> None:
    """Pool initializer: map the segment once per worker process."""
    try:
        _attached_flat(meta)
    except Exception:
        # leave the failure to the first task, where the driver sees it
        # as a batch error and can retry / degrade
        _FLAT_CACHE.pop(meta["name"], None)


# ---------------------------------------------------------------------------
# worker entry points (module level: picklable)
# ---------------------------------------------------------------------------
def _shm_cond_range(args) -> tuple[str, list, str | None]:
    """Mine one top-level rank range off the shared columns.

    Returns ``(status, pairs, reason)`` on both the governed and
    ungoverned paths, so the driver merges one shape.  Budget trips never
    propagate as exceptions (custom kwargs don't survive unpickling):
    ``status`` is ``"partial"`` and ``reason`` names the trip, and every
    pair carries its exact support either way.
    """
    meta, lo, hi, min_support, max_len, budget = args
    _maybe_chaos_kill(lo)
    flat = _attached_flat(meta)
    results: list[tuple[tuple[int, ...], int]] = []
    if budget is None or budget.unlimited():
        def emit(itemset: tuple[int, ...], support: int) -> None:
            results.append((itemset, support))

        mine_conditional_flat_range(flat, lo, hi, min_support, emit, max_len)
        return ("ok", results, None)
    governor = ResourceGovernor(budget).start()

    def emit(itemset: tuple[int, ...], support: int) -> None:
        governor.note_itemsets()
        results.append((itemset, support))

    try:
        mine_conditional_flat_range(
            flat, lo, hi, min_support, emit, max_len, governor=governor
        )
    except MiningInterrupted as exc:
        return ("partial", results, exc.reason)
    return ("ok", results, None)


def _shm_topdown_slice(args) -> dict[int, dict[bytes, int]]:
    """Expand one stored-path slice; returns the packed partial table."""
    meta, start, end = args
    _maybe_chaos_kill(start)
    flat = _attached_flat(meta)
    return topdown_flat_slice(flat, start, end, singletons=False)


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
    """Owns one shared FlatPLT segment plus the pool plumbing to mine it.

    Construction copies the columns into the segment once and seeds the
    driver's attach cache with the owning view (so the degraded
    in-process fallback runs with no extra mapping).  ``pool_factory``
    plugs into :func:`_run_batches` and builds pools whose initializer
    attaches every worker before its first task.  :meth:`close` is
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

    def pool_factory(self, n_processes: int):
        import multiprocessing as mp

        if _COUNTERS.enabled:
            # the initargs tuple is pickled into every spawned worker —
            # that is real dispatch traffic, charged per process
            _COUNTERS.add(
                "ipc_bytes_sent",
                n_processes
                * len(pickle.dumps((self.meta,), pickle.HIGHEST_PROTOCOL)),
            )
        return mp.Pool(
            processes=n_processes, initializer=_pool_attach, initargs=(self.meta,)
        )

    def close(self) -> None:
        _FLAT_CACHE.pop(self.meta["name"], None)
        self._shared.close()
        self._shared.unlink()
