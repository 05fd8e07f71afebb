"""Resource governance for mining runs: budgets, cancellation, admission.

The ROADMAP's production posture means no mining request may pin a worker
indefinitely: a single dense low-support query can otherwise burn CPU and
memory until the process is killed.  This module is the shared defence,
threaded through every miner in the repo (conditional, top-down,
parallel, distributed, out-of-core):

* :class:`MiningBudget` — declarative limits: a wall-clock **deadline**,
  an emitted **itemset cap**, and an estimated **memory cap**.
* :class:`CancellationToken` — cooperative, thread-safe cancellation a
  caller can flip mid-flight (e.g. the user disconnected).
* :class:`ResourceGovernor` — the runtime object the mining hot loops
  call.  Checks are **amortized**: the loops call :meth:`~ResourceGovernor.tick`
  with a work amount, and only every ``check_interval`` accumulated units
  does the governor read the clock / sample allocations, so governance
  costs a counter decrement on the hot path and nothing at all when no
  governor is passed.
* :class:`DegradationPolicy` — what the facade should do instead of a
  partial answer when the budget is blown: fall back to a bounded
  **approximate** miner (a scaled sample, or exact top-k) with an
  explicit accuracy disclaimer.

On a limit trip the governor raises :class:`~repro.errors.BudgetExceeded`
or :class:`~repro.errors.Cancelled`; the miner catches it at its driver
level, attaches the itemsets mined so far (all with exact supports) plus
completion markers, and re-raises.  The facade converts that into a
:class:`~repro.core.mining.PartialResult` or degrades per the policy.

Admission control runs *before* mining: :meth:`ResourceGovernor.admit`
compares cheap structural estimates (in the spirit of
:func:`repro.core.topdown.estimate_topdown_work`) against the memory
budget and raises :class:`~repro.errors.AdmissionRejected` for requests
that cannot fit, so hopeless work is refused instead of started.

Memory accounting note: exact live-set tracking would cost more than the
mining itself, so the runtime check uses ``sys.getallocatedblocks()``
deltas scaled by a rough bytes-per-block constant.  NumPy data buffers
are allocated outside the sampled allocator, so kernels that keep their
state in arrays (the top-down lattice) declare those bytes with
:meth:`ResourceGovernor.hold`.  It is an *estimate*, deliberately biased
to trip early rather than late; treat the cap as an order-of-magnitude
guard, not an rlimit.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    Cancelled,
    InvalidParameterError,
)

__all__ = [
    "MiningBudget",
    "CancellationToken",
    "ResourceGovernor",
    "DegradationPolicy",
    "estimate_conditional_memory",
    "estimate_topdown_memory",
    "DEFAULT_CHECK_INTERVAL",
]

#: Work units (emitted itemsets + merged bucket entries) between real
#: clock/memory checks.  Small enough that a 0.5 s deadline is honoured
#: within a few milliseconds on any workload dense enough to matter.
DEFAULT_CHECK_INTERVAL = 256

#: Rough average size of one CPython small-object allocator block; used
#: to convert ``sys.getallocatedblocks()`` deltas into byte estimates.
_BYTES_PER_BLOCK = 64

#: Estimated resident bytes per live work cell (a rank inside a path
#: tuple plus its share of dict overhead) in the conditional engine.
_BYTES_PER_COND_CELL = 120

#: Estimated resident bytes per generated subset entry in the top-down
#: pass (a conservative figure: the lattice kernel keeps an 8-byte-per-word
#: key and an 8-byte count per distinct subset, plus bounded chunk buffers).
_BYTES_PER_SUBSET = 90


def _allocated_blocks() -> int:
    getter = getattr(sys, "getallocatedblocks", None)
    return getter() if getter is not None else 0


@dataclass(frozen=True)
class MiningBudget:
    """Declarative resource limits for one mining run.

    ``deadline`` is wall-clock seconds from :meth:`ResourceGovernor.start`;
    ``max_itemsets`` caps the number of *emitted* itemsets;
    ``memory_budget`` caps estimated bytes allocated since start.  Any
    field left ``None`` is unlimited.  ``check_interval`` tunes the
    amortization of the real checks.
    """

    deadline: float | None = None
    max_itemsets: int | None = None
    memory_budget: int | None = None
    check_interval: int = DEFAULT_CHECK_INTERVAL

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise InvalidParameterError(f"deadline must be > 0, got {self.deadline}")
        if self.max_itemsets is not None and self.max_itemsets < 1:
            raise InvalidParameterError(
                f"max_itemsets must be >= 1, got {self.max_itemsets}"
            )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise InvalidParameterError(
                f"memory_budget must be >= 1 byte, got {self.memory_budget}"
            )
        if self.check_interval < 1:
            raise InvalidParameterError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )

    def unlimited(self) -> bool:
        """True when no axis is constrained (governance is a no-op)."""
        return (
            self.deadline is None
            and self.max_itemsets is None
            and self.memory_budget is None
        )

    def with_deadline(self, deadline: float | None) -> "MiningBudget":
        """A copy with ``deadline`` replaced (used to ship *remaining*
        time to worker processes)."""
        return MiningBudget(
            deadline=deadline,
            max_itemsets=self.max_itemsets,
            memory_budget=self.memory_budget,
            check_interval=self.check_interval,
        )

    def clamp(
        self,
        *,
        deadline_cap: float | None = None,
        itemset_cap: int | None = None,
        memory_cap: int | None = None,
    ) -> "MiningBudget":
        """A copy with each axis bounded by a server-side cap.

        ``None`` caps leave the axis alone; a ``None`` axis with a cap set
        takes the cap (an unbounded *request* must not defeat a bounded
        *server*).  The serving daemon's admission control uses this to
        fold per-query client budgets into its own operator-set limits.
        """

        def cap_axis(value, cap):
            if cap is None:
                return value
            if value is None:
                return cap
            return min(value, cap)

        return MiningBudget(
            deadline=cap_axis(self.deadline, deadline_cap),
            max_itemsets=cap_axis(self.max_itemsets, itemset_cap),
            memory_budget=cap_axis(self.memory_budget, memory_cap),
            check_interval=self.check_interval,
        )


class CancellationToken:
    """Thread-safe cooperative cancellation flag.

    Create one, hand it to a governed mining call, and flip it from any
    thread with :meth:`cancel`; the mining loop observes it at its next
    amortized checkpoint and unwinds with
    :class:`~repro.errors.Cancelled`.

    Tokens do not cross process boundaries — the multiprocessing
    executors poll the token on the *driver* side between result waits
    and terminate the pool on cancellation.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise Cancelled(
                f"mining cancelled: {self.reason}", reason="cancelled"
            )

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"CancellationToken({state})"


@dataclass(frozen=True)
class DegradationPolicy:
    """What to return instead of a partial answer when the budget blows.

    ``fallback``:

    * ``"sampling"`` — mine a ``sample_fraction`` random sample of the
      database exactly, scale supports back up.  Fast and bounded; the
      reported supports are **estimates**.
    * ``"topk"`` — run the exact top-``k`` miner.  Supports are exact but
      only the ``k`` most frequent itemsets are returned.
    * ``"sketch"`` — one fixed-memory pass through the transactions with
      a :class:`~repro.stream.summary.StreamSummary` (conservative
      count-min + space-saving heavy hitters over PLT ranks).  Supports
      are one-sided estimates (never below the true support, above it by
      at most ``epsilon * N`` w.p. ``>= 1 - delta``) and only 1- and
      2-itemsets are enumerated — but memory is bounded by ``epsilon``/
      ``hh_capacity`` alone, independent of the database, which is the
      mode to pick when the budget trip *was* memory.

    Either way the result is flagged ``approximate`` and carries a
    human-readable disclaimer — callers can never mistake a degraded
    answer for the full frequent set.
    """

    fallback: str = "sampling"
    sample_fraction: float = 0.1
    k: int = 200
    seed: int = 0
    epsilon: float = 0.005
    delta: float = 0.01
    hh_capacity: int = 256

    def __post_init__(self) -> None:
        if self.fallback not in ("sampling", "topk", "sketch"):
            raise InvalidParameterError(
                f"unknown degradation fallback {self.fallback!r}; "
                "expected 'sampling', 'topk' or 'sketch'"
            )
        if not 0 < self.sample_fraction <= 1:
            raise InvalidParameterError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if not 0 < self.epsilon < 1:
            raise InvalidParameterError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )
        if not 0 < self.delta < 1:
            raise InvalidParameterError(f"delta must be in (0, 1), got {self.delta}")
        if self.hh_capacity < 1:
            raise InvalidParameterError(
                f"hh_capacity must be >= 1, got {self.hh_capacity}"
            )


def estimate_conditional_memory(plt) -> int:
    """Rough peak-bytes estimate for conditional (Algorithm 3) mining.

    Resident state is the rank-path table plus migrated prefixes (each
    strictly shorter than its source), so the stored cell count times a
    per-cell constant bounds the order of magnitude.
    """
    return plt.flat.n_cells * _BYTES_PER_COND_CELL + plt.flat.n_paths * 80


def estimate_topdown_memory(plt) -> int:
    """Rough peak-bytes estimate for top-down (Algorithm 2) mining.

    The top-down pass materialises every subset of every stored vector;
    :func:`~repro.core.topdown.estimate_topdown_work` bounds that count
    (saturating), and each entry is charged :data:`_BYTES_PER_SUBSET`.
    """
    from repro.core.topdown import WORK_ESTIMATE_CAP, estimate_topdown_work

    work = estimate_topdown_work(plt)
    if work >= WORK_ESTIMATE_CAP:
        return WORK_ESTIMATE_CAP
    return work * _BYTES_PER_SUBSET


class ResourceGovernor:
    """Runtime budget/cancellation enforcement for one mining run.

    Mining hot loops call :meth:`tick` (with a work amount) and
    :meth:`note_itemsets` (with the number of itemsets about to be
    written: one row, or a block of array rows); both are O(1) counter updates,
    and only every ``check_interval`` accumulated work units does the
    governor read the monotonic clock, sample the allocator, and test the
    cancellation token.  Loops additionally drop completion markers into
    :attr:`progress` (``mining_rank``, ``sweep_length``, ...) so the
    exception handler can report the verified-complete region; a trip
    stamps ``progress["tripped_s"]``, seconds from :meth:`start`.

    One governor instance governs one logical run; it may be shared
    across the in-process stages of that run (driver loop + conditional
    blocks) but not across concurrent runs.
    """

    __slots__ = (
        "budget",
        "cancel",
        "progress",
        "itemsets",
        "_interval",
        "_countdown",
        "_started_at",
        "_deadline_at",
        "_mem_base",
        "_held",
        "_max_itemsets",
    )

    def __init__(
        self,
        budget: MiningBudget | None = None,
        cancel: CancellationToken | None = None,
    ):
        self.budget = budget if budget is not None else MiningBudget()
        self.cancel = cancel
        self.progress: dict = {}
        self.itemsets = 0
        self._interval = self.budget.check_interval
        self._countdown = self._interval
        self._started_at: float | None = None
        self._deadline_at: float | None = None
        self._mem_base: int | None = None
        self._held = 0
        self._max_itemsets = self.budget.max_itemsets

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ResourceGovernor":
        """Arm the clocks; idempotent (first call wins, for shared use)."""
        if self._started_at is None:
            self._started_at = time.monotonic()
            if self.budget.deadline is not None:
                self._deadline_at = self._started_at + self.budget.deadline
            if self.budget.memory_budget is not None:
                self._mem_base = _allocated_blocks()
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def remaining_time(self) -> float | None:
        """Seconds left before the deadline, or ``None`` if unbounded."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - time.monotonic())

    def estimated_memory(self) -> int:
        """Estimated bytes allocated since :meth:`start` (see module note)."""
        if self._mem_base is None:
            return 0
        blocks = max(0, _allocated_blocks() - self._mem_base)
        return blocks * _BYTES_PER_BLOCK + self._held

    # -- admission control -------------------------------------------------
    def admit(self, plt, *, method: str = "conditional") -> None:
        """Pre-reject a request whose estimated footprint cannot fit.

        ``method`` selects the estimator (``"conditional"`` or
        ``"topdown"``).  Only the memory axis is admission-checked — time
        cannot be estimated portably up front, so the deadline is
        enforced at runtime instead.
        """
        cap = self.budget.memory_budget
        if cap is None:
            return
        if method == "topdown":
            estimate = estimate_topdown_memory(plt)
        else:
            estimate = estimate_conditional_memory(plt)
        if estimate > cap:
            raise AdmissionRejected(
                f"admission control: estimated {method} mining footprint "
                f"~{estimate} bytes exceeds the {cap} byte memory budget; "
                "raise the budget, lower the workload, or set a "
                "DegradationPolicy",
                estimate=estimate,
                budget=cap,
            )

    # -- the hot-path hooks ------------------------------------------------
    def hold(self, nbytes: int) -> None:
        """Declare the bytes the run holds in buffers the allocator sample
        cannot see (NumPy arrays); each call replaces the last figure."""
        self._held = nbytes

    def tick(self, work: int = 1) -> None:
        """Charge ``work`` units; every ``check_interval`` units, really check."""
        self._countdown -= work
        if self._countdown > 0:
            return
        self._check()

    def note_itemsets(self, n: int = 1) -> None:
        """Charge ``n`` itemsets a miner is about to write; the cap check
        is immediate, so a miner that charges before it writes never
        holds more than ``max_itemsets``."""
        self.itemsets += n
        if self._max_itemsets is not None and self.itemsets > self._max_itemsets:
            raise self._tripped(BudgetExceeded(
                f"itemset budget exhausted: more than {self._max_itemsets} "
                "frequent itemsets",
                reason="max_itemsets",
            ))
        self.tick(n)

    def _tripped(self, exc: Exception) -> Exception:
        """Stamp the trip's time into ``progress["tripped_s"]``; return
        ``exc`` for the caller to raise (raised here, it would sit in a
        frame of its own traceback: a cycle that pins the frames' arrays)."""
        self.progress["tripped_s"] = self.elapsed()
        return exc

    def _check(self) -> None:
        self._countdown = self._interval
        if self.cancel is not None and self.cancel.cancelled:
            raise self._tripped(Cancelled(
                f"mining cancelled: {self.cancel.reason}", reason="cancelled"
            ))
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            raise self._tripped(BudgetExceeded(
                f"deadline of {self.budget.deadline}s exceeded "
                f"(elapsed {self.elapsed():.3f}s)",
                reason="deadline",
            ))
        if self._mem_base is not None:
            used = self.estimated_memory()
            if used > self.budget.memory_budget:
                raise self._tripped(BudgetExceeded(
                    f"estimated memory {used} bytes exceeds the "
                    f"{self.budget.memory_budget} byte budget",
                    reason="memory",
                ))

    def check_now(self) -> None:
        """Force an immediate real check (drivers call this between phases)."""
        self._check()

    def __repr__(self) -> str:
        return (
            f"ResourceGovernor(budget={self.budget!r}, itemsets={self.itemsets}, "
            f"elapsed={self.elapsed():.3f}s)"
        )
