"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError`` etc. are still raised for
plain misuse).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidVectorError",
    "UnknownItemError",
    "InvalidSupportError",
    "InvalidParameterError",
    "RankTableError",
    "TopDownExplosionError",
    "DatasetError",
    "CodecError",
    "ParallelExecutionError",
    "CrashedNodeError",
    "WorkerLostError",
    "CheckpointError",
    "MiningInterrupted",
    "BudgetExceeded",
    "Cancelled",
    "AdmissionRejected",
    "ServeError",
    "ServeProtocolError",
    "ServeConnectionError",
    "ServeOverloadedError",
    "ServeRestartBudgetError",
    "DegradedExecutionWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidVectorError(ReproError, ValueError):
    """A position vector violates the PLT invariants.

    Valid vectors are non-empty tuples of strictly positive integers
    (Definition 4.1.2/4.1.3 of the paper: positions are rank deltas and
    ranks are strictly increasing along a path).
    """


class UnknownItemError(ReproError, KeyError):
    """An item or rank was looked up that the rank table does not contain."""


class InvalidSupportError(ReproError, ValueError):
    """A minimum-support threshold is out of range.

    Absolute supports must be integers ``>= 1``; relative supports must be
    floats in ``(0, 1]``.
    """


class InvalidParameterError(ReproError, ValueError):
    """A configuration parameter is out of its valid range.

    The taxonomy home for the parameter checks that used to raise bare
    ``ValueError`` across :mod:`repro.core` and :mod:`repro.parallel`
    (worker counts, partition counts, sampling fractions, ...).  Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` callers keep
    working.
    """


class RankTableError(ReproError, ValueError):
    """A rank table cannot be built from the given items or order policy."""


class TopDownExplosionError(ReproError, RuntimeError):
    """The top-down pass would enumerate too many subset vectors.

    The paper's top-down approach (Algorithm 2) materialises the frequency
    of *every* subset of every transaction, which is exponential in the
    transaction length.  The miner estimates this cost up front and raises
    this error instead of exhausting memory; raise the ``work_limit`` or use
    the conditional miner for long transactions.
    """


class DatasetError(ReproError, ValueError):
    """A dataset file or generator specification is malformed."""


class CodecError(ReproError, ValueError):
    """A serialized PLT byte stream is malformed or truncated."""


class ParallelExecutionError(ReproError, RuntimeError):
    """A parallel mining worker failed; the original traceback is chained.

    When the failure happened inside a simulated node program, ``node_id``
    and ``superstep`` identify where (``None`` otherwise).
    """

    def __init__(self, message: str, *, node_id: int | None = None, superstep: int | None = None):
        super().__init__(message)
        self.node_id = node_id
        self.superstep = superstep


class CrashedNodeError(ParallelExecutionError):
    """A simulated node crashed (fault injection) and the run cannot proceed.

    Raised when a crash is unrecoverable: the coordinator (node 0) died, or
    every node in the cluster crashed.  Recoverable crashes — a worker that
    owns conditional databases — are instead handled by the failover
    protocol in :mod:`repro.parallel.distributed` and never surface as an
    exception.
    """


class WorkerLostError(ParallelExecutionError):
    """A real worker process died, was killed, or exited nonzero.

    Raised by the process-pool executors and the process-cluster backend
    when a worker subprocess is lost.  ``rank`` identifies the worker
    (the cluster node id, or the first top-level item rank of the batch a
    pool worker was mining), ``superstep`` is the last superstep the
    worker was known to be alive at (``None`` for pool workers), and
    ``exitcode`` is the subprocess exit status when known (negative for
    signal deaths, e.g. ``-9`` for SIGKILL).
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        superstep: int | None = None,
        exitcode: int | None = None,
    ):
        super().__init__(message, node_id=rank, superstep=superstep)
        self.rank = rank
        self.exitcode = exitcode


class CheckpointError(ReproError, RuntimeError):
    """A required checkpoint is missing or malformed in stable storage."""


class MiningInterrupted(ReproError, RuntimeError):
    """A governed mining run stopped before enumerating every itemset.

    Base class for :class:`BudgetExceeded` and :class:`Cancelled`.  The
    miner that trips attaches everything a caller needs to salvage the
    run:

    * ``reason`` — machine-readable stop cause (``"deadline"``,
      ``"max_itemsets"``, ``"memory"``, ``"cancelled"``);
    * ``partial`` — the itemsets mined before the stop, each with its
      **exact** frequency (governed miners never emit estimated counts):
      a :class:`~repro.core.columns.RankColumns` (empty by default).
      Distributed mining, not a facade-governed method, keeps its decoded
      ``(labels, support)`` list: its answer lives in label space;
    * ``progress`` — miner-specific completion markers, e.g.
      ``complete_from_rank`` (every itemset whose maximal rank is >= the
      marker was fully enumerated) or ``complete_min_len`` (top-down:
      every subset length >= the marker is final).  The governor stamps
      its own ``progress["tripped_s"]``, the trip's time from its start.

    Facade callers normally never see this exception —
    :func:`repro.core.mining.mine_frequent_itemsets` converts it into a
    :class:`~repro.core.mining.PartialResult` (or degrades per a
    :class:`~repro.robustness.governor.DegradationPolicy`).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str | None = None,
        partial=None,
        progress: dict | None = None,
    ):
        from repro.core.columns import RankColumns  # repro.core imports this module
        super().__init__(message)
        self.reason = reason
        self.partial = RankColumns() if partial is None else partial
        self.progress = progress if progress is not None else {}


class BudgetExceeded(MiningInterrupted):
    """A :class:`~repro.robustness.governor.MiningBudget` limit was hit.

    ``reason`` says which axis: ``"deadline"`` (wall clock),
    ``"max_itemsets"`` (output cap) or ``"memory"`` (estimated allocation
    cap).
    """


class Cancelled(MiningInterrupted):
    """A :class:`~repro.robustness.governor.CancellationToken` fired.

    Cooperative: the mining loop observed the token at one of its
    amortized checkpoints and unwound; ``partial`` holds what was mined
    up to that point.
    """


class AdmissionRejected(ReproError, RuntimeError):
    """Admission control refused to start the mining run at all.

    Raised *before* any mining work when an up-front estimate (e.g.
    :func:`repro.core.topdown.estimate_topdown_work` or the governor's
    memory estimators) says the request cannot fit its
    :class:`~repro.robustness.governor.MiningBudget`.  Carries the
    ``estimate`` and the ``budget`` figure it was compared against.
    """

    def __init__(self, message: str, *, estimate: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget


class ServeError(ReproError, RuntimeError):
    """A pattern-serving request could not be answered.

    Base class for the serving daemon's failure modes.  Carries a
    machine-readable ``code`` (``"bad_request"``, ``"protocol"``,
    ``"overloaded"``, ``"budget"``, ``"internal"``) that the wire
    protocol surfaces in the error envelope.
    """

    code = "internal"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ServeProtocolError(ServeError):
    """A client frame violated the serving wire protocol.

    Distinct from :class:`CodecError` (a *damaged* frame): this covers
    structurally hostile input — oversized length prefixes, non-DATA
    frames, payloads that are not valid request JSON.  The server answers
    the offending connection with an error envelope where possible and
    closes it; other connections are unaffected.
    """

    code = "protocol"


class ServeConnectionError(ServeError):
    """The client's TCP connection to the daemon is unusable.

    Raised by :class:`~repro.serve.client.ServeClient` when a request
    times out, the socket errors mid-exchange, or the server vanishes
    before answering.  After any of those the byte stream is no longer
    self-delimiting — a retry on the same socket could consume a stale
    half-read envelope — so the client marks the connection *broken*,
    closes it, and every further call raises this error until a new
    connection is made.  :class:`~repro.serve.resilient.ResilientClient`
    treats this error as the reconnect-and-retry signal.
    """

    code = "connection"


class ServeOverloadedError(ServeError):
    """Admission control refused a query: too many in flight.

    The serving daemon bounds concurrent mining work; a request arriving
    with every admission slot taken is rejected immediately (load
    shedding) rather than queued indefinitely.
    """

    code = "overloaded"


class ServeRestartBudgetError(ServeError):
    """The serving supervisor's crash-loop circuit breaker tripped.

    Raised by :class:`~repro.serve.supervisor.Supervisor` when the worker
    failed (crashed, hung, or died before READY) more consecutive times
    than the restart budget allows without ever reaching a healthy probe.
    Restarting further would loop forever on a deterministic startup
    failure; the supervisor surfaces the condition instead.
    """

    code = "restart_budget"


class DegradedExecutionWarning(RuntimeWarning):
    """A parallel executor fell back to in-process sequential execution.

    Results are still exact — only the parallel speedup is lost.  Emitted
    by :func:`repro.parallel.executor.mine_parallel` and friends when pool
    workers repeatedly time out, die, or cannot be spawned.
    """
