"""Stream ingestion driver: one pass, periodic reports, durable snapshots.

:class:`StreamIngestor` pulls transactions from any iterator (the
unseekable-stream readers in :mod:`repro.data.io`, a socket feed, a
generator) into a summary — either a whole-stream
:class:`~repro.stream.summary.StreamSummary` or a
:class:`~repro.stream.window.SlidingWindowSketch` — and on a fixed
cadence invokes a report callback and/or persists a snapshot through a
CRC-framed :class:`~repro.robustness.checkpoint.CheckpointStore` (two
generations: a crash mid-save falls back to the previous good sketch).

Snapshots carry a one-byte kind tag so :func:`load_sketch` restores the
right class without the caller remembering which one it saved.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Iterator
from itertools import islice

from repro.errors import CheckpointError, InvalidParameterError
from repro.robustness.checkpoint import CheckpointStore
from repro.stream.summary import INGEST_BATCH, StreamSummary
from repro.stream.window import SlidingWindowSketch

__all__ = [
    "StreamIngestor",
    "sketch_to_blob",
    "sketch_from_blob",
    "save_sketch",
    "load_sketch",
    "sketch_digest",
    "SKETCH_NODE",
    "SKETCH_KEY",
]

#: CheckpointStore coordinates used for sketch snapshots: the stream tier
#: is a single logical node, and one key holds the whole summary state.
SKETCH_NODE = 0
SKETCH_KEY = "stream-sketch"

#: Snapshot kind tag of each sketch class.
_KINDS = {b"S": StreamSummary, b"W": SlidingWindowSketch}


def sketch_to_blob(sketch: StreamSummary | SlidingWindowSketch) -> bytes:
    """Serialize a sketch to its tagged snapshot bytes (kind + payload).

    This is the blob :func:`save_sketch` persists and :func:`sketch_digest`
    hashes; the serve tier's warm-restart snapshots
    (:mod:`repro.serve.snapshot`) reuse it so a sketch snapshot written by
    either tier restores in the other.
    """
    for kind, cls in _KINDS.items():
        if isinstance(sketch, cls):
            return kind + sketch.to_bytes()
    raise InvalidParameterError(
        f"cannot snapshot a {type(sketch).__name__}; expected StreamSummary "
        f"or SlidingWindowSketch"
    )


def sketch_from_blob(blob: bytes) -> StreamSummary | SlidingWindowSketch:
    """Inverse of :func:`sketch_to_blob` (raises CheckpointError on damage)."""
    if not blob:
        raise CheckpointError("empty sketch snapshot")
    cls = _KINDS.get(blob[:1])
    if cls is None:
        raise CheckpointError(f"unknown sketch snapshot kind {blob[:1]!r}")
    return cls.from_bytes(blob[1:])


def save_sketch(
    store: CheckpointStore,
    sketch: StreamSummary | SlidingWindowSketch,
    *,
    key: str = SKETCH_KEY,
) -> int:
    """Persist a sketch snapshot; returns the snapshot size in bytes."""
    blob = sketch_to_blob(sketch)
    store.save(SKETCH_NODE, key, blob)
    return len(blob)


def load_sketch(
    store: CheckpointStore, *, key: str = SKETCH_KEY
) -> StreamSummary | SlidingWindowSketch:
    """Restore the sketch saved under ``key`` (raises on absent/corrupt)."""
    return sketch_from_blob(store.load(SKETCH_NODE, key))


def sketch_digest(sketch: StreamSummary | SlidingWindowSketch) -> str:
    """SHA-256 over the sketch's serialized state (incl. the kind tag).

    Two sketches with equal digests answer every query identically —
    the property the snapshot/restore smoke asserts.
    """
    return hashlib.sha256(sketch_to_blob(sketch)).hexdigest()


class StreamIngestor:
    """Drive transactions from an iterator into a sketch, with cadence hooks.

    Parameters
    ----------
    sketch:
        A :class:`StreamSummary` or :class:`SlidingWindowSketch`.
    report_every:
        Call ``on_report(sketch, n_ingested)`` every that many
        transactions (0 disables).
    on_report:
        The report callback; exceptions propagate (a broken reporter is
        a caller bug, not an ingest condition to swallow).
    checkpoint:
        A :class:`CheckpointStore` to snapshot into at the report
        cadence (and once at the end of :meth:`run`).
    checkpoint_key:
        Key within the store (default :data:`SKETCH_KEY`).
    """

    def __init__(
        self,
        sketch: StreamSummary | SlidingWindowSketch,
        *,
        report_every: int = 0,
        on_report: Callable[[StreamSummary | SlidingWindowSketch, int], None] | None = None,
        checkpoint: CheckpointStore | None = None,
        checkpoint_key: str = SKETCH_KEY,
    ):
        if report_every < 0:
            raise InvalidParameterError(
                f"report_every must be >= 0, got {report_every}"
            )
        self.sketch = sketch
        self.report_every = report_every
        self.on_report = on_report
        self.checkpoint = checkpoint
        self.checkpoint_key = checkpoint_key
        self.n_ingested = 0
        self.n_reports = 0
        self.n_snapshots = 0

    def _tick(self) -> None:
        self.n_reports += 1
        if self.on_report is not None:
            self.on_report(self.sketch, self.n_ingested)
        self.snapshot_now()

    def snapshot_now(self) -> bool:
        """Persist a snapshot immediately (out-of-cadence hook).

        The serving worker calls this from its SIGHUP handler so an
        operator can force a durable sketch generation between cadence
        ticks.  Returns True when a snapshot was written (False when no
        checkpoint store is configured).
        """
        if self.checkpoint is None:
            return False
        save_sketch(self.checkpoint, self.sketch, key=self.checkpoint_key)
        self.n_snapshots += 1
        return True

    def feed(self, transactions: Iterable[Iterable]) -> int:
        """Ingest transactions (no final snapshot); returns the count fed.

        Transactions go to the sketch in blocks of at most
        :data:`~repro.stream.summary.INGEST_BATCH` that end on every
        report tick, so ticks land on the same transaction counts.
        """
        it = iter(transactions)
        fed = 0
        while True:
            size = INGEST_BATCH
            if self.report_every:
                size = min(size, self.report_every - self.n_ingested % self.report_every)
            block = list(islice(it, size))
            if not block:
                return fed
            self.sketch.extend(block)
            self.n_ingested += len(block)
            fed += len(block)
            if self.report_every and self.n_ingested % self.report_every == 0:
                self._tick()

    def run(self, transactions: Iterator[Iterable]) -> int:
        """Ingest to exhaustion, then snapshot once more (if configured)."""
        fed = self.feed(transactions)
        if self.checkpoint is not None:
            save_sketch(self.checkpoint, self.sketch, key=self.checkpoint_key)
            self.n_snapshots += 1
        return fed

    def __repr__(self) -> str:
        return (
            f"StreamIngestor(ingested={self.n_ingested}, reports={self.n_reports}, "
            f"snapshots={self.n_snapshots})"
        )
