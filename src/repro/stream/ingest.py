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

_KIND_SUMMARY = b"S"
_KIND_WINDOW = b"W"


def sketch_to_blob(sketch: StreamSummary | SlidingWindowSketch) -> bytes:
    """Serialize a sketch to its tagged snapshot bytes (kind + payload).

    This is the blob :func:`save_sketch` persists and :func:`sketch_digest`
    hashes; the serve tier's warm-restart snapshots
    (:mod:`repro.serve.snapshot`) reuse it so a sketch snapshot written by
    either tier restores in the other.
    """
    if isinstance(sketch, StreamSummary):
        return _KIND_SUMMARY + sketch.to_bytes()
    if isinstance(sketch, SlidingWindowSketch):
        return _KIND_WINDOW + _window_to_bytes(sketch)
    raise InvalidParameterError(
        f"cannot snapshot a {type(sketch).__name__}; expected StreamSummary "
        f"or SlidingWindowSketch"
    )


def sketch_from_blob(blob: bytes) -> StreamSummary | SlidingWindowSketch:
    """Inverse of :func:`sketch_to_blob` (raises CheckpointError on damage)."""
    if not blob:
        raise CheckpointError("empty sketch snapshot")
    kind, payload = blob[:1], blob[1:]
    if kind == _KIND_SUMMARY:
        return StreamSummary.from_bytes(payload)
    if kind == _KIND_WINDOW:
        return _window_from_bytes(payload)
    raise CheckpointError(f"unknown sketch snapshot kind {kind!r}")


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
    import hashlib

    return hashlib.sha256(sketch_to_blob(sketch)).hexdigest()


def _window_to_bytes(sketch: SlidingWindowSketch) -> bytes:
    """Serialize a sliding-window sketch: header + generation summaries.

    Generations share one registry in memory; on disk each generation
    section embeds it (the registry is small — the distinct-item list)
    and restore re-unifies them onto the first generation's registry.
    """
    import json
    import struct

    header = json.dumps(
        {
            "window": sketch.window,
            "buckets": sketch.buckets,
            "epsilon": sketch.epsilon,
            "delta": sketch.delta,
            "capacity": sketch.capacity,
            "seed": sketch.seed,
            "track_pairs": sketch.track_pairs,
            "exact_tail": sketch.exact_tail,
            "pushed": sketch.n_seen,
            "gen_counter": sketch._gen_counter,
            "gen_seeds": [g.seed for g in sketch._generations],
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    sections = [header] + [g.to_bytes() for g in sketch._generations]
    if sketch._tail is not None:
        tail_doc = json.dumps(
            [sorted(t, key=repr) for t in sketch._tail.contents()],
            separators=(",", ":"),
        ).encode("utf-8")
        sections.append(tail_doc)
    return b"".join(struct.pack("<I", len(s)) + s for s in sections)


def _window_from_bytes(blob: bytes) -> SlidingWindowSketch:
    import json
    import struct

    sections: list[bytes] = []
    pos = 0
    size = struct.calcsize("<I")
    while pos < len(blob):
        if pos + size > len(blob):
            raise CheckpointError("truncated sliding-window snapshot")
        (length,) = struct.unpack_from("<I", blob, pos)
        pos += size
        if pos + length > len(blob):
            raise CheckpointError("truncated sliding-window snapshot")
        sections.append(blob[pos : pos + length])
        pos += length
    if not sections:
        raise CheckpointError("empty sliding-window snapshot")
    try:
        header = json.loads(sections[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"damaged sliding-window header: {exc}") from exc
    sketch = SlidingWindowSketch(
        header["window"],
        buckets=header["buckets"],
        epsilon=header["epsilon"],
        delta=header["delta"],
        capacity=header["capacity"],
        seed=header["seed"],
        track_pairs=header["track_pairs"],
        exact_tail=header["exact_tail"],
    )
    n_gens = len(header["gen_seeds"])
    expected = 1 + n_gens + (1 if header["exact_tail"] else 0)
    if len(sections) != expected:
        raise CheckpointError(
            f"sliding-window snapshot has {len(sections)} sections, "
            f"expected {expected}"
        )
    generations = [StreamSummary.from_bytes(s) for s in sections[1 : 1 + n_gens]]
    if generations:
        # re-unify the shared registry: all generations saw the same
        # arrival order, so the largest registry is a superset
        registry = max((g.registry for g in generations), key=len)
        for g in generations:
            g.registry = registry
        sketch.registry = registry
    sketch._generations.extend(generations)
    sketch._pushed = header["pushed"]
    sketch._gen_counter = header["gen_counter"]
    if header["exact_tail"]:
        try:
            tail_rows = json.loads(sections[-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"damaged exact-tail section: {exc}") from exc
        sketch._tail.extend(tail_rows)
    return sketch


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
