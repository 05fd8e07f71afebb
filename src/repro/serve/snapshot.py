"""Warm-restart snapshots for the serving tier.

A supervised serving worker must come back from a crash without paying
the cold-start cost — rebuilding the PLT from the transaction database
(Algorithm 1) is exactly the work a restart should skip.  This module
persists the worker's in-memory state through a two-generation
CRC-framed :class:`~repro.robustness.checkpoint.CheckpointStore`:

* a :class:`~repro.serve.engine.ServingIndex` is stored as the compact
  PLT codec stream (``repro.compress.serialize_plt``) — rank table,
  positional vectors, header facts — so restore is a deserialize plus an
  array-postings build, never a mine;
* a :class:`~repro.stream.summary.StreamSummary` /
  :class:`~repro.stream.window.SlidingWindowSketch` reuses the stream
  tier's tagged snapshot bytes (:func:`repro.stream.ingest.sketch_to_blob`),
  so sketch snapshots written by ``repro stream`` and ``repro serve
  --sketch`` are interchangeable.

Every blob carries a one-byte kind tag, and every save/load reports the
SHA-256 **digest** of the tagged blob: two workers with equal digests
answer every query identically, which is the invariant the
crash-recovery chaos suite pins.

Damage never propagates: the store's CRC framing rejects a torn or
flipped generation and falls back to the previous one; only when *no*
generation survives does :func:`load_snapshot` return ``None``, and the
worker then rebuilds cold from its durable input — degraded, never
wrong.
"""

from __future__ import annotations

import hashlib

from repro.compress import deserialize_plt, serialize_plt
from repro.errors import CheckpointError, CodecError, InvalidParameterError
from repro.robustness.checkpoint import CheckpointStore
from repro.serve.engine import ServingIndex
from repro.stream.ingest import sketch_from_blob, sketch_to_blob
from repro.stream.summary import StreamSummary
from repro.stream.window import SlidingWindowSketch

__all__ = [
    "SNAPSHOT_NODE",
    "SNAPSHOT_KEY",
    "snapshot_blob",
    "restore_from_blob",
    "blob_digest",
    "save_snapshot",
    "load_snapshot",
]

#: CheckpointStore coordinates for serving snapshots: the worker is a
#: single logical node and one key holds its whole serving state.
SNAPSHOT_NODE = 0
SNAPSHOT_KEY = "serve-snapshot"

#: Kind tag for a serialized :class:`ServingIndex` (the stream tier's
#: ``S``/``W`` tags are reused verbatim for sketch snapshots).
_KIND_INDEX = b"I"


def snapshot_blob(state) -> bytes:
    """Serialize a serving state (index or sketch) to tagged bytes."""
    if isinstance(state, ServingIndex):
        return _KIND_INDEX + serialize_plt(state.plt())
    if isinstance(state, (StreamSummary, SlidingWindowSketch)):
        return sketch_to_blob(state)
    raise InvalidParameterError(
        f"cannot snapshot a {type(state).__name__}; expected ServingIndex, "
        f"StreamSummary, or SlidingWindowSketch"
    )


def restore_from_blob(blob: bytes):
    """Inverse of :func:`snapshot_blob`; raises CheckpointError on damage."""
    if not blob:
        raise CheckpointError("empty serving snapshot")
    if blob[:1] == _KIND_INDEX:
        try:
            plt = deserialize_plt(blob[1:])
        except CodecError as exc:
            raise CheckpointError(f"damaged serving-index snapshot: {exc}") from exc
        return ServingIndex(plt.rank_table, plt.flat)
    return sketch_from_blob(blob)


def blob_digest(blob: bytes) -> str:
    """SHA-256 of a tagged snapshot blob (the warm-restart identity)."""
    return hashlib.sha256(blob).hexdigest()


def save_snapshot(
    store: CheckpointStore, state, *, key: str = SNAPSHOT_KEY
) -> tuple[str, int]:
    """Persist one snapshot generation; returns ``(digest, n_bytes)``."""
    blob = snapshot_blob(state)
    store.save(SNAPSHOT_NODE, key, blob)
    return blob_digest(blob), len(blob)


def load_snapshot(store: CheckpointStore, *, key: str = SNAPSHOT_KEY):
    """Restore the newest surviving generation, or ``None``.

    ``None`` means *no usable snapshot* — the key was never written, or
    every kept generation is damaged (CRC-rejected) or unparseable.  The
    caller treats that as "rebuild cold from durable input".  Otherwise
    returns ``(state, digest)`` where ``digest`` identifies the exact
    bytes the state was rehydrated from.
    """
    blob = store.get(SNAPSHOT_NODE, key)
    if blob is None:
        return None
    try:
        state = restore_from_blob(blob)
    except (CheckpointError, CodecError):
        # passed the CRC but does not parse (e.g. a snapshot written by a
        # newer format): cold rebuild beats crashing the restart loop
        return None
    return state, blob_digest(blob)
