"""Bounded-memory streaming sketch tier.

One-pass, fixed-memory frequency summaries over transaction streams:

* :class:`~repro.stream.cms.CountMinSketch` — conservative-update
  count-min point estimates with a one-sided (eps, delta) guarantee;
* :class:`~repro.stream.spacesaving.SpaceSaving` — enumerable
  heavy-hitter candidates with per-key error bounds;
* :class:`~repro.stream.summary.StreamSummary` — the composed summary
  over PLT ranks and rank pairs, answering frequency / top-k / frequent
  1-2-itemset queries as labeled ``ApproximateResult``\\ s;
* :class:`~repro.stream.window.SlidingWindowSketch` — generational
  sliding-window variant that tracks drift, optionally composed with an
  exact :class:`~repro.core.window.SlidingWindowPLT` tail;
* :class:`~repro.stream.ingest.StreamIngestor` + snapshot helpers —
  the driver that feeds a stream in and persists/restores through
  CRC-framed :class:`~repro.robustness.checkpoint.CheckpointStore`
  generations.

See ``docs/STREAMING.md`` for guarantees and the memory model.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "CountMinSketch": "cms",
        "pack_pair": "cms",
        "unpack_pair": "cms",
        "SpaceSaving": "spacesaving",
        "RankRegistry": "summary",
        "StreamSummary": "summary",
        "SlidingWindowSketch": "window",
        "StreamIngestor": "ingest",
        "save_sketch": "ingest",
        "load_sketch": "ingest",
        "sketch_digest": "ingest",
        "sketch_to_blob": "ingest",
        "sketch_from_blob": "ingest",
        "SKETCH_NODE": "ingest",
        "SKETCH_KEY": "ingest",
    },
)

__all__ = [
    "CountMinSketch",
    "SpaceSaving",
    "RankRegistry",
    "StreamSummary",
    "SlidingWindowSketch",
    "StreamIngestor",
    "save_sketch",
    "load_sketch",
    "sketch_digest",
    "sketch_to_blob",
    "sketch_from_blob",
    "SKETCH_NODE",
    "SKETCH_KEY",
    "pack_pair",
    "unpack_pair",
]
