"""Sketch-backed serving engine: frequency/top-k answers from fixed memory.

:class:`SketchEngine` is the :class:`~repro.serve.engine.PatternEngine`'s
bounded-memory sibling.  It plugs into the same
:class:`~repro.serve.server.PatternServer` (the server only requires
``.handle(request)`` and ``.stats()``) but answers from a
:class:`~repro.stream.summary.StreamSummary` — one single pass over the
input at startup (or a restored snapshot), then constant memory forever,
never materialising the PLT or the transaction database.

Endpoints (``op`` field):

``ping`` / ``health``
    Liveness probes, from the shared :class:`~repro.serve.engine.Engine`
    envelope (``health`` reports ``engine: "sketch"``).
``sketch_frequency``
    One-sided support estimate of an arbitrary itemset.  The answer is
    never below the true support; ``error_bound`` in the result is the
    additive ``ceil(eps*N)`` overshoot cap (w.p. ``>= 1 - delta``).
``sketch_topk``
    The ``k`` heaviest monitored 1-/2-itemsets from the space-saving
    summaries, supports re-estimated through the count-min sketch.
``sketch_frequent``
    Every monitored 1-/2-itemset whose estimate meets ``min_support``.
``stats``
    Sketch shape, memory, ingest counters.

Every answer envelope is explicitly marked ``"approximate": true`` and
``"complete": false`` with ``"source": "sketch"`` — the differential
smoke test relies on a served sketch answer never masquerading as exact.
The exact-op names (``frequency``, ``topk``, ...) are deliberately
rejected with a hint, so a client pointed at the wrong engine fails
loudly instead of silently getting estimates.
"""

from __future__ import annotations

import time

from repro.core.rank import sort_key
from repro.errors import InvalidParameterError, ServeProtocolError
from repro.serve.engine import Engine
from repro.stream.summary import StreamSummary
from repro.stream.window import SlidingWindowSketch

__all__ = ["SketchEngine"]

#: Exact-engine ops a sketch daemon cannot serve — rejected with a hint.
_EXACT_OPS = ("frequency", "topk", "rules", "recommend")


class SketchEngine(Engine):
    """Dispatch over a stream sketch; drop-in for :class:`PatternServer`."""

    OPS = (
        "ping",
        "health",
        "sketch_frequency",
        "sketch_topk",
        "sketch_frequent",
        "stats",
    )
    ENGINE = "sketch"

    def __init__(self, summary: StreamSummary | SlidingWindowSketch):
        if not isinstance(summary, (StreamSummary, SlidingWindowSketch)):
            raise InvalidParameterError(
                f"SketchEngine needs a StreamSummary or SlidingWindowSketch, "
                f"got {type(summary).__name__}"
            )
        super().__init__()
        self.summary = summary

    def _unknown_op(self, op):
        if op in _EXACT_OPS:
            raise ServeProtocolError(
                f"op {op!r} needs the exact engine; this daemon serves "
                f"sketch estimates — use 'sketch_{op}' if available "
                f"({', '.join(self.OPS)})",
                code="bad_request",
            )
        super()._unknown_op(op)

    def _envelope(self, result: dict, info: dict) -> dict:
        """The sketch answer envelope: labeled approximate, never complete."""
        return {
            "ok": True,
            "result": result,
            "complete": False,
            "approximate": True,
            "source": "sketch",
            "error_bound": info.get("error_bound"),
            "epsilon": info.get("epsilon"),
            "delta": info.get("delta"),
        }

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _op_sketch_frequency(self, request, cancel) -> dict:
        items = request.get("items")
        if not isinstance(items, (list, tuple)) or not items:
            raise ServeProtocolError(
                "sketch_frequency requires a non-empty 'items' list",
                code="bad_request",
            )
        min_support = self._field(request, "min_support", None, nullable=True)
        try:
            answer = self.summary.frequency(items, min_support)
        except TypeError:
            raise ServeProtocolError(
                "sketch_frequency items must be hashable scalars",
                code="bad_request",
            ) from None
        info = answer.info or {}
        estimate = info.get("estimate", 0)
        bound = self.summary.error_bound(info.get("size", 1))
        result = {
            "items": sorted(set(items), key=sort_key),
            "estimate": estimate,
            "error_bound": bound,
            "frequent": estimate >= answer.min_support,
            "min_support": answer.min_support,
            "n_transactions": answer.n_transactions,
            "disclaimer": answer.disclaimer,
        }
        return self._envelope(result, {**info, "error_bound": bound})

    def _op_sketch_topk(self, request, cancel) -> dict:
        k = self._field(request, "k", 10, count=True)
        answer = self.summary.top_k(k)
        entries = [(fi.items, fi.support) for fi in answer]
        entries.sort(key=self._order_key)
        result = {
            "k": k,
            "entries": [
                {"items": list(items), "estimate": est} for items, est in entries
            ],
            "n_transactions": answer.n_transactions,
            "disclaimer": answer.disclaimer,
        }
        return self._envelope(result, answer.info or {})

    def _op_sketch_frequent(self, request, cancel) -> dict:
        if request.get("min_support") is None:
            raise ServeProtocolError(
                "sketch_frequent requires 'min_support'", code="bad_request"
            )
        answer = self.summary.as_result(self._field(request, "min_support", None))
        result = {
            "min_support": answer.min_support,
            "itemsets": [
                {"items": list(fi.items), "estimate": fi.support} for fi in answer
            ],
            "n_transactions": answer.n_transactions,
            "disclaimer": answer.disclaimer,
        }
        return self._envelope(result, answer.info or {})

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        """Sketch shape, memory and the request counters."""
        s = self.summary
        ops, errors = self._counters()
        windowed = isinstance(s, SlidingWindowSketch)
        result = {
            "engine": "sketch",
            "uptime": time.monotonic() - self._started_at,
            "ops": ops,
            "errors": errors,
            "epsilon": s.epsilon,
            "delta": s.delta,
            "memory_bytes": s.memory_bytes(),
            "error_bound": s.error_bound(1),
            "windowed": windowed,
            "n_items": len(s.registry),
        }
        if windowed:
            result["window"] = s.window
            result["covered"] = s.covered()
            result["n_seen"] = s.n_seen
        else:
            result["n_transactions"] = s.n_transactions
        return result
