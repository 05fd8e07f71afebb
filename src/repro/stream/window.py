"""Sliding-window composition of stream summaries: sketching with decay.

A single :class:`~repro.stream.summary.StreamSummary` remembers the
whole stream — after a distribution change it keeps reporting patterns
that stopped occurring.  :class:`SlidingWindowSketch` bounds the
horizon: the last ``window`` transactions are covered by a deque of
``buckets`` generation summaries (each spanning ``~window/buckets``
transactions) that share one :class:`~repro.stream.summary.RankRegistry`
so ranks agree across generations.  When the newest generation fills,
a fresh one starts; when total coverage exceeds the window, the oldest
generation is dropped whole.

Estimates are the **sum of per-generation estimates**.  Each generation
is itself conservative (never under its own true count), so the sum
never under-reports the true support over the covered suffix, and the
additive error bound is the sum of the generations' bounds.  Coverage
is generation-granular: between ``window - window/buckets`` and
``window`` transactions (exactly like time-decayed sketches traded
against memory); ``covered()`` (also ``n_transactions``) reports the
current figure and every answer's ``info`` carries it.  The answers
themselves are :class:`~repro.stream.summary.SketchAnswers` over the
live generations, the layer a whole-stream summary answers through.

For callers that need *exact* answers over a short recent horizon, the
optional ``exact_tail`` composes a
:class:`~repro.core.window.SlidingWindowPLT` maintained in lockstep:
``mine_exact_tail()`` mines the last ``exact_tail`` transactions
exactly while the sketch covers the long window approximately.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Hashable, Iterable
from itertools import islice

from repro.core.window import SlidingWindowPLT
from repro.errors import CheckpointError, InvalidParameterError
from repro.stream.summary import (
    INGEST_BATCH,
    RankRegistry,
    SketchAnswers,
    StreamSummary,
    _json_section,
    _pack_sections,
    _unpack_sections,
)

__all__ = ["SlidingWindowSketch"]

Item = Hashable


class SlidingWindowSketch(SketchAnswers):
    """Fixed-memory frequency summary of (approximately) the last ``window``
    transactions.

    Parameters mirror :class:`~repro.stream.summary.StreamSummary`, plus:

    window:
        Target number of recent transactions covered.
    buckets:
        Generations the window is split into; more buckets means finer
        eviction granularity at ``buckets``× the sketch memory.
    exact_tail:
        When positive, also maintain an exact
        :class:`~repro.core.window.SlidingWindowPLT` over the most
        recent ``exact_tail`` transactions (must be ``<= window``).
    """

    __slots__ = (
        "window",
        "buckets",
        "bucket_span",
        "epsilon",
        "delta",
        "capacity",
        "seed",
        "track_pairs",
        "registry",
        "_generations",
        "_pushed",
        "_gen_counter",
        "exact_tail",
        "_tail",
    )

    def __init__(
        self,
        window: int,
        *,
        buckets: int = 4,
        epsilon: float = 0.005,
        delta: float = 0.01,
        capacity: int = 256,
        seed: int = 0,
        track_pairs: bool = True,
        exact_tail: int = 0,
    ):
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        if exact_tail < 0 or exact_tail > window:
            raise InvalidParameterError(
                f"exact_tail must be in [0, window], got {exact_tail}"
            )
        self.window = int(window)
        self.buckets = int(buckets)
        self.bucket_span = max(1, math.ceil(window / buckets))
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.track_pairs = bool(track_pairs)
        self.registry = RankRegistry()
        self._generations: deque[StreamSummary] = deque()
        self._pushed = 0
        self._gen_counter = 0
        self.exact_tail = int(exact_tail)
        self._tail = SlidingWindowPLT(exact_tail) if exact_tail else None

    # ------------------------------------------------------------------
    def _new_generation(self) -> StreamSummary:
        # distinct seeds per generation keep hash collisions uncorrelated
        self._gen_counter += 1
        gen = StreamSummary(
            epsilon=self.epsilon,
            delta=self.delta,
            capacity=self.capacity,
            seed=self.seed + 2 * self._gen_counter,
            track_pairs=self.track_pairs,
            registry=self.registry,
        )
        self._generations.append(gen)
        return gen

    def push(self, transaction: Iterable[Item]) -> None:
        """Ingest one transaction: ``extend((transaction,))``."""
        self.extend((transaction,))

    def extend(self, transactions: Iterable[Iterable[Item]]) -> int:
        """Ingest transactions in blocks that end on generation
        boundaries; evicts old generations when due.  Returns the count."""
        it = iter(transactions)
        count = 0
        while True:
            newest = self._generations[-1] if self._generations else None
            full = newest is None or newest.n_transactions >= self.bucket_span
            room = self.bucket_span - (0 if full else newest.n_transactions)
            block = [
                t if isinstance(t, (tuple, frozenset)) else tuple(t)
                for t in islice(it, min(room, INGEST_BATCH))
            ]
            if not block:
                return count
            if full:
                newest = self._new_generation()
            newest.extend(block)
            self._pushed += len(block)
            count += len(block)
            while self.covered() > self.window and len(self._generations) > 1:
                self._generations.popleft()
            if self._tail is not None:
                self._tail.extend(block)

    # ------------------------------------------------------------------
    def covered(self) -> int:
        """Transactions currently covered by the live generations."""
        return sum(g.n_transactions for g in self._generations)

    @property
    def n_transactions(self) -> int:
        """The transactions the answers cover: :meth:`covered`."""
        return self.covered()

    @property
    def n_seen(self) -> int:
        """Total transactions ever pushed (including evicted ones)."""
        return self._pushed

    def estimate(self, itemset: Iterable[Item]) -> int:
        """Summed per-generation estimates — never under the true support
        over the covered suffix."""
        items = tuple(set(itemset))
        if not items:
            raise InvalidParameterError("cannot estimate an empty itemset")
        return sum(g.estimate(items) for g in self._generations)

    def error_bound(self, size: int = 1) -> int:
        """Sum of the generations' additive bounds for a ``size``-itemset."""
        return sum(g.error_bound(size) for g in self._generations)

    def memory_bytes(self) -> int:
        return sum(g.memory_bytes() for g in self._generations)

    # ------------------------------------------------------------------
    # labeled answers (SketchAnswers)
    # ------------------------------------------------------------------
    METHOD = "stream-sketch-window"

    def _parts(self) -> deque[StreamSummary]:
        return self._generations

    def _disclaimer(self, detail: str) -> str:
        return (
            f"approximate result over a sliding window: covers the last "
            f"{self.covered()} of {self._pushed} transactions in "
            f"{len(self._generations)} generations; per-generation "
            f"conservative count-min estimates are summed (never below the "
            f"true windowed support); {detail}"
        )

    def _info(self, **extra) -> dict:
        info = {
            "fallback": "sketch-window",
            "epsilon": self.epsilon,
            "delta": self.delta,
            "window": self.window,
            "covered": self.covered(),
            "generations": len(self._generations),
            "n_seen": self._pushed,
            "error_bound": self.error_bound(1),
            "pair_error_bound": self.error_bound(2) if self.track_pairs else None,
            "memory_bytes": self.memory_bytes(),
        }
        info.update(extra)
        return info

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the window: header, generation summaries, exact tail.

        Generations share one registry in memory; on disk each generation
        section embeds it (the registry is small — the distinct-item list)
        and :meth:`from_bytes` re-unifies them onto one registry.
        """
        header = json.dumps(
            {
                "window": self.window,
                "buckets": self.buckets,
                "epsilon": self.epsilon,
                "delta": self.delta,
                "capacity": self.capacity,
                "seed": self.seed,
                "track_pairs": self.track_pairs,
                "exact_tail": self.exact_tail,
                "pushed": self._pushed,
                "gen_counter": self._gen_counter,
                "gen_seeds": [g.seed for g in self._generations],
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        sections = [header] + [g.to_bytes() for g in self._generations]
        if self._tail is not None:
            rows = [sorted(t, key=repr) for t in self._tail.contents()]
            sections.append(json.dumps(rows, separators=(",", ":")).encode("utf-8"))
        return _pack_sections(*sections)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SlidingWindowSketch":
        sections = _unpack_sections(blob, "sliding-window snapshot")
        header = _json_section(sections[0], "sliding-window header")
        sketch = cls(
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
        if len(sections) != 1 + n_gens + (sketch._tail is not None):
            raise CheckpointError(f"sliding-window snapshot has {len(sections)} sections")
        generations = [StreamSummary.from_bytes(s) for s in sections[1 : 1 + n_gens]]
        if generations:
            # re-unify the shared registry: all generations saw the same
            # arrival order, so the largest registry is a superset
            sketch.registry = max((g.registry for g in generations), key=len)
            for g in generations:
                g.registry = sketch.registry
        sketch._generations.extend(generations)
        sketch._pushed = header["pushed"]
        sketch._gen_counter = header["gen_counter"]
        if sketch._tail is not None:
            sketch._tail.extend(_json_section(sections[-1], "exact-tail section"))
        return sketch

    # ------------------------------------------------------------------
    def mine_exact_tail(
        self, min_support: float | int, *, max_len: int | None = None
    ) -> list[tuple[tuple[Item, ...], int]]:
        """Exact frequent itemsets of the last ``exact_tail`` transactions.

        Requires the sketch to have been built with ``exact_tail > 0``.
        """
        if self._tail is None:
            raise InvalidParameterError(
                "exact-tail mining requires exact_tail > 0 at construction"
            )
        return self._tail.mine(min_support, max_len=max_len)

    def __repr__(self) -> str:
        return (
            f"SlidingWindowSketch(window={self.window}, buckets={self.buckets}, "
            f"covered={self.covered()}/{self._pushed} pushed, "
            f"~{self.memory_bytes()} bytes)"
        )
