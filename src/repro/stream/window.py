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
against memory); ``covered()`` reports the current figure and every
answer's ``info`` carries it.

For callers that need *exact* answers over a short recent horizon, the
optional ``exact_tail`` composes a
:class:`~repro.core.window.SlidingWindowPLT` maintained in lockstep:
``mine_exact_tail()`` mines the last ``exact_tail`` transactions
exactly while the sketch covers the long window approximately.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Hashable, Iterable
from itertools import islice

from repro.core.mining import ApproximateResult, FrequentItemset
from repro.core.rank import sort_key
from repro.core.window import SlidingWindowPLT
from repro.data.transaction_db import resolve_min_support
from repro.errors import InvalidParameterError
from repro.stream.cms import unpack_pair
from repro.stream.summary import INGEST_BATCH, RankRegistry, StreamSummary

__all__ = ["SlidingWindowSketch"]

Item = Hashable


class SlidingWindowSketch:
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

    def frequency(
        self, itemset: Iterable[Item], min_support: float | int | None = None
    ) -> ApproximateResult:
        """Windowed support estimate of one itemset, as a labeled result."""
        items = tuple(sorted(set(itemset), key=sort_key))
        est = self.estimate(items)
        covered = max(self.covered(), 1)
        threshold = (
            resolve_min_support(min_support, covered) if min_support is not None else 1
        )
        itemsets = [FrequentItemset(items, est)] if est >= threshold else []
        return ApproximateResult(
            itemsets,
            n_transactions=self.covered(),
            min_support=threshold,
            method="stream-sketch-window",
            disclaimer=self._disclaimer(
                f"point query over a {len(items)}-itemset, bound "
                f"+{self.error_bound(len(items))}"
            ),
            info=self._info(estimate=est, query=list(items), size=len(items)),
        )

    def _candidate_rows(self) -> list[tuple[tuple[Item, ...], int]]:
        """Union of monitored candidates across generations, re-estimated
        with the summed sketches so every row uses the same estimator."""
        single_ranks: set[int] = set()
        pair_keys: set[int] = set()
        for g in self._generations:
            for rank, _count, _error in g.items_hh.entries():
                single_ranks.add(rank)
            if self.track_pairs:
                for key, _count, _error in g.pairs_hh.entries():
                    pair_keys.add(key)
        rows: list[tuple[tuple[Item, ...], int]] = []
        for rank in single_ranks:
            est = sum(g.items_cms.estimate(rank) for g in self._generations)
            rows.append(((self.registry.item(rank),), est))
        for key in pair_keys:
            r1, r2 = unpack_pair(key)
            est = sum(g.pairs_cms.estimate(key) for g in self._generations)
            items = tuple(
                sorted((self.registry.item(r1), self.registry.item(r2)), key=sort_key)
            )
            rows.append((items, est))
        return rows

    def top_k(self, k: int) -> ApproximateResult:
        """The ``k`` heaviest monitored itemsets over the covered window."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        rows = self._candidate_rows()
        rows.sort(key=lambda row: (-row[1], len(row[0]), [sort_key(i) for i in row[0]]))
        top = rows[:k]
        return ApproximateResult(
            [FrequentItemset(items, est) for items, est in top],
            n_transactions=self.covered(),
            min_support=1,
            method="stream-sketch-window+topk",
            disclaimer=self._disclaimer(
                f"top-{k} of {len(rows)} candidates monitored across generations"
            ),
            info=self._info(k=k, candidates=len(rows)),
        )

    def as_result(
        self, min_support: float | int, *, method: str = "stream-sketch-window"
    ) -> ApproximateResult:
        """Monitored 1-/2-itemsets meeting the threshold over the window."""
        threshold = resolve_min_support(min_support, max(self.covered(), 1))
        keep = [
            FrequentItemset(items, est)
            for items, est in self._candidate_rows()
            if est >= threshold
        ]
        keep.sort(
            key=lambda fi: (len(fi.items), [sort_key(i) for i in fi.items])
        )
        return ApproximateResult(
            keep,
            n_transactions=self.covered(),
            min_support=threshold,
            method=method,
            disclaimer=self._disclaimer(
                "only monitored 1- and 2-itemsets are enumerated"
            ),
            info=self._info(min_support=threshold),
        )

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
