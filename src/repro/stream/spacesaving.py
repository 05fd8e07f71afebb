"""Space-saving heavy-hitters summary (Metwally, Agrawal & El Abbadi).

A count-min sketch answers *point* queries but cannot enumerate — "which
itemsets are frequent?" needs the candidates held somewhere.  The
space-saving summary keeps exactly ``capacity`` monitored keys; when a
new key arrives with the summary full, the current minimum-count entry
is *evicted and overwritten*: the newcomer inherits ``min_count + 1``
with its error recorded as ``min_count``.  Invariants (for ``N`` total
counted occurrences and ``m = capacity``):

* ``count(x) >= true(x)``            — monitored counts never under-report;
* ``count(x) - error(x) <= true(x)`` — the guaranteed-count lower bound;
* any key with ``true(x) > N / m`` is guaranteed to be monitored, so
  every true heavy hitter above that rate is enumerable.

Keys here are PLT ranks or packed rank pairs (``int``; the scalar
:meth:`SpaceSaving.add` also takes rank tuples) — homogeneous and
totally ordered per summary, which keeps the report order deterministic.

The minimum is tracked with a lazy heap: increments push superseded
entries that are skipped on pop, and the heap is rebuilt whenever the
stale fraction grows past ``4x`` capacity, so ``add`` stays amortized
O(log m) without a linear min-scan per eviction.

:meth:`SpaceSaving.update` merges a whole batch of aggregated integer
keys at once, with ``mu`` the minimum count before the batch (``0``
while the summary is not full): monitored keys add their batch count,
an unmonitored key enters at ``mu + c`` with error ``mu``, and the
``capacity`` heaviest entries by ``(-count, error, key)`` are kept.
Every unmonitored key has ``true <= mu``, so the newcomer's count and
error keep both per-key bounds; the ``k`` dropped entries each count at
least ``mu``, so the kept counts sum to at most ``N`` and any key with
``true > N / m`` stays monitored.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable

import numpy as np

from repro.errors import InvalidParameterError
from repro.stream.cms import _checked_batch

__all__ = ["SpaceSaving"]


def _first_rows(columns: tuple[np.ndarray, ...], m: int) -> np.ndarray:
    """Indexes of the ``m`` lexicographically smallest rows of ``uint64``
    ``columns`` (rows must be distinct).

    Walks the columns left to right: the ``m``-th smallest value among
    the still-tied rows is the cut, rows strictly below it are kept, and
    rows at it stay tied for the next column.
    """
    tied = np.arange(len(columns[0]))
    kept = []
    for column in columns:
        values = column[tied]
        cut = np.sort(values)[m - 1]
        below = tied[values < cut]
        kept.append(below)
        m -= len(below)
        tied = tied[values == cut]
        if len(tied) <= m:
            break
    kept.append(tied)
    return np.concatenate(kept)


class SpaceSaving:
    """Bounded summary of the heaviest keys with per-key error bounds.

    >>> ss = SpaceSaving(capacity=2)
    >>> for key in (1, 1, 1, 2, 3):
    ...     ss.add(key)
    >>> count, error = ss.estimate(1)
    >>> count
    3
    >>> len(ss) <= 2
    True
    """

    __slots__ = ("capacity", "total", "_counts", "_errors", "_heap", "_stale")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.total = 0
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
        # lazy (count, key) min-heap; None after a batch update until the
        # scalar path next needs it
        self._heap: list[tuple[int, Hashable]] | None = []
        self._stale = 0

    # ------------------------------------------------------------------
    def add(self, key: Hashable, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key``."""
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        self.total += count
        if self._heap is None:
            self._rebuild_heap()
        counts = self._counts
        current = counts.get(key)
        if current is not None:
            counts[key] = current + count
            heapq.heappush(self._heap, (current + count, key))
            self._stale += 1
        elif len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0
            heapq.heappush(self._heap, (count, key))
        else:
            victim_count, victim = self._pop_min()
            del counts[victim]
            del self._errors[victim]
            counts[key] = victim_count + count
            self._errors[key] = victim_count
            heapq.heappush(self._heap, (victim_count + count, key))
        if self._stale > 4 * self.capacity:
            self._rebuild_heap()

    def update(self, keys, counts) -> None:
        """Merge a batch: ``counts[j]`` occurrences of ``keys[j]``.

        Keys are strictly increasing integers below ``2**64`` (PLT ranks
        or packed rank pairs, as ``np.unique(..., return_counts=True)``
        returns them); the merge rule is in the module docstring.
        """
        keys, counts = _checked_batch(keys, counts)
        if not keys.size:
            return
        counts_of = self._counts
        mu = np.uint64(min(counts_of.values()) if len(counts_of) >= self.capacity else 0)
        self.total += int(counts.sum())
        n_old = len(counts_of)
        old_keys = np.fromiter(counts_of, dtype=np.uint64, count=n_old)
        old_counts = np.fromiter(counts_of.values(), dtype=np.uint64, count=n_old)
        old_errors = np.fromiter(
            map(self._errors.__getitem__, counts_of), dtype=np.uint64, count=n_old
        )
        # monitored keys add their batch count (searching all but the last
        # key keeps every position in range) ...
        pos = np.searchsorted(keys[:-1], old_keys)
        hit = keys[pos] == old_keys
        pos = pos[hit]
        old_counts[hit] += counts[pos]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[pos] = False
        keys, counts = keys[fresh], counts[fresh]
        if len(keys) > self.capacity:  # at most ``capacity`` newcomers can stay
            keep = _first_rows((~counts, keys), self.capacity)
            keys, counts = keys[keep], counts[keep]
        # ... and newcomers enter at mu + c with error mu
        counts += mu
        keys = np.concatenate((old_keys, keys))
        counts = np.concatenate((old_counts, counts))
        errors = np.concatenate((old_errors, np.full(len(keys) - n_old, mu)))
        if len(keys) > self.capacity:
            keep = _first_rows((~counts, errors, keys), self.capacity)
            keys, counts, errors = keys[keep], counts[keep], errors[keep]
        key_list = keys.tolist()
        self._counts = dict(zip(key_list, counts.tolist()))
        self._errors = dict(zip(key_list, errors.tolist()))
        self._heap = None

    def _pop_min(self) -> tuple[int, Hashable]:
        """Pop the true current minimum, skipping superseded heap entries."""
        if self._heap is None:
            self._rebuild_heap()
        counts = self._counts
        heap = self._heap
        while heap:
            count, key = heapq.heappop(heap)
            if counts.get(key) == count:
                return count, key
            self._stale -= 1
        # unreachable while invariants hold: every live entry is on the heap
        raise AssertionError("space-saving heap lost a live entry")

    def _rebuild_heap(self) -> None:
        self._heap = [(count, key) for key, count in self._counts.items()]
        heapq.heapify(self._heap)
        self._stale = 0

    # ------------------------------------------------------------------
    def estimate(self, key: Hashable) -> tuple[int, int] | None:
        """``(count, error)`` for a monitored key, else ``None``.

        ``count`` over-reports by at most ``error``; ``count - error`` is a
        guaranteed lower bound on the true frequency.  ``None`` means the
        key's true count is at most the summary's current minimum count.
        """
        count = self._counts.get(key)
        if count is None:
            return None
        return count, self._errors[key]

    def min_count(self) -> int:
        """The smallest monitored count — an upper bound on any absent key."""
        if not self._counts:
            return 0
        if len(self._counts) < self.capacity:
            return 0
        count, key = self._pop_min()
        heapq.heappush(self._heap, (count, key))
        return count

    def entries(self) -> list[tuple[Hashable, int, int]]:
        """``(key, count, error)`` rows, heaviest first, deterministic order.

        Ties break on smaller error (tighter bound first), then on the key
        itself — keys within one summary are homogeneous and comparable.
        """
        rows = [
            (key, count, self._errors[key]) for key, count in self._counts.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[2], row[0]))
        return rows

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def memory_bytes(self) -> int:
        """Rough resident estimate: two dict slots + heap entry per key."""
        return len(self._counts) * 120 + len(self._heap or ()) * 40

    def __repr__(self) -> str:
        return (
            f"SpaceSaving(capacity={self.capacity}, monitored={len(self._counts)}, "
            f"total={self.total})"
        )
