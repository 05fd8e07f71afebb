"""Top-k frequent-itemset mining over the PLT.

Choosing ``min_support`` is the classic usability problem: too high finds
nothing, too low explodes.  Top-k mining (Han et al.'s TFP line of work)
inverts the interface: *give me the k most frequent itemsets of at least
``min_len`` items*, and the threshold is discovered.

The implementation runs the paper's conditional recursion with a
**dynamically rising threshold**: a size-``k`` min-heap of the best
supports seen so far; once the heap is full, its minimum becomes the
effective ``min_support``, pruning exactly like a user-supplied value
(support is anti-monotone, so a branch whose extension support is below
the floor can never contribute).  The heap is seeded with the exact item
supports and top-level branches are explored in descending support order,
so the floor is tight almost immediately.  Output is exact (tests compare
against mining at the discovered threshold).

Practical limit: while fewer than ``k`` itemsets have been observed the
floor is 1, so very large ``k`` (beyond the count of clearly-frequent
itemsets) degenerates towards support-1 mining.  ``k`` up to a few
thousand is the intended regime — beyond that, mine at an explicit low
threshold instead.
"""

from __future__ import annotations

import heapq

from repro.core.conditional import _build_path_buckets, iter_conditional
from repro.core.plt import PLT
from repro.data.transaction_db import check_max_len
from repro.errors import InvalidSupportError

__all__ = ["mine_top_k"]


def mine_top_k(
    plt: PLT,
    k: int,
    *,
    min_len: int = 1,
    max_len: int | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """The ``k`` highest-support itemsets with ``min_len <= size``.

    Ties at the cut-off support are all included, so the result may
    exceed ``k`` (the standard convention: the result is exactly every
    itemset with support >= the k-th best support).  Returns
    ``(sorted_ranks, support)`` pairs, highest support first.
    """
    if k < 1:
        raise InvalidSupportError(f"k must be >= 1, got {k}")
    if min_len < 1:
        raise InvalidSupportError(f"min_len must be >= 1, got {min_len}")
    check_max_len(max_len)
    if max_len is not None and max_len < min_len:
        raise InvalidSupportError("max_len must be >= min_len")

    heap: list[int] = []  # min-heap of the best k supports seen

    def floor() -> int:
        return heap[0] if len(heap) >= k else 1

    def observe(support: int) -> None:
        if len(heap) < k:
            heapq.heappush(heap, support)
        elif support > heap[0]:
            heapq.heapreplace(heap, support)

    # The top level is decoupled from the rank-descending migration order
    # by running the sweep first (conditional_tasks): every item's exact
    # support and complete conditional database, independent tasks.  Two
    # TFP-style accelerations follow:
    #
    # * with min_len == 1, item supports seed the heap so the floor starts
    #   high instead of at 1 (the seeds account for every size-1 itemset
    #   exactly once — the recursion must not observe them again);
    # * tasks are processed in *descending support* order, so the heap
    #   fills from the heaviest branches first and low-support subtrees
    #   are pruned wholesale by the risen floor.
    from repro.parallel.partitioner import conditional_tasks

    tasks = conditional_tasks(plt, 1)
    seeded = min_len == 1
    if seeded:
        for task in tasks:
            observe(task.support)

    collected: list[tuple[tuple[int, ...], int]] = []

    def visit(itemset, support, sub) -> bool:
        if len(itemset) >= min_len:
            observe(support)
            collected.append((itemset, support))
        return max_len is None or len(itemset) < max_len

    for task in sorted(tasks, key=lambda t: -t.support):
        if task.support < floor():
            continue  # no itemset below this task can reach the cut
        if min_len <= 1:
            collected.append(((task.rank,), task.support))
        if task.prefixes and (max_len is None or max_len > 1):
            sub, order = _build_path_buckets(task.prefixes, floor())
            iter_conditional(sub, order, (task.rank,), floor, visit)
    cutoff = floor() if len(heap) >= k else 1
    result = [(ranks, s) for ranks, s in collected if s >= cutoff]
    result.sort(key=lambda pair: (-pair[1], len(pair[0]), pair[0]))
    return result
