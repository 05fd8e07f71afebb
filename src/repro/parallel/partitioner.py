"""Task partitioning for parallel PLT mining.

The paper (Section 6) highlights that the PLT "provides partition criteria
that makes it easy to partition the mining process into several separate
tasks; each can be accomplished separately."  Concretely:

* **Conditional mining** decomposes by *top-level item*: after a single
  sequential migration sweep (cheap — one pass over all positions), each
  item's complete conditional database is an independent mining task.
  :func:`conditional_tasks` produces them.
* **Top-down mining** decomposes by *seed vector*: every stored vector's
  subset expansion is independent and partial frequency tables merge by
  addition.  The executors slice the stored paths of a shared FlatPLT
  (:func:`~repro.parallel.shm.plan_path_slices`).

:func:`lpt_partition` balances explicit task lists (LPT:
longest-processing-time-first greedy, within 4/3 of optimal for
makespan, plenty for the coarse tasks here).
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import Sequence, TypeVar

from repro.core.conditional import _consume_path_bucket  # shared sweep logic
from repro.core.plt import PLT
from repro.core.position import RankPath
from repro.errors import InvalidParameterError

__all__ = ["ConditionalTask", "conditional_tasks", "lpt_partition"]

T = TypeVar("T")


class ConditionalTask:
    """One independent top-level mining task: item rank + its conditional DB.

    ``prefixes`` is ``CD_rank`` as aggregated rank paths, the input of
    :func:`~repro.core.conditional.mine_conditional_paths`.
    """

    __slots__ = ("rank", "support", "prefixes")

    def __init__(self, rank: int, support: int, prefixes: dict[RankPath, int]):
        self.rank = rank
        self.support = support
        self.prefixes = prefixes

    def cost_estimate(self) -> int:
        """Positions in the conditional DB — a proxy for recursion work."""
        return sum(len(v) for v in self.prefixes) + 1

    def __repr__(self) -> str:
        return (
            f"ConditionalTask(rank={self.rank}, support={self.support}, "
            f"n_prefixes={len(self.prefixes)})"
        )


def conditional_tasks(plt: PLT, min_support: int) -> list[ConditionalTask]:
    """The sequential migration sweep, yielding every item's task.

    Exactly Algorithm 3's top-level loop with the recursion deferred:
    buckets are consumed in descending rank order, prefixes migrated, and
    each rank's ``(support, CD_j)`` captured.  Infrequent ranks still
    migrate (their transactions support lower-ranked items) but produce no
    task.
    """
    buckets = plt.rank_path_index()
    tasks: list[ConditionalTask] = []
    for j in range(max(buckets, default=0), 0, -1):
        bucket = buckets.pop(j, None)
        if bucket is None:
            continue
        cd, support = _consume_path_bucket(bucket, buckets)
        if support >= min_support:
            tasks.append(ConditionalTask(j, support, cd))
    return tasks


def lpt_partition(items: Sequence[T], sizes: Sequence[int], n_bins: int) -> list[list[T]]:
    """Greedy LPT: assign each item (descending size) to the lightest bin."""
    if n_bins < 1:
        raise InvalidParameterError("n_bins must be >= 1")
    bins: list[list[T]] = [[] for _ in range(n_bins)]
    if not items:
        return bins
    heap: list[tuple[int, int]] = [(0, b) for b in range(n_bins)]
    order = sorted(range(len(items)), key=lambda i: -sizes[i])
    for idx in order:
        load, b = heappop(heap)
        bins[b].append(items[idx])
        heappush(heap, (load + sizes[idx], b))
    return bins
