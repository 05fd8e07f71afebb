"""Closed and maximal frequent-itemset mining over the PLT.

The paper's related work (COFI-tree, CT-ITL, the FIMI workshop entries)
made condensed representations the standard follow-up to any new mining
structure, so a credible PLT release needs them:

* a **closed** itemset has no proper superset with the same support — the
  lossless condensed representation (every frequent itemset's support is
  the max over its closed supersets);
* a **maximal** itemset has no frequent proper superset — the smallest
  (lossy) representation of the frequent border.

Both miners run the paper's conditional recursion (Algorithm 3) and prune
with the standard subsumption check against already-found patterns,
indexed by support so each check touches only same-support candidates
(closed) or the maximal set (maximal).  Results are identical to
post-filtering the full output (tests assert this) but can be found
without materialising the full frequent set.
"""

from __future__ import annotations

from repro.core.conditional import iter_conditional
from repro.core.plt import PLT
from repro.errors import InvalidSupportError

__all__ = ["mine_closed", "mine_maximal"]


class _ClosedIndex:
    """Found closed patterns indexed by support for subsumption checks."""

    __slots__ = ("_by_support",)

    def __init__(self) -> None:
        self._by_support: dict[int, list[frozenset]] = {}

    def subsumed(self, itemset: frozenset, support: int) -> bool:
        """Is there a known superset with the same support?"""
        for other in self._by_support.get(support, ()):
            if itemset < other:
                return True
        return False

    def add(self, itemset: frozenset, support: int) -> None:
        self._by_support.setdefault(support, []).append(itemset)

    def items(self):
        for support, sets in self._by_support.items():
            for itemset in sets:
                yield itemset, support


class _MaximalIndex:
    """Found maximal patterns, checked longest-first."""

    __slots__ = ("_sets",)

    def __init__(self) -> None:
        self._sets: list[frozenset] = []

    def subsumed(self, itemset: frozenset) -> bool:
        return any(itemset <= other for other in self._sets)

    def add(self, itemset: frozenset) -> None:
        # drop any previously-added set this one subsumes (can happen when
        # a longer pattern is found after a shorter sibling)
        self._sets = [s for s in self._sets if not s < itemset]
        self._sets.append(itemset)

    def items(self):
        return list(self._sets)


def _visit_frequent(plt: PLT, min_support: int, visit) -> None:
    """Run ``visit`` over every frequent pattern (see ``iter_conditional``)."""
    iter_conditional(
        plt.rank_path_index(),
        range(plt.max_rank(), 0, -1),
        (),
        lambda: min_support,
        visit,
    )


def mine_closed(
    plt: PLT, min_support: int | None = None
) -> list[tuple[tuple[int, ...], int]]:
    """All closed frequent itemsets as ``(sorted_ranks, support)``.

    Uses the closure-based pruning of CLOSET: if every vector of a
    pattern's conditional database contains some item ``i``, then the
    pattern is not closed (pattern ∪ {i} has the same support) — those
    items belong to the pattern's closure.  We detect full-support items
    cheaply from the conditional rank supports and only emit patterns
    whose closure adds nothing, then verify against the subsumption index
    for cross-branch duplicates.
    """
    if min_support is None:
        min_support = plt.min_support
    if min_support < 1:
        raise InvalidSupportError(f"absolute min_support must be >= 1, got {min_support}")
    index = _ClosedIndex()

    def visit(itemset, support, sub_buckets) -> bool:
        # Items occurring in *every* supporting transaction extend the
        # closure, making the pattern non-closed (CLOSET's check); the
        # closed superset is emitted when the recursion reaches it.
        supports: dict[int, int] = {}
        for bucket in sub_buckets.values():
            for path, freq in bucket.items():
                for r in path:
                    supports[r] = supports.get(r, 0) + freq
        has_closure_item = any(s == support for s in supports.values())
        fs = frozenset(itemset)
        # Supersets visited earlier (non-descendants) are caught by the
        # index; descendant supersets are exactly the closure-item case.
        if not has_closure_item and not index.subsumed(fs, support):
            index.add(fs, support)
        return True

    _visit_frequent(plt, min_support, visit)
    return sorted(
        (tuple(sorted(itemset)), support) for itemset, support in index.items()
    )


def mine_maximal(
    plt: PLT, min_support: int | None = None
) -> list[tuple[tuple[int, ...], int]]:
    """All maximal frequent itemsets as ``(sorted_ranks, support)``.

    A pattern is maximal iff it has no frequent extension in its own
    conditional database *and* no earlier-found maximal superset (items
    of higher rank were handled in earlier branches).
    """
    if min_support is None:
        min_support = plt.min_support
    if min_support < 1:
        raise InvalidSupportError(f"absolute min_support must be >= 1, got {min_support}")
    index = _MaximalIndex()
    supports: dict[frozenset, int] = {}

    def visit(itemset, support, sub_buckets) -> bool:
        # A pattern with a non-empty conditional PLT has a frequent
        # extension (descendant), so only extension-free leaves are
        # candidates; supersets in already-finished branches live in the
        # index.
        if not sub_buckets:
            fs = frozenset(itemset)
            if not index.subsumed(fs):
                index.add(fs)
                supports[fs] = support
        return True

    _visit_frequent(plt, min_support, visit)
    # prune sets subsumed by later-found longer patterns
    result = []
    final = index.items()
    for fs in final:
        if not any(fs < other for other in final):
            result.append((tuple(sorted(fs)), supports[fs]))
    return sorted(result)
