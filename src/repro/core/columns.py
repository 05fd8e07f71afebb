"""The rank-column container every PLT miner writes its itemsets into.

A miner's answer is mostly arrays before it is anything else: the
conditional kernel's pair matrix holds every 1- and 2-itemset, its
lattice leaves and the whole top-down kernel hold their itemsets as rank
matrices.  :class:`RankColumns` keeps them that way — one ``(int64 rank
matrix (n, L), int64 supports)`` block per kernel output — next to a
plain list of ``(rank tuple, support)`` rows for what a miner finds one
itemset at a time (the closed, maximal and top-k visitors, a served
item's single).  The facade sorts it into label columns with one
``concatenate`` and one sort per length
(:func:`~repro.core.mining._decode`), so no Python object is made per
itemset between the kernel and the renderer.  Callers that iterate a
miner's result still get ``(ascending rank tuple, support)`` pairs, made
on demand.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["RankColumns"]


def _tuples(matrix: np.ndarray):
    """The rows of an integer matrix as tuples of Python ints."""
    return zip(*matrix.T.tolist())


def _row_blocks(rows):
    """The ``(rank tuple, support)`` rows as one block per length."""
    by_length: dict[int, list] = {}
    for row in rows:
        by_length.setdefault(len(row[0]), []).append(row)
    for length, group in by_length.items():
        itemsets, supports = zip(*group)
        yield (
            np.array(itemsets, np.int64).reshape(-1, length),
            np.array(supports, np.int64),
        )


class RankColumns:
    """Itemsets in rank space: array blocks plus single rows.

    ``blocks`` is a list of ``(ranks, supports)``: ``ranks`` an int64
    ``(n, L)`` matrix of ascending rank rows, ``supports`` the matching
    int64 column.  ``rows`` is a list of ``(ascending rank tuple,
    support)`` pairs.  Every itemset appears once, in a block or a row.

    Iterating, indexing and comparing see the itemsets as pairs
    (:meth:`pairs`), grouped by maximal rank, highest first — the order
    Algorithm 3's top level completes them in — so the pairs a governed
    run salvages are a prefix of the full run's pairs.
    """

    __slots__ = ("blocks", "rows")

    def __init__(self, blocks: list | None = None, rows: list | None = None) -> None:
        self.blocks: list = []
        self.rows: list = [] if rows is None else rows
        for ranks, supports in blocks or ():
            self.add(ranks, supports)

    def add(self, ranks: np.ndarray, supports: np.ndarray) -> None:
        """Append one block (empty blocks are dropped)."""
        if len(supports):
            self.blocks.append((ranks, supports))

    def __len__(self) -> int:
        return sum(len(supports) for _, supports in self.blocks) + len(self.rows)

    def pairs(self, low: int = 0) -> list[tuple[tuple[int, ...], int]]:
        """Every itemset whose maximal rank is ``>= low`` as a ``(rank
        tuple, support)`` pair: maximal rank descending, then blocks in
        the order they were added, then rows in theirs."""
        itemsets: list = []
        supports: list = []
        tops = []
        for ranks, sups in self.blocks:
            itemsets += _tuples(ranks)
            supports += sups.tolist()
            tops.append(ranks[:, -1])
        for itemset, support in self.rows:
            itemsets.append(itemset)
            supports.append(support)
        if self.rows:
            tops.append(np.fromiter((r[-1] for r, _ in self.rows), np.int64, len(self.rows)))
        if not itemsets:
            return []
        top = np.concatenate(tops)
        order = np.argsort(-top, kind="stable")
        if low > 0:
            order = order[top[order] >= low]
        return [(itemsets[i], supports[i]) for i in order.tolist()]

    def by_length(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """One ``(ranks, supports)`` block per itemset length, lengths
        ascending: the blocks and the rows of each length concatenated."""
        groups: dict[int, list] = {}
        for block in chain(self.blocks, _row_blocks(self.rows)):
            groups.setdefault(block[0].shape[1], []).append(block)
        return [
            (
                np.concatenate([ranks for ranks, _ in parts]),
                np.concatenate([supports for _, supports in parts]),
            )
            for _, parts in sorted(groups.items())
        ]

    def __iter__(self):
        return iter(self.pairs())

    def __getitem__(self, idx):
        return self.pairs()[idx]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RankColumns, list)):
            return self.pairs() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RankColumns({len(self)} itemsets, {len(self.blocks)} blocks)"
