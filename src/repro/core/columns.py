"""The rank-column container every PLT miner writes its itemsets into.

A miner's answer is mostly arrays before it is anything else: the
conditional kernel's pair matrix holds every 1- and 2-itemset, its
lattice leaves and the whole top-down kernel hold their itemsets as rank
matrices.  :class:`RankColumns` keeps them that way — one ``(int64 rank
matrix (n, L), int64 supports)`` block per kernel output.  The closed,
maximal, top-k and constrained miners are array filters over those
blocks, grouped by length (:meth:`RankColumns.by_length`) and linked
level to level by :func:`drop_one_index`.  The facade sorts them into
label columns with one ``concatenate`` and one sort per length
(:func:`~repro.core.mining._decode`), so no Python object is made per
itemset between the kernel and the renderer.  Callers that iterate a
miner's result still get ``(ascending rank tuple, support)`` pairs, made
on demand.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["RankColumns", "drop_one_index"]


def _tuples(matrix: np.ndarray):
    """The rows of an integer matrix as tuples of Python ints."""
    return zip(*matrix.T.tolist())


def drop_one_index(shorter: np.ndarray, longer: np.ndarray) -> np.ndarray:
    """Where each drop-one subset of ``longer``'s rows sits in ``shorter``.

    ``shorter`` is an ``(m, L)`` and ``longer`` an ``(n, L + 1)`` matrix of
    distinct ascending rank rows, two consecutive lengths of
    :meth:`RankColumns.by_length`.  Returns an int64 ``(n, L + 1)``
    matrix whose column ``d`` holds, for each row of ``longer``, the row
    of ``shorter`` equal to it without its column ``d``.  Every such
    subset must be in ``shorter``, as downward closure guarantees for the
    frequent itemsets of two consecutive lengths.  Rows are matched
    whole, as the bytes of their int64 entries (one sort of ``shorter``,
    one ``searchsorted`` per column), so no key is packed and the lookup
    is exact for any rank width and length.
    """
    n, width = longer.shape
    row = np.dtype((np.void, 8 * (width - 1)))
    keys = np.ascontiguousarray(shorter, np.int64).view(row).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    longer = np.asarray(longer, np.int64)
    index = np.empty((n, width), np.int64)
    for d in range(width):
        subsets = np.ascontiguousarray(np.delete(longer, d, axis=1)).view(row).ravel()
        index[:, d] = order[np.searchsorted(keys, subsets)]
    return index


class RankColumns:
    """Itemsets in rank space, as array blocks.

    ``blocks`` is a list of ``(ranks, supports)``: ``ranks`` an int64
    ``(n, L)`` matrix of ascending rank rows, ``supports`` the matching
    int64 column.  Every itemset appears once, in one block.

    Iterating, indexing and comparing see the itemsets as pairs
    (:meth:`pairs`), grouped by maximal rank, highest first — the order
    Algorithm 3's top level completes them in — so the pairs a governed
    run salvages are a prefix of the full run's pairs.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable | None = None) -> None:
        self.blocks: list = []
        for ranks, supports in blocks or ():
            self.add(ranks, supports)

    def add(self, ranks: np.ndarray, supports: np.ndarray) -> None:
        """Append one block (empty blocks are dropped)."""
        if len(supports):
            self.blocks.append((ranks, supports))

    def __len__(self) -> int:
        return sum(len(supports) for _, supports in self.blocks)

    def tops(self) -> np.ndarray:
        """Every itemset's maximal rank, the blocks in the order they
        were added."""
        tops = [ranks[:, -1] for ranks, _ in self.blocks]
        return np.concatenate(tops) if tops else np.zeros(0, np.int64)

    def pairs(self) -> list[tuple[tuple[int, ...], int]]:
        """Every itemset as a ``(rank tuple, support)`` pair: maximal rank
        descending, then blocks in the order they were added."""
        itemsets: list = []
        supports: list = []
        for ranks, sups in self.blocks:
            itemsets += _tuples(ranks)
            supports += sups.tolist()
        order = np.argsort(-self.tops(), kind="stable")
        return [(itemsets[i], supports[i]) for i in order.tolist()]

    def cut(self, low: int = 0, n: int | None = None) -> "RankColumns":
        """The first ``n`` itemsets (all when ``None``) of :meth:`pairs`
        whose maximal rank is ``>= low``, as blocks cut from these: what
        a governed run keeps of a rank in flight and of an itemset cap.
        The cut's pairs are ``pairs()`` restricted to it, in the same
        order."""
        top = self.tops()
        order = np.argsort(-top, kind="stable")
        keep = np.zeros(len(top), bool)
        keep[order[top[order] >= low][:n]] = True
        sizes = [len(sups) for _, sups in self.blocks]
        masks = np.split(keep, np.cumsum(sizes, dtype=np.int64)[:-1])
        return RankColumns(
            (r, s) if m.all() else (r[m], s[m]) for (r, s), m in zip(self.blocks, masks)
        )

    def by_length(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """One ``(ranks, supports)`` block per itemset length, lengths
        ascending: the blocks of each length concatenated."""
        groups: dict[int, list] = {}
        for block in self.blocks:
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
