"""The Positional Lexicographic Tree structure and its construction.

Algorithm 1 of the paper, plus the structure's query surface.  The PLT
stores one aggregated index of **rank paths** — each vector's
cumulative-sum form, which by Lemma 4.1.1 is just the encoded
transaction's sorted rank tuple — bucketed by the rank of the maximal
item (the ``V.sum`` the paper stores with every vector).  That index is a
:class:`~repro.core.flat.FlatPLT` (``plt.flat``): five typed columns,
bucket-major with keys descending.  The dict views are derived from it on
first use and cached::

    rank paths: {sum s -> {rank path -> frequency}}
    partitions: {length k -> {position vector -> frequency}}
    sum_index:  {sum s -> {position vector -> frequency}}

``s`` is exactly the key Algorithm 3 uses to find an item's conditional
database.

Construction is the paper's two scans over the transactions as integer
columns (item ids row after row, plus row lengths).  Scan 1 is a
``bincount`` of the ids, and the :class:`~repro.core.rank.RankTable` over
the frequent items comes from one sort of them.  Scan 2 gathers every
cell's rank through an ``id -> rank`` array (0 for an infrequent item),
drops the zeros, sorts within rows where the order needs it, and
aggregates equal rows into the columns.  A database read from an integer
``.dat`` file already is such columns; any other input is mapped to dense
ids in one dict pass.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice
from typing import Hashable

import numpy as np

from repro.core import position
from repro.core.flat import FlatPLT, exact_bincount
from repro.core.position import PositionVector, RankPath
from repro.core.rank import ORDER_POLICIES, RankTable, sort_key
from repro.data.transaction_db import TransactionDatabase, resolve_min_support
from repro.errors import (
    InvalidSupportError,
    InvalidVectorError,
    RankTableError,
    UnknownItemError,
)

__all__ = ["PLT", "PLTStats", "build_plt"]

Item = Hashable


@dataclass(frozen=True)
class PLTStats:
    """Size statistics reported by benchmarks B4/B9."""

    n_transactions: int
    n_encoded_transactions: int
    n_frequent_items: int
    n_vectors: int
    n_positions: int
    max_vector_len: int

    @property
    def compression_ratio(self) -> float:
        """Encoded transactions per distinct stored vector (>= 1)."""
        if self.n_vectors == 0:
            return 1.0
        return self.n_encoded_transactions / self.n_vectors


def _check_paths(ranks, lengths, freqs, paths: list) -> None:
    """Reject anything but non-empty rank paths of distinct ranks >= 1.

    Every producer builds its paths ascending (sorted ranks, or the prefix
    sums of positive deltas), so distinct ranks make them strictly
    increasing.  Each check is one vectorised pass over the columns.
    """
    if (lengths == 0).any():
        raise InvalidVectorError("cannot store an empty rank path")
    ends = np.cumsum(lengths)
    rises = np.ones(len(ranks), bool)
    rises[1:] = ranks[1:] > ranks[:-1]
    rises[ends[:-1]] = True  # a path's first cell has no predecessor
    bad = (ranks < 1) | ~rises
    if bad.any():
        path = int(np.searchsorted(ends, np.argmax(bad), side="right"))
        raise InvalidVectorError(
            f"rank paths must be strictly increasing positive ranks, got {paths[path]!r}"
        )
    if (freqs <= 0).any():
        path = int(np.argmax(freqs <= 0))
        raise InvalidVectorError(
            f"vector frequency must be positive: {paths[path]!r} -> {int(freqs[path])}"
        )


def _id_rows(transactions):
    """Transactions as dense item ids: ``(ids, lengths, labels)``.

    ``ids`` holds every transaction's distinct item ids back to back and
    ``lengths`` the count per transaction; ``labels[i]`` is id ``i``'s
    label.  Columns read from an integer ``.dat`` file pass through: small
    ids are their own dense ids, large sparse ones are compressed by one
    sort, and ``labels`` is then an ascending int64 array.  Anything else
    takes one dict pass, and ``labels`` is a list in first-seen order.
    """
    columns = (
        transactions.columns() if isinstance(transactions, TransactionDatabase) else None
    )
    if columns is not None:
        items, offsets = columns
        lengths = np.diff(offsets)
        if not len(items) or items.max() < 4 * len(items) + 1024:
            return items, lengths, np.arange(items.max() + 1 if len(items) else 0)
        order = np.argsort(items, kind="stable")
        ordered = items[order]
        first = np.ones(len(items), bool)
        first[1:] = ordered[1:] != ordered[:-1]
        ids = np.empty_like(items)
        ids[order] = np.cumsum(first) - 1
        return ids, lengths, ordered[first]
    if not isinstance(transactions, TransactionDatabase):
        transactions = [frozenset(t) for t in transactions]
    dense: defaultdict = defaultdict(count().__next__)
    lengths = np.fromiter(map(len, transactions), np.int64, len(transactions))
    ids = np.fromiter(
        map(dense.__getitem__, chain.from_iterable(transactions)),
        np.int64,
        int(lengths.sum()),
    )
    return ids, lengths, list(dense)


def _rank_order(frequent, supports, labels, order: str):
    """The frequent ids in rank order under ``order`` (one sort of them).

    Ties break exactly as :meth:`RankTable.from_supports` breaks them: by
    ``sort_key``, then by first appearance.
    """
    if order not in ORDER_POLICIES:
        raise RankTableError(
            f"unknown order policy {order!r}; expected one of {ORDER_POLICIES}"
        )
    if isinstance(labels, np.ndarray):  # integer ids ascend with their labels
        lexical = np.arange(len(frequent))
    else:
        by_label = sorted(range(len(frequent)), key=lambda i: sort_key(labels[frequent[i]]))
        lexical = np.empty(len(frequent), np.int64)
        lexical[by_label] = np.arange(len(frequent))
    if order == "lexicographic":
        return frequent[np.argsort(lexical)]
    sup = supports[frequent]
    return frequent[np.lexsort((lexical, sup if order == "support_asc" else -sup))]


class PLT:
    """The positional lexicographic tree (aggregated rank-path form).

    Instances are built with :meth:`from_transactions` (Algorithm 1) or, for
    internal/conditional use, from pre-encoded vectors with
    :meth:`from_vectors`.  The structure is immutable after construction;
    the conditional miner works on copies of its index.

    Attributes
    ----------
    rank_table:
        The ``Rank`` function over the frequent items.
    min_support:
        The absolute support threshold the structure was built with.
    n_transactions:
        Total number of input transactions (including those that encoded
        to nothing because all their items were infrequent).
    flat:
        The stored index itself, as a :class:`~repro.core.flat.FlatPLT`.
        Every kernel reads it; do not mutate.
    """

    __slots__ = (
        "rank_table",
        "min_support",
        "n_transactions",
        "flat",
        "_rank_paths",
        "_partitions",
        "_sum_index",
    )

    def __init__(
        self,
        rank_table: RankTable,
        paths: Mapping[RankPath, int],
        *,
        min_support: int,
        n_transactions: int,
    ) -> None:
        """Index aggregated ``{rank path -> frequency}`` (checked, see
        :func:`_check_paths`); prefer the ``from_*`` constructors."""
        keys = list(paths)
        lengths = np.fromiter(map(len, keys), np.int64, len(keys))
        ranks = np.fromiter(chain.from_iterable(keys), np.int64, int(lengths.sum()))
        freqs = np.fromiter(paths.values(), np.int64, len(keys))
        _check_paths(ranks, lengths, freqs, keys)
        self._store(
            rank_table,
            FlatPLT.from_rank_rows(
                ranks, lengths, freqs, min_support=min_support, n_transactions=n_transactions
            ),
        )

    def _store(self, rank_table: RankTable, flat: FlatPLT) -> None:
        self.rank_table = rank_table
        self.min_support = flat.min_support
        self.n_transactions = flat.n_transactions
        self.flat = flat
        self._rank_paths: dict[int, dict[RankPath, int]] | None = None
        self._partitions: dict[int, dict[PositionVector, int]] | None = None
        self._sum_index: dict[int, dict[PositionVector, int]] | None = None

    # ------------------------------------------------------------------
    # construction (Algorithm 1)
    # ------------------------------------------------------------------
    @classmethod
    def from_transactions(
        cls,
        transactions: Iterable[Iterable[Item]],
        min_support: float | int,
        *,
        order: str = "lexicographic",
    ) -> "PLT":
        """Algorithm 1: two scans over the database.

        ``transactions`` may be any iterable, one-shot iterators included:
        anything but a :class:`~repro.data.transaction_db.TransactionDatabase`
        is materialised once as item sets, since duplicate items inside a
        transaction count once.  A database read from an integer ``.dat``
        file is scanned straight off its columns.
        """
        return cls._scan(_id_rows(transactions), None, min_support, order)

    @classmethod
    def from_weighted_transactions(
        cls,
        weighted: Iterable[tuple[Iterable[Item], int]],
        min_support: float | int,
        *,
        order: str = "lexicographic",
    ) -> "PLT":
        """Algorithm 1 over ``(transaction, weight)`` pairs.

        Aggregated inputs (e.g. a sales table listing each basket with a
        count) build directly — the vector table's frequencies *are* the
        weights, so a weight of a million costs the same as a weight of
        one.  Supports, ``n_transactions`` and relative thresholds are
        all in weight units and exact; an item whose weights total
        ``2**63`` or more raises :class:`InvalidSupportError`.
        Mining the result with any PLT algorithm gives exactly the result
        of mining the expanded multiset.
        """
        pairs = [(frozenset(t), int(w)) for t, w in weighted]
        weights = np.fromiter((w for _, w in pairs), np.int64, len(pairs))
        if (weights < 1).any():
            bad = int(weights[np.argmax(weights < 1)])
            raise InvalidSupportError(f"transaction weights must be >= 1, got {bad}")
        return cls._scan(_id_rows([t for t, _ in pairs]), weights, min_support, order)

    @classmethod
    def _scan(cls, rows, weights, min_support: float | int, order: str) -> "PLT":
        """Scans 1 and 2 over ``rows`` (see :func:`_id_rows`), each
        transaction counted ``weights[t]`` times (``None``: once)."""
        ids, lengths, labels = rows
        if weights is None:
            n_transactions = len(lengths)
            supports = np.bincount(ids)
        else:
            # exact Python sum: an int64 sum wraps at 2**63
            n_transactions = sum(weights.tolist())
            supports = exact_bincount(ids, np.repeat(weights, lengths), 0, n_transactions)
        abs_support = resolve_min_support(min_support, n_transactions)
        # Scan 1: supports -> Rank over the frequent ids, in one sort.
        frequent = np.flatnonzero(supports >= abs_support)
        by_rank = _rank_order(frequent, supports, labels, order)
        if isinstance(labels, np.ndarray):
            items = labels[by_rank].tolist()
        else:
            items = [labels[i] for i in by_rank.tolist()]
        rank_table = RankTable(items, order=order)
        # Scan 2: every cell's rank (0 = infrequent, dropped); a
        # transaction's frequent ranks, sorted, are its rank path.
        rank_of = np.zeros(len(supports), np.int64)
        rank_of[by_rank] = np.arange(1, len(by_rank) + 1)
        ranks = rank_of[ids]
        kept = ranks > 0
        row = np.repeat(np.arange(len(lengths)), lengths)[kept]
        ranks = ranks[kept]
        if ((row[1:] == row[:-1]) & (ranks[1:] < ranks[:-1])).any():
            # rows out of rank order (unordered sets, or a support order)
            key = row * (len(by_rank) + 1) + ranks
            key.sort()
            ranks = key % (len(by_rank) + 1)
        flat = FlatPLT.from_rank_rows(
            ranks,
            np.bincount(row, minlength=len(lengths)),
            weights,
            min_support=abs_support,
            n_transactions=n_transactions,
        )
        return cls.from_flat(rank_table, flat)

    @classmethod
    def from_flat(cls, rank_table: RankTable, flat: FlatPLT) -> "PLT":
        """A PLT viewing already-built columns (no copy, no check)."""
        plt = cls.__new__(cls)
        plt._store(rank_table, flat)
        return plt

    @classmethod
    def from_vectors(
        cls,
        rank_table: RankTable,
        vectors: Mapping[PositionVector, int],
        *,
        min_support: int,
        n_transactions: int | None = None,
    ) -> "PLT":
        """Wrap pre-encoded vectors (conditional PLTs, codecs, tests)."""
        for vec in vectors:
            position.validate(vec)
        if n_transactions is None:
            n_transactions = sum(vectors.values())
        # accumulate() is injective on valid delta vectors: plain mapping
        paths = {tuple(accumulate(vec)): freq for vec, freq in vectors.items()}
        return cls(
            rank_table, paths, min_support=min_support, n_transactions=n_transactions
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _paths(self) -> dict[int, dict[RankPath, int]]:
        """``{max rank -> {rank path -> frequency}}``, derived once from
        the columns (bucket order: keys descending)."""
        if self._rank_paths is None:
            flat = self.flat
            boff = flat.bucket_offsets.tolist()
            paths = iter(flat.iter_paths())
            self._rank_paths = {
                key: dict(islice(paths, boff[b + 1] - boff[b]))
                for b, key in enumerate(flat.bucket_keys.tolist())
            }
        return self._rank_paths

    def _delta_views(self) -> None:
        """Derive and cache the two delta-vector views in one pass."""
        partitions: dict[int, dict[PositionVector, int]] = {}
        sum_index: dict[int, dict[PositionVector, int]] = {}
        for total, bucket in self._paths().items():
            vectors = sum_index[total] = {}
            for path, freq in bucket.items():
                vec = position.path_to_vector(path)
                vectors[vec] = freq
                part = partitions.get(len(vec))
                if part is None:
                    partitions[len(vec)] = {vec: freq}
                else:
                    part[vec] = freq
        self._partitions = partitions
        self._sum_index = sum_index

    @property
    def partitions(self) -> dict[int, dict[PositionVector, int]]:
        """Length-partitioned vector table (Figure 3a). Do not mutate."""
        if self._partitions is None:
            self._delta_views()
        return self._partitions

    def partition(self, length: int) -> dict[PositionVector, int]:
        """The ``D_length`` partition (empty dict if absent)."""
        return self.partitions.get(length, {})

    def sum_index(self) -> dict[int, dict[PositionVector, int]]:
        """Vectors bucketed by their sum (= rank of their maximal item).

        Returns a *fresh, deep-copied* mapping because Algorithm 3 consumes
        and mutates it (buckets are popped and prefixes migrated).
        """
        if self._sum_index is None:
            self._delta_views()
        return {s: dict(bucket) for s, bucket in self._sum_index.items()}

    def rank_path_index(self) -> dict[int, dict[RankPath, int]]:
        """The stored index as dicts — the path-miners' view.

        Maps ``max rank -> {rank path -> frequency}`` where each rank path
        is the cumulative-sum tuple of a stored vector (Lemma 4.1.1).
        The closed, constraint and top-k miners work on this
        representation because the quantities Algorithm 3 recomputes per
        vector in delta form are all O(1) here: bucket key = ``path[-1]``,
        prefix's bucket key = ``path[-2]``, and local projection is a
        plain membership filter.

        Returns a fresh, deep-copied mapping (the miner consumes it).
        """
        return {s: dict(bucket) for s, bucket in self._paths().items()}

    def iter_vectors(self) -> Iterator[tuple[PositionVector, int]]:
        """All (vector, frequency) pairs, longest partitions first."""
        partitions = self.partitions
        for length in sorted(partitions, reverse=True):
            yield from partitions[length].items()

    def iter_rank_paths(self) -> Iterator[tuple[RankPath, int]]:
        """All (rank path, frequency) pairs, in storage order (bucket keys
        descending), streamed off the columns."""
        return self.flat.iter_paths()

    def vectors(self) -> dict[PositionVector, int]:
        """Flat copy of the aggregated vector table."""
        return {vec: f for bucket in self.partitions.values() for vec, f in bucket.items()}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def n_vectors(self) -> int:
        return self.flat.n_paths

    def max_length(self) -> int:
        offsets = self.flat.as_numpy()["path_offsets"]
        return int(np.diff(offsets).max()) if len(offsets) > 1 else 0

    def max_rank(self) -> int:
        """Highest rank present in any stored vector."""
        return self.flat.max_rank

    def item_support(self, item: Item) -> int:
        """Support of a single frequent item, computed from the vectors."""
        rank = self.rank_table.rank(item)
        return self.rank_support(rank)

    def rank_support(self, rank: int) -> int:
        """Support of the item with the given rank: the summed frequency
        of every stored path holding it, in one pass over the columns."""
        views = self.flat.as_numpy()
        cells = np.flatnonzero(views["ranks"] == rank)
        paths = np.searchsorted(views["path_offsets"], cells, side="right") - 1
        return int(views["freqs"][paths].sum())

    def support_of(self, itemset: Iterable[Item]) -> int:
        """Support of an arbitrary itemset via position-vector subset checks.

        This is the paper's "light subset checking" service: the query
        itemset is encoded once and tested against each stored vector with
        the O(k) two-pointer check — no per-transaction set construction.
        Items missing from the rank table are infrequent, hence the itemset
        support is below ``min_support``; we return its exact value anyway
        by reporting 0 only when the itemset cannot be encoded.
        """
        items = list(itemset)
        if not items:
            return self.n_transactions
        try:
            ranks = self.rank_table.encode_itemset(items)
        except UnknownItemError:
            return 0  # contains an infrequent (unranked) item
        query = position.encode(ranks)
        total = 0
        for length, bucket in self.partitions.items():
            if length < len(query):
                continue
            for vec, freq in bucket.items():
                if position.is_subvector(query, vec):
                    total += freq
        return total

    def stats(self) -> PLTStats:
        flat = self.flat
        return PLTStats(
            n_transactions=self.n_transactions,
            n_encoded_transactions=int(flat.as_numpy()["freqs"].sum()),
            n_frequent_items=len(self.rank_table),
            n_vectors=flat.n_paths,
            n_positions=flat.n_cells,
            max_vector_len=self.max_length(),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"PLT(items={len(self.rank_table)}, vectors={self.n_vectors()}, "
            f"min_support={self.min_support}, transactions={self.n_transactions})"
        )

    def __eq__(self, other: object) -> bool:
        """Same rank table, threshold, count and stored paths (the column
        layout is canonical, so equal paths are equal columns)."""
        if not isinstance(other, PLT):
            return NotImplemented
        mine, theirs = self.flat, other.flat
        return (
            self.rank_table == other.rank_table
            and self.min_support == other.min_support
            and self.n_transactions == other.n_transactions
            and all(
                getattr(mine, name) == getattr(theirs, name)
                for name in ("ranks", "path_offsets", "freqs")
            )
        )


def build_plt(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> PLT:
    """Functional alias for :meth:`PLT.from_transactions`."""
    return PLT.from_transactions(transactions, min_support, order=order)
