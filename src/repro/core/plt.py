"""The Positional Lexicographic Tree structure and its construction.

Algorithm 1 of the paper, plus the structure's query surface.  The PLT
stores one aggregated index of **rank paths** — each vector's
cumulative-sum form, which by Lemma 4.1.1 is just the encoded
transaction's sorted rank tuple — bucketed by the rank of the maximal
item (the ``V.sum`` the paper stores with every vector)::

    rank paths: {sum s -> {rank path -> frequency}}

``s`` is exactly the key Algorithm 3 uses to find an item's conditional
database.  The delta-vector views of the paper's "matrix" representation
(Figure 3a) are derived from it on first use and cached::

    partitions: {length k -> {position vector -> frequency}}
    sum_index:  {sum s -> {position vector -> frequency}}

Construction is the paper's two scans: scan 1 counts item supports and
builds the :class:`~repro.core.rank.RankTable` over frequent items; scan 2
maps each transaction through the ``label -> rank`` table, keeps the
sorted ranks of its frequent items (its rank path) and aggregates equal
paths.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from operator import itemgetter
from typing import Hashable

from repro.core import position
from repro.core.position import PositionVector, RankPath
from repro.core.rank import RankTable
from repro.data.transaction_db import TransactionDatabase, resolve_min_support
from repro.errors import InvalidSupportError, InvalidVectorError, UnknownItemError

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


def _check_paths(paths: Mapping[RankPath, int]) -> None:
    """Reject anything but non-empty rank paths of distinct ranks >= 1.

    Every producer builds its paths ascending (sorted ranks, or the prefix
    sums of positive deltas), so distinct ranks make them strictly
    increasing.  All checks run as C-level passes over the whole table.
    """
    if not paths:
        return
    if () in paths:
        raise InvalidVectorError("cannot store an empty rank path")
    if (
        min(map(itemgetter(0), paths)) < 1
        or sum(map(len, paths)) != sum(map(len, map(frozenset, paths)))
    ):
        bad = next(p for p in paths if p[0] < 1 or len(set(p)) != len(p))
        raise InvalidVectorError(
            f"rank paths must be strictly increasing positive ranks, got {bad!r}"
        )
    if min(paths.values()) <= 0:
        bad = next(p for p, f in paths.items() if f <= 0)
        raise InvalidVectorError(
            f"vector frequency must be positive: {bad!r} -> {paths[bad]}"
        )


class PLT:
    """The positional lexicographic tree (aggregated rank-path form).

    Instances are built with :meth:`from_transactions` (Algorithm 1) or, for
    internal/conditional use, from pre-encoded vectors with
    :meth:`from_vectors`.  The structure is conceptually immutable after
    construction; the conditional miner works on copies of its index.

    Attributes
    ----------
    rank_table:
        The ``Rank`` function over the frequent items.
    min_support:
        The absolute support threshold the structure was built with.
    n_transactions:
        Total number of input transactions (including those that encoded
        to nothing because all their items were infrequent).
    """

    __slots__ = (
        "rank_table",
        "min_support",
        "n_transactions",
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
        _check_paths(paths)
        self.rank_table = rank_table
        self.min_support = min_support
        self.n_transactions = n_transactions
        index: dict[int, dict[RankPath, int]] = {}
        for path, freq in paths.items():
            bucket = index.get(path[-1])
            if bucket is None:
                index[path[-1]] = {path: freq}
            else:
                bucket[path] = freq
        self._rank_paths = index
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
        is materialised once as item sets, since the algorithm needs two
        passes and duplicate items inside a transaction count once.
        """
        if not isinstance(transactions, TransactionDatabase):
            transactions = [frozenset(t) for t in transactions]
        # Scan 1: item supports -> Rank over frequent items.
        supports = Counter(chain.from_iterable(transactions))
        n_transactions = len(transactions)
        abs_support = resolve_min_support(min_support, n_transactions)
        rank_table = RankTable.from_supports(supports, min_support=abs_support, order=order)
        # Scan 2: a transaction's frequent ranks, sorted, are its rank path
        # (Lemma 4.1.1) — looked up through one dict, with infrequent items
        # (no rank) filtered out, and equal paths aggregated; all C-level.
        ranks_of = partial(map, rank_table.rank_map().get)
        paths = Counter(
            map(tuple, map(sorted, map(partial(filter, None), map(ranks_of, transactions))))
        )
        paths.pop((), None)  # transactions with no frequent item
        return cls(
            rank_table,
            paths,
            min_support=abs_support,
            n_transactions=n_transactions,
        )

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
        all in weight units.  Mining the result with any PLT algorithm
        gives exactly the result of mining the expanded multiset.
        """
        pairs = [(frozenset(t), int(w)) for t, w in weighted]
        for _, w in pairs:
            if w < 1:
                raise InvalidSupportError(f"transaction weights must be >= 1, got {w}")
        supports: Counter = Counter()
        for t, w in pairs:
            for item in t:
                supports[item] += w
        n_transactions = sum(w for _, w in pairs)
        abs_support = resolve_min_support(min_support, max(n_transactions, 1))
        rank_table = RankTable.from_supports(supports, min_support=abs_support, order=order)
        rank_of = rank_table.rank_map().get
        paths: Counter = Counter()
        for t, w in pairs:
            path = tuple(sorted(filter(None, map(rank_of, t))))
            if path:
                paths[path] += w
        return cls(
            rank_table,
            paths,
            min_support=abs_support,
            n_transactions=n_transactions,
        )

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
    def _delta_views(self) -> None:
        """Derive and cache the two delta-vector views in one pass."""
        partitions: dict[int, dict[PositionVector, int]] = {}
        sum_index: dict[int, dict[PositionVector, int]] = {}
        for total, bucket in self._rank_paths.items():
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
        """The stored index — the mining hot-path view.

        Maps ``max rank -> {rank path -> frequency}`` where each rank path
        is the cumulative-sum tuple of a stored vector (Lemma 4.1.1).
        The conditional miner works on this representation because the
        quantities Algorithm 3 recomputes per vector in delta form are all
        O(1) here: bucket key = ``path[-1]``, prefix's bucket key =
        ``path[-2]``, and local projection is a plain membership filter.

        Returns a fresh, deep-copied mapping (the miner consumes it).
        """
        return {s: dict(bucket) for s, bucket in self._rank_paths.items()}

    def iter_vectors(self) -> Iterator[tuple[PositionVector, int]]:
        """All (vector, frequency) pairs, longest partitions first."""
        partitions = self.partitions
        for length in sorted(partitions, reverse=True):
            yield from partitions[length].items()

    def iter_rank_paths(self) -> Iterator[tuple[RankPath, int]]:
        """All (rank path, frequency) pairs, in sum-index bucket order."""
        for bucket in self._rank_paths.values():
            yield from bucket.items()

    def iter_rank_path_buckets(self) -> Iterator[tuple[int, dict[RankPath, int]]]:
        """``(max rank, bucket)`` pairs in *descending* key order.

        Zero-copy view over the stored index — the columnar lowering
        (:class:`repro.core.flat.FlatPLT`) walks it without paying the
        deep copy :meth:`rank_path_index` makes for the consuming miners.
        Callers must not mutate the yielded buckets.
        """
        for key in sorted(self._rank_paths, reverse=True):
            yield key, self._rank_paths[key]

    def vectors(self) -> dict[PositionVector, int]:
        """Flat copy of the aggregated vector table."""
        return {vec: f for bucket in self.partitions.values() for vec, f in bucket.items()}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def n_vectors(self) -> int:
        return sum(map(len, self._rank_paths.values()))

    def max_length(self) -> int:
        return max(map(len, chain.from_iterable(self._rank_paths.values())), default=0)

    def max_rank(self) -> int:
        """Highest rank present in any stored vector."""
        return max(self._rank_paths, default=0)

    def item_support(self, item: Item) -> int:
        """Support of a single frequent item, computed from the vectors."""
        rank = self.rank_table.rank(item)
        return self.rank_support(rank)

    def rank_support(self, rank: int) -> int:
        """Support of the item with the given rank.

        Scans the stored rank paths: membership of ``rank`` on a path is a
        C-speed tuple containment test instead of a per-vector prefix sum;
        buckets whose maximal rank is below ``rank`` are skipped entirely.
        """
        total = 0
        for max_rank, bucket in self._rank_paths.items():
            if max_rank < rank:
                continue
            for path, freq in bucket.items():
                if rank in path:
                    total += freq
        return total

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
        paths = list(self.iter_rank_paths())
        return PLTStats(
            n_transactions=self.n_transactions,
            n_encoded_transactions=sum(map(itemgetter(1), paths)),
            n_frequent_items=len(self.rank_table),
            n_vectors=len(paths),
            n_positions=sum(len(path) for path, _ in paths),
            max_vector_len=self.max_length(),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"PLT(items={len(self.rank_table)}, vectors={self.n_vectors()}, "
            f"min_support={self.min_support}, transactions={self.n_transactions})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLT):
            return NotImplemented
        return (
            self.rank_table == other.rank_table
            and self._rank_paths == other._rank_paths
            and self.min_support == other.min_support
            and self.n_transactions == other.n_transactions
        )


def build_plt(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> PLT:
    """Functional alias for :meth:`PLT.from_transactions`."""
    return PLT.from_transactions(transactions, min_support, order=order)
