"""Transactional-database substrate.

The paper's input model (Section 2): a multiset ``D`` of transactions, each
a set of items drawn from ``I``, identified by a TID.  This module provides
the in-memory representation every miner consumes, in both classic layouts:

* **horizontal** — TID -> set of items (the default; what Apriori,
  FP-growth, H-Mine and the PLT builders scan), and
* **vertical** — item -> set of TIDs (what Eclat/dEclat consume).

Transactions are stored deduplicated *per transaction* (itemsets, not
sequences) but the database itself is a multiset: identical transactions
are kept with their multiplicity, which is precisely what the PLT's
aggregated vectors exploit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Hashable

from repro.core.rank import sort_key
from repro.errors import InvalidSupportError

__all__ = ["TransactionDatabase", "resolve_min_support", "check_max_len", "item_supports"]

Item = Hashable
Transaction = frozenset


def item_supports(transactions: Iterable[Iterable[Item]]) -> Counter:
    """Count, for every item, the number of transactions containing it.

    This is scan 1 of Algorithm 1 (and of every other miner here).
    Duplicate items inside one transaction count once.
    """
    counts: Counter = Counter()
    for t in transactions:
        counts.update(set(t))
    return counts


def resolve_min_support(min_support: float | int, n_transactions: int) -> int:
    """Normalise a support threshold to an absolute transaction count.

    The paper (footnote 1) counts support in absolute transactions; user
    APIs conventionally accept a relative fraction as well.  Integers
    ``>= 1`` are absolute counts; floats in ``(0, 1]`` are fractions of the
    database size, rounded up (an itemset meeting the fraction exactly is
    frequent).
    """
    if isinstance(min_support, bool):
        raise InvalidSupportError(f"min_support must be numeric, got {min_support!r}")
    if isinstance(min_support, int):
        if min_support < 1:
            raise InvalidSupportError(
                f"absolute min_support must be >= 1, got {min_support}"
            )
        return min_support
    if isinstance(min_support, float):
        if not 0.0 < min_support <= 1.0:
            raise InvalidSupportError(
                f"relative min_support must be in (0, 1], got {min_support}"
            )
        import math

        # tiny epsilon so that e.g. 0.3 * 10 == 3.0000000000000004 still
        # resolves to 3 rather than 4
        count = math.ceil(min_support * n_transactions - 1e-9)
        return max(count, 1)
    raise InvalidSupportError(f"min_support must be int or float, got {min_support!r}")


def check_max_len(max_len: int | None) -> None:
    """Reject an itemset-length cap below one (``None`` means no cap).

    Every miner that takes ``max_len`` calls this, so a cap of zero fails
    the same way everywhere instead of meaning "nothing", "singletons" or
    an error depending on the miner.
    """
    if max_len is not None and max_len < 1:
        raise InvalidSupportError(f"max_len must be >= 1, got {max_len}")


class TransactionDatabase:
    """An immutable multiset of transactions with layout conversions.

    Parameters
    ----------
    transactions:
        Iterable of item collections.  Order of items within a transaction
        is irrelevant; duplicates inside a transaction collapse.

    A database can also be backed by integer columns
    (:meth:`from_columns`, what :func:`~repro.data.io.read_dat` returns
    for an integer ``.dat`` file).  Its length and supports are read off
    the columns, and the frozensets are built only on first iteration or
    indexing.
    """

    __slots__ = ("_sets", "_columns", "_item_supports")

    def __init__(self, transactions: Iterable[Iterable[Item]]):
        self._sets: tuple[frozenset, ...] | None = tuple(
            frozenset(t) for t in transactions
        )
        self._columns = None
        self._item_supports: Counter | None = None

    @classmethod
    def from_columns(cls, items, offsets) -> "TransactionDatabase":
        """A database over integer columns, without building item sets.

        ``items`` is an int64 NumPy array of non-negative item ids,
        transaction after transaction, each transaction's ids distinct;
        ``offsets`` (int64, one longer than the number of
        transactions) delimits them: transaction ``t`` is
        ``items[offsets[t]:offsets[t + 1]]``.
        """
        db = cls.__new__(cls)
        db._sets = None
        db._columns = (items, offsets)
        db._item_supports = None
        return db

    def columns(self):
        """``(items, offsets)`` for a column-backed database, else ``None``."""
        return self._columns

    def _transactions(self) -> tuple[frozenset, ...]:
        if self._sets is None:
            items, offsets = self._columns
            cells, bounds = items.tolist(), offsets.tolist()
            self._sets = tuple(
                frozenset(cells[a:b]) for a, b in zip(bounds, bounds[1:])
            )
        return self._sets

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._sets is None:
            return len(self._columns[1]) - 1
        return len(self._sets)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._transactions())

    def __getitem__(self, tid: int) -> frozenset:
        return self._transactions()[tid]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return Counter(self._transactions()) == Counter(other._transactions())

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n_transactions={len(self)}, "
            f"n_items={len(self.items())})"
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def supports(self) -> Counter:
        """Item -> number of transactions containing it (cached)."""
        if self._item_supports is None:
            if self._sets is None:  # ids are distinct within a transaction
                self._item_supports = Counter(self._columns[0].tolist())
            else:
                self._item_supports = item_supports(self._sets)
        return self._item_supports

    def items(self) -> tuple[Item, ...]:
        """All distinct items, in the library's canonical sort order."""
        return tuple(sorted(self.supports(), key=sort_key))

    def n_items(self) -> int:
        return len(self.supports())

    def avg_transaction_length(self) -> float:
        if not len(self):
            return 0.0
        if self._sets is None:
            return len(self._columns[0]) / len(self)
        return sum(len(t) for t in self._sets) / len(self._sets)

    def max_transaction_length(self) -> int:
        if self._sets is None:
            offsets = self._columns[1]
            return int((offsets[1:] - offsets[:-1]).max(initial=0))
        return max((len(t) for t in self._sets), default=0)

    def density(self) -> float:
        """Average transaction length divided by the number of items.

        ~1.0 for fully dense data (every item in every transaction), near 0
        for sparse market baskets.  Used by the benchmarks to label
        workloads.
        """
        n = self.n_items()
        return self.avg_transaction_length() / n if n else 0.0

    def frequent_items(self, min_support: float | int) -> dict[Item, int]:
        """Items meeting the threshold, with their supports."""
        count = resolve_min_support(min_support, len(self))
        return {i: s for i, s in self.supports().items() if s >= count}

    def support_of(self, itemset: Iterable[Item]) -> int:
        """Exact support of an arbitrary itemset by a full scan (oracle)."""
        target = frozenset(itemset)
        if not target:
            return len(self)
        return sum(1 for t in self._transactions() if target <= t)

    # ------------------------------------------------------------------
    # layouts and derived databases
    # ------------------------------------------------------------------
    def aggregated(self) -> dict[frozenset, int]:
        """Distinct transactions with multiplicities (the PLT's raw input)."""
        return dict(Counter(self._transactions()))

    def vertical(self) -> dict[Item, frozenset]:
        """Item -> frozenset of TIDs (the Eclat layout)."""
        tidsets: dict[Item, set[int]] = {}
        for tid, t in enumerate(self._transactions()):
            for item in t:
                tidsets.setdefault(item, set()).add(tid)
        return {item: frozenset(tids) for item, tids in tidsets.items()}

    def filtered(self, min_support: float | int) -> "TransactionDatabase":
        """A copy with infrequent items removed and empty transactions kept.

        Keeping empties preserves ``len(db)`` so that relative supports stay
        comparable before/after filtering.
        """
        keep = set(self.frequent_items(min_support))
        return TransactionDatabase(t & keep for t in self._transactions())

    def without_empty(self) -> "TransactionDatabase":
        return TransactionDatabase(t for t in self._transactions() if t)

    def relabelled(self, mapping: Mapping[Item, Item]) -> "TransactionDatabase":
        """Apply an item-renaming map (missing items keep their label)."""
        return TransactionDatabase(
            frozenset(mapping.get(i, i) for i in t) for t in self._transactions()
        )

    def sample(self, n: int, *, seed: int = 0) -> "TransactionDatabase":
        """A reproducible random sample of ``n`` transactions (no replacement)."""
        import random

        if n >= len(self):
            return self
        rng = random.Random(seed)
        return TransactionDatabase(rng.sample(self._transactions(), n))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sequences(cls, seqs: Sequence[Sequence[Item]]) -> "TransactionDatabase":
        """Alias constructor clarifying intent at call sites."""
        return cls(seqs)
