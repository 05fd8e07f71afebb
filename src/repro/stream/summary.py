"""One-pass bounded-memory stream summary over PLT ranks.

:class:`StreamSummary` is the streaming counterpart of building a PLT:
it ingests transactions exactly once, holds **fixed** memory regardless
of stream length, and answers the queries the serving tier needs —

* item / 2-itemset frequency, via conservative-update count-min
  sketches (:mod:`repro.stream.cms`) keyed by PLT ranks and rank pairs;
* top-k and "which itemsets are frequent", via space-saving summaries
  (:mod:`repro.stream.spacesaving`) over the same rank keys, so the
  candidates stay *enumerable* (a CMS alone can only answer points);
* longer itemsets, by the subset upper bound: every superset's support
  is at most the minimum over its items' and rank-pairs' estimates, so
  the answer is still one-sided (never under-reports).

Ranks are assigned in arrival order by a shared :class:`RankRegistry`
(the same device :class:`~repro.core.incremental.IncrementalPLT` uses:
existing ranks never shift as new items appear), and rank *pairs* are
keyed low-to-high — the canonical increasing rank-path order of the
PLT — as one packed integer (:func:`~repro.stream.cms.pack_pair`) in
both the pair sketch and the pair summary.  The registry grows with the
number of **distinct items**, not with stream length; for itemset
streams that is the fixed dimension of the problem, and it is the only
unbounded-in-theory state the summary holds.

Ingest is batched: :meth:`StreamSummary.extend` aggregates each block
of :data:`INGEST_BATCH` transactions into distinct keys with counts and
merges them into every sketch at once (``push`` is ``extend`` of one),
so the state is deterministic given the seed and the sequence of
``push``/``extend`` calls.

Every public answer is an explicitly labeled
:class:`~repro.core.mining.ApproximateResult` carrying its error bound
in ``info`` — a sketch answer can never be mistaken for an exact one.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Hashable, Iterable
from itertools import chain, islice

import numpy as np

from repro.core.mining import ApproximateResult, FrequentItemset
from repro.core.rank import sort_key
from repro.data.transaction_db import resolve_min_support
from repro.errors import CheckpointError, InvalidParameterError
from repro.stream.cms import _PAIR_SHIFT, CountMinSketch, pack_pair, unpack_pair
from repro.stream.spacesaving import SpaceSaving

__all__ = ["RankRegistry", "StreamSummary"]

Item = Hashable

#: Transactions per batched update.  Caps the transient key arrays of
#: one block (a Quest T10 transaction yields about 50 rank pairs).
INGEST_BATCH = 64

#: Serialization section prefix: 4-byte little-endian length per section.
_SECTION = struct.Struct("<I")
_MAGIC = b"STRS"


def _pair_keys(ranks: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`~repro.stream.cms.pack_pair` keys of every within-transaction
    rank pair, for transactions laid end to end in ``ranks`` (each sorted
    ascending, ``lengths[i]`` ranks long)."""
    n = len(ranks)
    position = np.arange(1, n + 1)
    partners = np.repeat(np.cumsum(lengths), lengths)
    partners -= position  # ranks after each one in its own transaction
    keys = np.repeat(ranks << np.uint64(_PAIR_SHIFT), partners)
    # element i pairs with elements i+1 .. i+partners[i]; its pairs start
    # at offset cumsum(partners)[i] - partners[i] in ``keys``
    position -= np.cumsum(partners)
    position += partners
    index = np.arange(len(keys))
    index += np.repeat(position, partners)
    keys |= ranks[index]
    return keys


def _pack_sections(*sections: bytes) -> bytes:
    return _MAGIC + b"".join(_SECTION.pack(len(s)) + s for s in sections)


def _unpack_sections(blob: bytes, n: int) -> list[bytes]:
    if blob[:4] != _MAGIC:
        raise CheckpointError("not a serialized stream summary")
    out: list[bytes] = []
    pos = 4
    for _ in range(n):
        if pos + _SECTION.size > len(blob):
            raise CheckpointError("truncated stream summary blob")
        (length,) = _SECTION.unpack_from(blob, pos)
        pos += _SECTION.size
        if pos + length > len(blob):
            raise CheckpointError("truncated stream summary blob")
        out.append(blob[pos : pos + length])
        pos += length
    if pos != len(blob):
        raise CheckpointError("trailing bytes after stream summary sections")
    return out


class RankRegistry:
    """Arrival-order ``item <-> rank`` table shared by stream sketches.

    Mirrors the unfiltered rank assignment of
    :class:`~repro.core.incremental.IncrementalPLT`: the first distinct
    item ever seen gets rank 1, and ranks never shift afterwards, so
    sketch keys stay stable as the stream evolves.
    """

    __slots__ = ("_item_to_rank", "_items")

    def __init__(self) -> None:
        self._item_to_rank: dict[Item, int] = {}
        self._items: list[Item] = []

    def rank_for(self, item: Item, *, create: bool = True) -> int | None:
        rank = self._item_to_rank.get(item)
        if rank is None and create:
            self._items.append(item)
            rank = len(self._items)
            self._item_to_rank[item] = rank
        return rank

    def rank_sets(self, transactions: Iterable[Iterable[Item]]) -> list[list[int]]:
        """Each transaction's sorted distinct ranks, interning new items."""
        get, rank_for = self._item_to_rank.get, self.rank_for
        return [sorted({get(item) or rank_for(item) for item in t}) for t in transactions]

    def item(self, rank: int) -> Item:
        return self._items[rank - 1]

    def items(self) -> tuple[Item, ...]:
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._item_to_rank

    def to_bytes(self) -> bytes:
        """JSON-serialize the arrival-order item list.

        Item labels must be JSON scalars (the ``int``/``str`` labels the
        ``.dat``/CSV readers produce); richer labels are a modelling
        error for a *persistable* stream tier and raise.
        """
        for item in self._items:
            if not isinstance(item, (int, str)):
                raise CheckpointError(
                    f"stream snapshots support int/str item labels, got "
                    f"{type(item).__name__}: {item!r}"
                )
        return json.dumps(self._items, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RankRegistry":
        try:
            items = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"damaged rank registry: {exc}") from exc
        registry = cls()
        for item in items:
            registry.rank_for(item)
        return registry

    def __repr__(self) -> str:
        return f"RankRegistry({len(self._items)} items)"


class StreamSummary:
    """Fixed-memory itemset-frequency summary of everything pushed so far.

    Parameters
    ----------
    epsilon, delta:
        The count-min guarantee: estimates overshoot true counts by at
        most ``eps * N`` with probability ``>= 1 - delta`` (and never
        undershoot), where ``N`` is the sketch's own update total.
    capacity:
        Space-saving slots per heavy-hitter summary; any key occurring
        more than ``updates / capacity`` times stays enumerable.
    track_pairs:
        Maintain the rank-pair sketch/summary (2-itemset queries).  Off,
        only single-item queries (and the trivial upper bound ``min`` of
        member estimates) are available.
    registry:
        A shared :class:`RankRegistry` (the sliding-window composition
        passes one so all its generations agree on ranks).
    """

    __slots__ = (
        "epsilon",
        "delta",
        "capacity",
        "seed",
        "track_pairs",
        "registry",
        "items_cms",
        "pairs_cms",
        "items_hh",
        "pairs_hh",
        "n_transactions",
    )

    def __init__(
        self,
        *,
        epsilon: float = 0.005,
        delta: float = 0.01,
        capacity: int = 256,
        seed: int = 0,
        track_pairs: bool = True,
        registry: RankRegistry | None = None,
    ):
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.track_pairs = bool(track_pairs)
        self.registry = registry if registry is not None else RankRegistry()
        self.items_cms = CountMinSketch(epsilon, delta, seed=seed)
        self.items_hh = SpaceSaving(capacity)
        if track_pairs:
            self.pairs_cms = CountMinSketch(epsilon, delta, seed=seed + 1)
            self.pairs_hh = SpaceSaving(capacity)
        else:
            self.pairs_cms = None
            self.pairs_hh = None
        self.n_transactions = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def push(self, transaction: Iterable[Item]) -> None:
        """Ingest one transaction: ``extend((transaction,))``."""
        self.extend((transaction,))

    def extend(self, transactions: Iterable[Iterable[Item]]) -> int:
        """Ingest transactions in blocks of :data:`INGEST_BATCH`; returns
        the count ingested.  The state depends on the block boundaries, so
        it is deterministic given the seed and the sequence of
        ``push``/``extend`` calls."""
        it = iter(transactions)
        count = 0
        while block := list(islice(it, INGEST_BATCH)):
            self._ingest(block)
            count += len(block)
        return count

    def _ingest(self, block: list[Iterable[Item]]) -> None:
        """One batched update: aggregate the block's rank and rank-pair
        keys, then merge them into each sketch and summary once."""
        rank_sets = self.registry.rank_sets(block)
        self.n_transactions += len(block)
        lengths = np.fromiter(map(len, rank_sets), dtype=np.intp, count=len(rank_sets))
        ranks = np.fromiter(chain.from_iterable(rank_sets), dtype=np.uint64, count=lengths.sum())
        if not ranks.size:
            return
        keys, counts = np.unique(ranks, return_counts=True)
        self.items_cms.add_many(keys, counts)
        self.items_hh.update(keys, counts)
        if self.track_pairs:
            keys, counts = np.unique(_pair_keys(ranks, lengths), return_counts=True)
            self.pairs_cms.add_many(keys, counts)
            self.pairs_hh.update(keys, counts)

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def _ranks_of(self, itemset: Iterable[Item]) -> list[int] | None:
        """Sorted ranks of the itemset, or ``None`` if any item is unseen."""
        ranks = []
        for item in set(itemset):
            rank = self.registry.rank_for(item, create=False)
            if rank is None:
                return None
            ranks.append(rank)
        if not ranks:
            raise InvalidParameterError("cannot estimate an empty itemset")
        return sorted(ranks)

    def estimate(self, itemset: Iterable[Item]) -> int:
        """One-sided support estimate: ``>= true support``, ``<= true +
        error_bound()`` w.h.p. for 1-/2-itemsets.

        Unseen items have true support 0 and estimate 0.  Itemsets of
        three or more items are answered by the subset upper bound (the
        minimum estimate over member items and tracked pairs) — still
        never an under-report, but looser than the pair bound.
        """
        ranks = self._ranks_of(itemset)
        if ranks is None:
            return 0
        if len(ranks) == 1:
            return self.items_cms.estimate(ranks[0])
        if self.track_pairs:
            pair_min = min(
                self.pairs_cms.estimate(pack_pair(r1, r2))
                for i, r1 in enumerate(ranks)
                for r2 in ranks[i + 1 :]
            )
            return pair_min
        return min(self.items_cms.estimate(r) for r in ranks)

    def error_bound(self, size: int = 1) -> int:
        """Additive bound on the overestimate for a ``size``-itemset query."""
        if size <= 1 or not self.track_pairs:
            return self.items_cms.error_bound()
        return self.pairs_cms.error_bound()

    # ------------------------------------------------------------------
    # labeled answers
    # ------------------------------------------------------------------
    def _disclaimer(self, detail: str) -> str:
        return (
            f"approximate result: supports are conservative-update count-min "
            f"estimates (never below the true support, above it by at most "
            f"eps*N with probability >= {1.0 - self.delta:g}); {detail}"
        )

    def _info(self, **extra) -> dict:
        info = {
            "fallback": "sketch",
            "epsilon": self.epsilon,
            "delta": self.delta,
            "error_bound": self.error_bound(1),
            "pair_error_bound": self.error_bound(2) if self.track_pairs else None,
            "memory_bytes": self.memory_bytes(),
        }
        info.update(extra)
        return info

    def frequency(
        self, itemset: Iterable[Item], min_support: float | int | None = None
    ) -> ApproximateResult:
        """The support estimate of one itemset, as a labeled result.

        The result holds one :class:`~repro.core.mining.FrequentItemset`
        (or none, when a threshold is given and the estimate misses it);
        ``info["estimate"]`` always carries the raw number.
        """
        items = tuple(sorted(set(itemset), key=sort_key))
        est = self.estimate(items)
        threshold = (
            resolve_min_support(min_support, max(self.n_transactions, 1))
            if min_support is not None
            else 1
        )
        itemsets = [FrequentItemset(items, est)] if est >= threshold else []
        bound = self.error_bound(len(items))
        return ApproximateResult(
            itemsets,
            n_transactions=self.n_transactions,
            min_support=threshold,
            method="stream-sketch",
            disclaimer=self._disclaimer(
                f"point query over a {len(items)}-itemset, bound +{bound}"
            ),
            info=self._info(estimate=est, query=list(items), size=len(items)),
        )

    def _candidate_rows(self) -> list[tuple[tuple[Item, ...], int, int]]:
        """Every monitored candidate as ``(items, estimate, guaranteed)``.

        Estimates come from the CMS (tighter than the space-saving count);
        ``guaranteed`` is the space-saving lower bound ``count - error``.
        """
        item = self.registry.item
        rows: list[tuple[tuple[Item, ...], int, int]] = []
        entries = self.items_hh.entries()
        estimates = self.items_cms.estimate_many([rank for rank, _c, _e in entries])
        for (rank, count, error), est in zip(entries, estimates.tolist()):
            rows.append(((item(rank),), est, count - error))
        if self.track_pairs:
            entries = self.pairs_hh.entries()
            estimates = self.pairs_cms.estimate_many([key for key, _c, _e in entries])
            for (key, count, error), est in zip(entries, estimates.tolist()):
                r1, r2 = unpack_pair(key)
                items = tuple(sorted((item(r1), item(r2)), key=sort_key))
                rows.append((items, est, count - error))
        return rows

    def top_k(self, k: int) -> ApproximateResult:
        """The ``k`` heaviest monitored itemsets (singles and pairs)."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        rows = self._candidate_rows()
        top = rows
        if len(rows) > k:  # only rows tying the k-th estimate or above can rank
            cutoff = sorted((row[1] for row in rows), reverse=True)[k - 1]
            top = [row for row in rows if row[1] >= cutoff]
        top.sort(key=lambda row: (-row[1], len(row[0]), [sort_key(i) for i in row[0]]))
        top = top[:k]
        return ApproximateResult(
            [FrequentItemset(items, est) for items, est, _guaranteed in top],
            n_transactions=self.n_transactions,
            min_support=1,
            method="stream-sketch+topk",
            disclaimer=self._disclaimer(
                f"top-{k} of the {len(rows)} monitored heavy-hitter candidates; "
                "itemsets below the space-saving floor are not enumerable"
            ),
            info=self._info(k=k, candidates=len(rows)),
        )

    def as_result(
        self, min_support: float | int, *, method: str = "stream-sketch"
    ) -> ApproximateResult:
        """Every monitored 1-/2-itemset whose estimate meets the threshold.

        The enumerable universe is bounded by the space-saving capacity:
        itemsets rarer than ``updates / capacity`` may be missing even if
        they squeak past the threshold — the disclaimer says so.
        """
        threshold = resolve_min_support(min_support, max(self.n_transactions, 1))
        keep = [
            FrequentItemset(items, est)
            for items, est, _guaranteed in self._candidate_rows()
            if est >= threshold
        ]
        return ApproximateResult(
            keep,
            n_transactions=self.n_transactions,
            min_support=threshold,
            method=method,
            disclaimer=self._disclaimer(
                "only monitored 1- and 2-itemsets are enumerated; longer "
                "itemsets and candidates below the space-saving floor are "
                "not in the answer"
            ),
            info=self._info(min_support=threshold),
        )

    # ------------------------------------------------------------------
    # accounting / persistence
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Fixed sketch state plus the (distinct-item-bounded) summaries."""
        total = self.items_cms.memory_bytes() + self.items_hh.memory_bytes()
        if self.track_pairs:
            total += self.pairs_cms.memory_bytes() + self.pairs_hh.memory_bytes()
        return total

    @staticmethod
    def _hh_bytes(hh: SpaceSaving, *, pairs: bool = False) -> bytes:
        """JSON rows ``[key, count, error]``; a pair key is written as its
        ``[r1, r2]`` ranks."""
        rows = [[list(unpack_pair(k)) if pairs else k, c, e] for k, c, e in hh.entries()]
        doc = {"capacity": hh.capacity, "total": hh.total, "rows": rows}
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def _hh_from_bytes(blob: bytes) -> SpaceSaving:
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"damaged heavy-hitter section: {exc}") from exc
        hh = SpaceSaving(doc["capacity"])
        for key, count, error in doc["rows"]:
            if isinstance(key, list):
                key = pack_pair(*key)
            hh._counts[key] = count
            hh._errors[key] = error
        hh.total = doc["total"]
        hh._heap = None  # as after a batch update: built when the scalar path needs it
        return hh

    def to_bytes(self) -> bytes:
        """Serialize the complete summary state (restores byte-identically)."""
        header = json.dumps(
            {
                "epsilon": self.epsilon,
                "delta": self.delta,
                "capacity": self.capacity,
                "seed": self.seed,
                "track_pairs": self.track_pairs,
                "n_transactions": self.n_transactions,
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        sections = [
            header,
            self.registry.to_bytes(),
            self.items_cms.to_bytes(),
            self._hh_bytes(self.items_hh),
        ]
        if self.track_pairs:
            sections.append(self.pairs_cms.to_bytes())
            sections.append(self._hh_bytes(self.pairs_hh, pairs=True))
        return _pack_sections(*sections)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "StreamSummary":
        # parse the header first to learn how many sections follow
        if len(blob) < 8 or blob[:4] != _MAGIC:
            raise CheckpointError("not a serialized stream summary")
        (header_len,) = _SECTION.unpack_from(blob, 4)
        try:
            header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"damaged stream summary header: {exc}") from exc
        track_pairs = bool(header["track_pairs"])
        sections = _unpack_sections(blob, 6 if track_pairs else 4)
        summary = cls(
            epsilon=header["epsilon"],
            delta=header["delta"],
            capacity=header["capacity"],
            seed=header["seed"],
            track_pairs=track_pairs,
            registry=RankRegistry.from_bytes(sections[1]),
        )
        summary.n_transactions = header["n_transactions"]
        summary.items_cms = CountMinSketch.from_bytes(sections[2])
        summary.items_hh = cls._hh_from_bytes(sections[3])
        if track_pairs:
            summary.pairs_cms = CountMinSketch.from_bytes(sections[4])
            summary.pairs_hh = cls._hh_from_bytes(sections[5])
        return summary

    def state_digest(self) -> str:
        """SHA-256 of the serialized state — the snapshot identity check."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def __repr__(self) -> str:
        return (
            f"StreamSummary(eps={self.epsilon}, delta={self.delta}, "
            f"capacity={self.capacity}, transactions={self.n_transactions}, "
            f"items={len(self.registry)}, ~{self.memory_bytes()} bytes)"
        )
