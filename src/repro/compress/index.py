"""Disk-shaped indexes over serialized PLT partitions.

The paper argues (Sections 1, 6) that because the PLT "regulates" the data
into fixed-shape, sorted vector partitions, standard indexing applies.
This module demonstrates both index kinds the mining algorithms need:

* :class:`LengthIndex` — partition directory: vector length -> byte span
  inside a serialized blob, so the top-down miner can read partitions
  longest-first without parsing the whole stream.
* :class:`SumIndex` — ``sum -> [vector ids]``: the conditional miner's
  entry point (an item's conditional database is one bucket lookup).

:class:`ItemIndex` — ``rank -> [path ids]`` over the stored columns — is
the serving daemon's: any itemset's support, and the conditional database
of the itemsets containing an item.

All are built once over an in-memory PLT and answer queries without
touching the original transactions, matching the paper's
"self-contained structure" claim.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.flat import FlatPLT, exact_bincount
from repro.core.plt import PLT
from repro.core.position import PositionVector, RankPath, vector_sum
from repro.errors import ReproError

__all__ = ["SumIndex", "LengthIndex", "ItemIndex"]


class SumIndex:
    """Immutable ``sum -> sorted vectors`` index with support aggregates.

    ``bucket(s)`` answers "every stored transaction whose maximal item has
    rank ``s``" — the conditional-database lookup of Algorithm 3 — and
    ``support(s)`` its total frequency (the support the top of Algorithm 3
    computes) in O(1) after construction.
    """

    __slots__ = ("_buckets", "_supports")

    def __init__(self, plt: PLT):
        buckets: dict[int, list[tuple[PositionVector, int]]] = {}
        supports: dict[int, int] = {}
        for vec, freq in plt.iter_vectors():
            s = vector_sum(vec)
            buckets.setdefault(s, []).append((vec, freq))
            supports[s] = supports.get(s, 0) + freq
        for s in buckets:
            buckets[s].sort()
        self._buckets = buckets
        self._supports = supports

    def sums(self) -> list[int]:
        """All sums present, descending (the mining order)."""
        return sorted(self._buckets, reverse=True)

    def bucket(self, s: int) -> list[tuple[PositionVector, int]]:
        return list(self._buckets.get(s, ()))

    def support(self, s: int) -> int:
        """Total frequency of vectors ending at rank ``s``.

        Note: this is the support of item ``s`` *as a maximal item*; the
        full support additionally counts vectors passing through ``s``
        (what Algorithm 3's migration accumulates).
        """
        return self._supports.get(s, 0)

    def __contains__(self, s: int) -> bool:
        return s in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)


class ItemIndex:
    """Inverted occurrence index over a :class:`~repro.core.flat.FlatPLT`.

    The serving daemon's point-query workhorse.  It holds, as arrays over
    the structure's columns:

    * the ids of the stored paths through each rank, ascending (every
      cell's path id, stably sorted by rank, plus per-rank start offsets);
    * every rank's exact support (one weighted ``bincount``);
    * the ``ranks``, ``path_offsets`` and ``freqs`` columns as int64;
    * the total frequency.

    From these it answers, without touching the original transactions:

    * :meth:`support` — exact support of an arbitrary itemset: one rank
      is a lookup; more ranks intersect the id arrays by ``searchsorted``,
      rarest first (each stored path is a whole aggregated transaction,
      so containment of every query rank decides membership);
    * :meth:`conditional_paths` — the conditional database of a rank,
      gathered in one pass and already stripped of locally infrequent
      ranks.

    Paths come back as tuples only on request (:meth:`paths_containing`,
    :meth:`paths`).
    """

    __slots__ = ("_ids", "_starts", "_supports", "_cells", "_offsets", "_freqs", "_total", "_flat")

    def __init__(self, flat: FlatPLT):
        views = flat.as_numpy()
        cells = views["ranks"].astype(np.int64)
        offsets = views["path_offsets"].astype(np.int64)
        freqs = views["freqs"].astype(np.int64)
        width = flat.max_rank + 1
        path_of = np.repeat(np.arange(len(freqs)), np.diff(offsets))
        self._ids = path_of[np.argsort(cells, kind="stable")]
        starts = np.zeros(width + 1, np.int64)
        np.cumsum(np.bincount(cells, minlength=width), out=starts[1:])
        self._starts = starts.tolist()
        self._total = sum(freqs.tolist())  # exact: an int64 sum wraps at 2**63
        self._supports = exact_bincount(cells, freqs[path_of], width, self._total).tolist()
        self._cells = cells
        self._offsets = offsets
        self._freqs = freqs
        self._flat = flat

    def _postings(self, rank: int):
        """Ascending ids of the stored paths through ``rank`` (a view)."""
        if not 0 < rank < len(self._supports):
            return self._ids[:0]
        return self._ids[self._starts[rank] : self._starts[rank + 1]]

    def ranks(self) -> list[int]:
        """All ranks with at least one occurrence, ascending."""
        return [r for r in range(1, len(self._supports)) if r in self]

    def rank_support(self, rank: int) -> int:
        """Exact support of a single rank (0 if absent)."""
        return self._supports[rank] if 0 < rank < len(self._supports) else 0

    def n_paths(self) -> int:
        return len(self._freqs)

    def support(self, ranks, *, governor=None) -> int:
        """Exact support of the itemset with the given ranks.

        One rank reads its precomputed support.  Otherwise the id array
        of the rarest query rank is intersected with each other rank's by
        ``searchsorted``, rarest first; with a ``governor`` every
        intersection is charged one amortized work unit per id it probes,
        so a per-query deadline bounds even adversarially hot items.
        """
        ranks = set(ranks)
        if not ranks:
            return self._total
        if len(ranks) == 1:
            return self.rank_support(ranks.pop())
        rarest, *others = sorted(map(self._postings, ranks), key=len)
        ids = rarest
        for other in others:
            if not len(ids):
                return 0
            if governor is not None:
                governor.tick(len(ids))
            ids = ids[other.take(np.searchsorted(other, ids), mode="clip") == ids]
        return int(self._freqs[ids].sum())

    def conditional_paths(self, rank: int, min_support: int, *, governor=None) -> dict:
        """``{rank path: frequency}`` of the paths through ``rank``, without it.

        Each stored path through the rank loses the rank itself and every
        rank whose support among those paths is below ``min_support``;
        equal remainders aggregate and empty ones vanish.  This is the
        input :func:`~repro.core.conditional.mine_conditional_paths`
        takes to enumerate the frequent itemsets containing ``rank``,
        with nothing left for its projection to drop.  With a
        ``governor`` the gather is charged one work unit per path.
        """
        ids = self._postings(rank)
        if governor is not None:
            governor.tick(len(ids))
        if not len(ids):
            return {}
        starts = self._offsets[ids]
        lengths = self._offsets[ids + 1] - starts
        ends = np.cumsum(lengths)
        cells = self._cells[np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])]
        freqs = self._freqs[ids]
        local = exact_bincount(cells, np.repeat(freqs, lengths), len(self._supports), self._total)
        local[rank] = 0
        keep = local[cells] >= min_support
        kept = cells[keep].tolist()
        out: dict = {}
        lo = 0
        for hi, freq in zip(np.cumsum(keep)[ends - 1].tolist(), freqs.tolist()):
            if hi > lo:
                path = tuple(kept[lo:hi])
                out[path] = out.get(path, 0) + freq
                lo = hi
        return out

    def paths_containing(self, rank: int) -> Iterator[tuple[RankPath, int]]:
        """``(path, frequency)`` for every stored path through ``rank``,
        in storage order."""
        ids = self._postings(rank)
        path = self._flat.path
        for p, freq in zip(ids.tolist(), self._freqs[ids].tolist()):
            yield path(p), freq

    def paths(self) -> Iterator[tuple[RankPath, int]]:
        """Every stored ``(path, frequency)`` pair, in storage order."""
        return self._flat.iter_paths()

    def __len__(self) -> int:
        return len(self.ranks())

    def __contains__(self, rank: int) -> bool:
        return 0 < rank < len(self._supports) and self._starts[rank + 1] > self._starts[rank]


class LengthIndex:
    """Partition directory over a serialized blob: length -> (offset, size).

    Built alongside a simple concatenated encoding of partitions (each
    partition encoded with :func:`repro.compress.plt_codec.serialize_plt`
    applied to a single-partition PLT would duplicate headers; instead we
    store spans into one stream of varint vector records).  Parsing a
    partition touches only its span.
    """

    __slots__ = ("_blob", "_spans", "_counts")

    def __init__(self, plt: PLT):
        from repro.compress.varint import encode_uvarint

        blob = bytearray()
        spans: dict[int, tuple[int, int]] = {}
        counts: dict[int, int] = {}
        for length in sorted(plt.partitions):
            start = len(blob)
            bucket = plt.partitions[length]
            for vec in sorted(bucket):
                for p in vec:
                    encode_uvarint(p, blob)
                encode_uvarint(bucket[vec], blob)
            spans[length] = (start, len(blob) - start)
            counts[length] = len(bucket)
        self._blob = bytes(blob)
        self._spans = spans
        self._counts = counts

    def lengths(self) -> list[int]:
        return sorted(self._spans)

    def span(self, length: int) -> tuple[int, int]:
        try:
            return self._spans[length]
        except KeyError:
            raise ReproError(f"no partition of length {length}") from None

    def n_vectors(self, length: int) -> int:
        return self._counts.get(length, 0)

    def total_bytes(self) -> int:
        return len(self._blob)

    def read_partition(self, length: int) -> Iterator[tuple[PositionVector, int]]:
        """Decode one partition from its byte span only."""
        from repro.compress.varint import decode_uvarint

        start, size = self.span(length)
        view = memoryview(self._blob)[start : start + size]
        pos = 0
        for _ in range(self._counts[length]):
            vec = []
            for _ in range(length):
                p, pos = decode_uvarint(view, pos)
                vec.append(p)
            freq, pos = decode_uvarint(view, pos)
            yield tuple(vec), freq

    def find_vector(self, vector: PositionVector) -> int | None:
        """Frequency of ``vector`` or None — a point query via its partition.

        Decodes only the partition of the vector's length; within it the
        records are sorted, so the scan early-exits past the key.
        """
        length = len(vector)
        if length not in self._spans:
            return None
        for vec, freq in self.read_partition(length):
            if vec == vector:
                return freq
            if vec > vector:
                return None
        return None
