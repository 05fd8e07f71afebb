"""The subset-lattice kernel that Algorithms 2 and 3 share.

Algorithm 2 (:mod:`repro.core.topdown`) counts every subset of every
stored path; Algorithm 3's lattice leaves
(:func:`repro.core.conditional._lattice_leaves`) count every subset of a
small conditional database's projected rows.  Both write the subsets of
their rows by doubling (:func:`_expand`) into a :class:`_Lattice`, which
aggregates them one chunk at a time, and decode the surviving masks with
:func:`_popcount` and :func:`_rank_matrix`.  The kernel itself and its
key layouts are described in :mod:`repro.core.topdown`.

The module needs only NumPy and the counters, so the conditional miner
loads no top-down code.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.columns import _tuples
from repro.core.position import PositionVector, RankPath
from repro.perf.counters import COUNTERS as _COUNTERS

#: Subsets generated per chunk: a chunk of length-``L`` rows holds
#: ``max(1, _CHUNK_SUBSETS >> L)`` rows, which bounds the kernel's
#: temporaries independently of the input size.
_CHUNK_SUBSETS = 1 << 16

#: Queued entries a lattice holds before it merges, at the least.  A merge
#: sorts and sums the whole table again, so a lattice of under a million
#: entries merges once, when it is read; a larger one merges whenever its
#: queue outgrows the merged table, which keeps merging ``O(N log N)``.
_MERGE_FLOOR = 1 << 20

#: SWAR popcount constants (see :func:`_popcount`).
_M1, _M2, _M4, _H01 = map(
    np.uint64,
    (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101),
)


def _aggregate(keys, counts, words: int, kind: str = "quicksort"):
    """Sum ``counts`` per distinct key: ``(sorted unique keys, int64 sums)``."""
    if len(keys) == 0:
        return keys, counts
    order = keys.argsort(kind=kind)
    keys = keys[order]
    masks = keys.view(np.uint64).reshape(-1, words)
    first = np.ones(len(keys), bool)
    first[1:] = (masks[1:] != masks[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(counts[order], starts)


def _collapse(col: np.ndarray, shift: int, kind: str = "quicksort") -> np.ndarray:
    """Sort a packed column in place and collapse it: one ``key << shift |
    count`` entry per run of equal keys, its count the run's summed low
    ``shift`` bits, in the column's own unsigned dtype.

    The caller guarantees that no key's summed count reaches
    ``2^shift``, so the sums never carry into the key bits.
    """
    if len(col) == 0:
        return col
    col.sort(kind=kind)
    low = col.dtype.type((1 << shift) - 1)
    first = np.empty(len(col), bool)
    first[0] = True
    # the high bits differ exactly where the XOR exceeds the count mask
    np.greater(col[1:] ^ col[:-1], low, out=first[1:])
    starts = np.flatnonzero(first)
    return (col[starts] & ~low) | np.add.reduceat(col & low, starts, dtype=col.dtype)


def _double(buf: np.ndarray, bits: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Every subset of each row of ``bits`` by doubling, written into ``buf``.

    ``bits`` is ``(rows, L, ...)``: each row's ``L`` items as one-bit
    masks.  Returns ``(rows, 2^L, ...)`` cells of ``bits``' dtype, laid
    over the front of the flat scratch buffer ``buf``: cell ``k`` of a row
    is its ``heads`` entry ORed with the items ``i`` whose bit ``i`` is set
    in ``k``, so cell 0 is the head alone.
    """
    rows, length = bits.shape[:2]
    shape = (rows, 1 << length, *bits.shape[2:])
    sub = buf.view(bits.dtype)[: math.prod(shape)].reshape(shape)
    sub[:, 0] = heads
    for j in range(length):
        half = 1 << j
        np.bitwise_or(sub[:, :half], bits[:, j, None], out=sub[:, half : 2 * half])
    return sub


class _Lattice:
    """A subset table fed chunk by chunk, in one of two key layouts.

    ``key_bits`` is the widest key the table will see and ``total`` a
    bound on any key's summed count (the summed path frequency).  With
    ``shift = bit_length(total)``:

    * **packed** (``key_bits + shift <= 64``): each entry is one
      ``uint64``, ``key << shift | count``.  A table is a sorted column,
      aggregated by ``np.sort`` and a sum over runs of equal high bits
      (:func:`_collapse`); a sum is at most ``total < 2^shift``, so it
      never carries into the key.
    * **record** (wider keys): a ``(keys, counts)`` pair.  Keys are
      ``uint64`` masks when ``W == 1``, otherwise ``8 W``-byte ``np.void``
      records, aggregated by one ``argsort`` (:func:`_aggregate`).

    A *part* — what :meth:`add` takes and :meth:`column` returns — is a
    packed column or a ``(keys, counts)`` pair, by layout.

    :meth:`chunk` aggregates one chunk of :func:`_expand`'s subsets in a
    layout of its own: ``key << w | count``, where ``w`` is the bit length
    of the chunk's summed row frequency (at most ``shift``), since no key
    in the chunk can sum past that.  The chunk is a ``uint32`` column when
    ``key_bits + w <= 32`` and a ``uint64`` one when it is ``<= 64``; only
    wider keys aggregate as records.  It comes back as a part of the
    table's layout.
    """

    def __init__(self, key_bits: int, total: int) -> None:
        self.key_bits = key_bits
        self.words = max(1, -(-key_bits // 64))
        self.shift = int(total).bit_length()
        self.packed = key_bits + self.shift <= 64
        self.dtype = np.dtype(np.uint64 if self.words == 1 else (np.void, 8 * self.words))
        self._table = self._part(np.empty(0, self.dtype), np.empty(0, np.int64))
        self._pending: list = []
        self._pending_n = 0

    def _part(self, keys: np.ndarray, counts: np.ndarray):
        """The aggregated part of raw ``keys`` (1-D, repeats allowed) and
        their ``int64`` ``counts``."""
        if not self.packed:
            return _aggregate(keys, counts, self.words)
        col = keys << np.uint64(self.shift)
        col |= counts.astype(np.uint64)
        return _collapse(col, self.shift)

    def insert(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add raw ``keys`` with their ``counts``; equal keys sum."""
        self.add(self._part(keys, counts))

    def chunk(self, bits, freqs, total: int, base, buf):
        """The aggregated part of every subset of the rows of ``bits``.

        ``bits`` is an ``(n, L, W)`` ``uint64`` array of one-bit masks,
        ``freqs`` the rows' frequencies and ``total`` their exact sum.
        Each subset mask is ORed onto its row's ``base`` tag (``(n, W)``);
        with ``base=None`` the all-zero key, the empty set, is dropped.
        ``buf`` is flat ``uint64`` scratch of at least ``n 2^L W`` cells.
        """
        rows, length, words = bits.shape
        shift = min(self.shift, total.bit_length())
        width = self.key_bits + shift
        if words > 1 or width > 64:
            heads = np.zeros((rows, words), np.uint64) if base is None else base
            keys, counts = _aggregate(
                _double(buf, bits, heads).reshape(-1, words).view(self.dtype).ravel(),
                np.repeat(freqs, 1 << length),
                words,
            )
            return (keys[1:], counts[1:]) if base is None else (keys, counts)
        # the one-bit masks sit above the count bits and each row's first
        # cell holds its frequency, so the ORs copy it into every subset
        dtype = np.dtype(np.uint32 if width <= 32 else np.uint64)
        ushift = dtype.type(shift)
        heads = freqs.astype(dtype)
        if base is not None:
            heads |= base[:, 0].astype(dtype) << ushift
        sub = _double(buf, bits[:, :, 0].astype(dtype) << ushift, heads)
        col = _collapse(sub.ravel(), shift)
        if base is None:
            col = col[1:]
        low = dtype.type((1 << shift) - 1)
        if not self.packed:
            return (col >> ushift).astype(np.uint64), (col & low).astype(np.int64)
        if dtype == np.uint64 and shift == self.shift:
            return col
        # the same keys and counts, re-spaced to the table's count width
        part = (col >> ushift).astype(np.uint64) << np.uint64(self.shift)
        part |= col & low
        return part

    def add(self, part) -> None:
        """Queue one part; merge once the queue outgrows both the merged
        table and :data:`_MERGE_FLOOR` entries."""
        self._pending.append(part)
        self._pending_n += _length(part)
        if self._pending_n > max(_length(self._table), _MERGE_FLOOR):
            self._merge()

    def _merge(self) -> None:
        if self._pending:
            parts = [self._table, *self._pending]
            # concatenated sorted runs: a stable (merging) sort is cheapest
            if self.packed:
                self._table = _collapse(np.concatenate(parts), self.shift, "stable")
            else:
                self._table = _aggregate(
                    np.concatenate([k for k, _ in parts]),
                    np.concatenate([c for _, c in parts]),
                    self.words,
                    kind="stable",
                )
            self._pending, self._pending_n = [], 0

    @property
    def nbytes(self) -> int:
        """Bytes held in the merged and queued tables."""
        parts = [self._table, *self._pending]
        if self.packed:
            return sum(col.nbytes for col in parts)
        return sum(keys.nbytes + counts.nbytes for keys, counts in parts)

    def column(self):
        """The merged table as one part, to ship to another lattice."""
        self._merge()
        return self._table

    def table(self, min_support: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The merged ``(keys, counts)`` arrays (sorted keys, int64 counts)
        of every key with ``count >= min_support``; a packed table
        unpacks only these survivors."""
        self._merge()
        if self.packed:
            keys = self._table
            counts = keys & np.uint64((1 << self.shift) - 1)
        else:
            keys, counts = self._table
        if min_support > 1:
            keep = counts >= min_support
            keys, counts = keys[keep], counts[keep]
        if self.packed:
            return keys >> np.uint64(self.shift), counts.astype(np.int64)
        return keys, counts

    def blocks(self, min_support=1, *, min_len=1, max_len=None):
        """Yield ``(rank matrix, supports)`` for every key with
        ``count >= min_support`` and ``min_len <= length <= max_len``,
        decoded one length at a time by :func:`_rank_matrix`."""
        keys, counts = self.table(min_support)
        masks = keys.view(np.uint64).reshape(-1, self.words)
        lengths = _popcount(masks)
        for length in np.flatnonzero(np.bincount(lengths)).tolist():
            if length < min_len or (max_len is not None and length > max_len):
                continue
            rows = lengths == length
            yield _rank_matrix(masks[rows], length), counts[rows]

    def paths(self) -> dict[int, dict[RankPath, int]]:
        """The whole lattice as ``length -> {rank path -> frequency}``."""
        return {
            ranks.shape[1]: dict(zip(_tuples(ranks), supports.tolist()))
            for ranks, supports in self.blocks()
        }

    def vectors(self) -> dict[int, dict[PositionVector, int]]:
        """The whole lattice in the delta-vector shape: each rank path's
        first differences, taken on the rank matrix."""
        return {
            ranks.shape[1]: dict(zip(_tuples(np.diff(ranks, axis=1, prepend=0)), sups.tolist()))
            for ranks, sups in self.blocks()
        }


def _length(part) -> int:
    """Entries in a :class:`_Lattice` part of either layout."""
    return len(part) if isinstance(part, np.ndarray) else len(part[0])


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(rows, W)`` ``uint64`` mask matrix."""
    x = masks - ((masks >> 1) & _M1)
    x = (x & _M2) + ((x >> 2) & _M2)
    x = (x + (x >> 4)) & _M4
    return ((x * _H01) >> 56).sum(axis=1, dtype=np.int64)


def _rank_matrix(masks: np.ndarray, length: int) -> np.ndarray:
    """The ``(rows, length)`` ascending rank matrix of masks that all have
    ``length`` bits set.

    Vectorised over the rows: step ``k`` isolates every row's lowest set
    bit (``x & -x``), clears it, and turns it into rank
    ``64 * word + exponent`` (``frexp(2^b)`` has exponent ``b + 1``), which
    fills column ``k``.  ``masks`` is consumed.
    """
    rows = np.arange(len(masks))
    ranks = np.empty((len(masks), length), np.int64)
    for k in range(length):
        word = (masks != 0).argmax(axis=1)
        low = masks[rows, word]
        low &= -low
        masks[rows, word] ^= low
        ranks[:, k] = np.frexp(low.astype(np.float64))[1] + 64 * word
    return ranks


def _expand(bits, freqs, lattice: _Lattice, governor=None, base=None, held: int = 0) -> None:
    """Add every subset of every row of ``bits`` to ``lattice`` by doubling.

    ``bits`` is an ``(n, L, W)`` ``uint64`` array holding each row's ``L``
    items as one-bit masks, and ``freqs`` the rows' ``int64`` frequencies.
    Every subset mask is ORed onto ``base`` (``(n, W)``, a per-row tag)
    when it is given; without it the all-zero key, the empty set, is
    dropped.  Rows go through in chunks of ``_CHUNK_SUBSETS`` generated
    subsets, each aggregated by :meth:`_Lattice.chunk` at its own count
    width; each chunk charges its ``n (2^L - 1)`` non-empty subsets to the
    governor and to the ``topdown_work_items`` counter (its buffers
    declared on top of ``held``).
    """
    counters = _COUNTERS
    n, length, words = bits.shape
    span = 1 << length
    step = max(1, _CHUNK_SUBSETS >> length)
    starts = range(0, n, step)
    # each frequency is below 2^shift, so a chunk's sum is below
    # 2^(shift + bit_length(step)): exact in int64 up to 63 bits, and
    # taken in Python integers beyond
    if lattice.shift + step.bit_length() <= 63:
        totals = np.add.reduceat(freqs, starts).tolist()
    else:
        totals = [sum(freqs[start : start + step].tolist()) for start in starts]
    buf = np.empty(min(step, n) * span * words, np.uint64)
    for start, total in zip(starts, totals):
        stop = min(start + step, n)
        work = (stop - start) * (span - 1)
        if governor is not None:
            governor.hold(held + lattice.nbytes + buf.nbytes + bits.nbytes)
            governor.tick(work)
        tags = None if base is None else base[start:stop]
        lattice.add(lattice.chunk(bits[start:stop], freqs[start:stop], total, tags, buf))
        if counters.enabled:
            counters.add("topdown_work_items", work)
