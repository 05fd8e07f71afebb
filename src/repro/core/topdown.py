"""Algorithm 2 — the top-down PLT miner.

The top-down approach materialises the frequency of **every** subset of
every transaction (Figure 4 of the paper), then filters by support.  It is
exponential in transaction length by design; the paper positions it for
very low support thresholds on short-transaction data, where the frequent
set approaches the full subset lattice anyway and anti-monotone pruning
buys nothing.

Subset-lattice kernel
---------------------
By Lemma 4.1.1 a stored rank path *is* its itemset, so the kernel keys
every itemset by a bitmask: rank ``r`` is bit ``r - 1`` of a key of
``W = ceil(top / 64)`` ``uint64`` words.  A path of ``L`` items has its
``2^L`` subset masks written into one row by doubling::

    sub[0] = 0;   sub[n:2n] = sub[:n] | bit_j   (n = 2^j, j = 0 .. L-1)

After step ``j`` the cell at index ``k < 2^(j+1)`` is the union of the
path's items ``i <= j`` whose bit ``i`` is set in ``k``: the row is
binary counting over the path's positions.  Index and subset are in
bijection (the items are distinct, so distinct ``k`` select distinct
subsets), hence every (transaction, subset) pair is generated exactly
once and carries the path's frequency — the guarantee Lemma 4.1.3's shift
discipline gave by pairing each subset with one (prefix, decreasing-merge)
decomposition.  Index 0, the empty set, is dropped.

Paths are processed by length in descending order, in chunks of at most
``_CHUNK_SUBSETS`` generated subsets written into one preallocated
``(rows, 2^L, W)`` array.  How a chunk is aggregated depends on the key
layout, which :class:`_Lattice` picks once from ``top`` and the summed
path frequency ``T``.  With ``c = bit_length(T)``:

* **Packed** (``top + c <= 64``): a subset is one ``uint64``,
  ``mask << c | count``.  The one-bit masks are pre-shifted by ``c`` and
  each row's first cell holds its frequency, so the doubling's ORs copy
  the count into every subset without touching it.  A chunk is one
  ``np.sort`` of that column, then a sum of the low ``c`` bits over each
  run of equal high bits.  No key's count exceeds ``T < 2^c``, so a sum
  never carries into the key.
* **Record** (wider keys): an ``argsort`` of the masks (``uint64`` when
  ``W == 1``, ``8 W``-byte ``np.void`` records otherwise) and an
  ``np.add.reduceat`` of the gathered ``int64`` counts.

Either way chunk tables are merged into the lattice only once the
unmerged entries outnumber the merged table, so merging stays
``O(N log N)`` overall.  Only keys that survive the support (and
``max_len``) filter are unpacked and decoded back to rank tuples,
vectorised per length.

A path of length ``L`` has no subset longer than ``L``: once every path
longer than ``L`` has been swept, all subset counts of length ``> L`` are
final.  That is the governed-partial guarantee (``sweep_length``,
``complete_min_len``); the governor is checked between chunks.

Shared-memory workers run the same kernel over a
:class:`~repro.core.flat.FlatPLT` path slice
(:func:`topdown_flat_slice`).  Every worker and the merging driver
derive the same layout from the same FlatPLT (:func:`_flat_lattice`), so
the slices' tables merge by the same aggregation.  The doubling itself
is one function, :func:`_expand`, which Algorithm 3's lattice leaves
(:func:`repro.core.conditional._lattice_leaves`) call too, on keys that
carry the conditional database's rank above the mask.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.columns import RankColumns, _tuples
from repro.core.plt import PLT
from repro.core.position import PositionVector, RankPath
from repro.data.transaction_db import check_max_len
from repro.errors import InvalidSupportError, MiningInterrupted, TopDownExplosionError
from repro.perf.counters import COUNTERS as _COUNTERS

__all__ = [
    "topdown_subset_frequencies",
    "topdown_subset_path_frequencies",
    "topdown_flat_slice",
    "mine_topdown",
    "estimate_topdown_work",
    "DEFAULT_WORK_LIMIT",
    "WORK_ESTIMATE_CAP",
]

#: Default ceiling on generated subset-work items before aggregation savings.
DEFAULT_WORK_LIMIT = 20_000_000

#: Saturation value returned by :func:`estimate_topdown_work` once the true
#: bound exceeds it.  Any practical ``work_limit`` is far below this, so a
#: capped estimate always trips the guard; callers must treat the value as
#: "at least this much", never as an exact count.
WORK_ESTIMATE_CAP = 1 << 62

#: Subsets generated per chunk: a chunk of length-``L`` paths holds
#: ``max(1, _CHUNK_SUBSETS >> L)`` rows, which bounds the kernel's
#: temporaries independently of the input size.
_CHUNK_SUBSETS = 1 << 16

#: SWAR popcount constants (see :func:`_popcount`).
_M1, _M2, _M4, _H01 = map(
    np.uint64,
    (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101),
)


def estimate_topdown_work(plt: PLT) -> int:
    """Subset generation events: ``2^len - 1`` summed over stored vectors.

    This is exactly the number of (path, subset) occurrences the lattice
    kernel generates (the ``topdown_work_items`` counter) before they
    aggregate into distinct itemsets, and the bound that protects the
    process from pathological inputs.

    Saturates at :data:`WORK_ESTIMATE_CAP`: once the running bound crosses
    the cap the function returns the cap itself rather than whatever
    partial sum the loop had reached, so the work-limit guard compares
    against a well-defined sentinel and can never under-estimate by
    reporting a partially-accumulated total as if it covered every
    partition.
    """
    offsets = plt.flat.as_numpy()["path_offsets"].astype(np.int64)
    lengths = np.bincount(np.diff(offsets))
    total = 0
    for length in np.flatnonzero(lengths).tolist():
        total += (2**length - 1) * int(lengths[length])
        if total > WORK_ESTIMATE_CAP:
            return WORK_ESTIMATE_CAP
    return total


def _check_work_limit(plt: PLT, work_limit: int | None) -> None:
    if work_limit is None:
        return
    estimate = estimate_topdown_work(plt)
    if estimate > work_limit:
        raise TopDownExplosionError(
            f"top-down pass would generate up to {estimate} subset events "
            f"(work_limit={work_limit}); use the conditional miner or raise "
            f"the limit"
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
    ``shift`` bits.

    The caller guarantees that no key's summed count reaches
    ``2^shift``, so the sums never carry into the key bits.
    """
    if len(col) == 0:
        return col
    col.sort(kind=kind)
    low = np.uint64((1 << shift) - 1)
    first = np.empty(len(col), bool)
    first[0] = True
    # the high bits differ exactly where the XOR exceeds the count mask
    np.greater(col[1:] ^ col[:-1], low, out=first[1:])
    starts = np.flatnonzero(first)
    return (col[starts] & ~low) | np.add.reduceat(col & low, starts)


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
    """

    def __init__(self, key_bits: int, total: int) -> None:
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

    def heads(self, freqs: np.ndarray, base=None) -> np.ndarray:
        """The ``(n, W)`` first cell of each of :func:`_expand`'s rows: the
        ``base`` tag (zero without one), and in the packed layout the
        row's frequency below it."""
        if not self.packed:
            return np.zeros((len(freqs), self.words), np.uint64) if base is None else base
        head = freqs.astype(np.uint64)[:, None]
        if base is not None:
            head |= base << np.uint64(self.shift)
        return head

    def chunk(self, sub: np.ndarray, freqs: np.ndarray, drop_empty: bool):
        """The aggregated part of one contiguous ``(rows, 2^L, W)`` chunk of
        :func:`_expand`'s subsets (``freqs``: the rows' frequencies).
        ``drop_empty`` drops the all-zero key, the empty set, which then
        sorts first."""
        if self.packed:
            part = _collapse(sub.ravel(), self.shift)
            return part[1:] if drop_empty else part
        keys, counts = _aggregate(
            sub.reshape(-1, self.words).view(self.dtype).ravel(),
            np.repeat(freqs, sub.shape[1]),
            self.words,
        )
        return (keys[1:], counts[1:]) if drop_empty else (keys, counts)

    def add(self, part) -> None:
        """Queue one part; merge once the queue outgrows the merged table."""
        self._pending.append(part)
        self._pending_n += _length(part)
        if self._pending_n > _length(self._table):
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


def _flat_lattice(flat) -> _Lattice:
    """An empty lattice for the subsets of ``flat``'s stored paths.

    The layout follows from ``flat`` alone (its top rank and summed path
    frequency), so the workers expanding slices of one FlatPLT and the
    driver merging their parts pick the same one.
    """
    # an exact Python sum: a uint64 sum would wrap on huge weights
    return _Lattice(flat.max_rank, sum(flat.freqs))


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


def _plt_lattice(plt: PLT, governor=None) -> _Lattice:
    """The whole subset lattice of a PLT's stored paths."""
    flat = plt.flat
    return _sweep(flat.paths_by_length(), _flat_lattice(flat), governor)


def _sweep(groups, lattice: _Lattice, governor=None) -> _Lattice:
    """Add every non-empty subset of every grouped path to ``lattice``."""
    words = lattice.words
    for length in sorted(groups, reverse=True):
        mat, freqs = groups[length]
        if governor is not None:
            # subsets longer than `length` come only from the longer paths
            # already swept, so their counts are final from here on
            governor.progress["sweep_length"] = length + 1
        pos = mat - 1
        bits = np.zeros((len(mat), length, words), np.uint64)
        rows, cols = np.indices(mat.shape)
        bits[rows, cols, pos >> 6] = np.uint64(1) << (pos & 63).astype(np.uint64)
        _expand(bits, freqs, lattice, governor)
    return lattice


def _expand(bits, freqs, lattice: _Lattice, governor=None, base=None, held: int = 0) -> None:
    """Add every subset of every row of ``bits`` to ``lattice`` by doubling.

    ``bits`` is an ``(n, L, W)`` ``uint64`` array holding each row's ``L``
    items as one-bit masks, and ``freqs`` the rows' frequencies.  Every
    subset mask is ORed onto ``base`` (``(n, W)``, a per-row tag) when it
    is given; without it the all-zero key, the empty set, is dropped.
    In the packed layout the masks are shifted above the count bits and
    each row's first cell carries its frequency, which the doubling's ORs
    copy into every subset.  Rows go through in chunks of
    ``_CHUNK_SUBSETS`` generated subsets; each chunk charges its
    ``n (2^L - 1)`` non-empty subsets to the governor and to the
    ``topdown_work_items`` counter (its buffers declared on top of ``held``).
    """
    counters = _COUNTERS
    n, length, words = bits.shape
    span = 1 << length
    step = max(1, _CHUNK_SUBSETS >> length)
    heads = lattice.heads(freqs, base)
    if lattice.packed:
        bits = bits << np.uint64(lattice.shift)
    buf = np.empty((min(step, n), span, words), np.uint64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        work = (stop - start) * (span - 1)
        if governor is not None:
            governor.hold(held + lattice.nbytes + buf.nbytes + bits.nbytes)
            governor.tick(work)
        sub = buf[: stop - start]
        sub[:, 0] = heads[start:stop]
        for j in range(length):
            half = 1 << j
            np.bitwise_or(
                sub[:, :half], bits[start:stop, j, None, :], out=sub[:, half : 2 * half]
            )
        lattice.add(lattice.chunk(sub, freqs[start:stop], drop_empty=base is None))
        if counters.enabled:
            counters.add("topdown_work_items", work)


def topdown_flat_slice(flat, start: int, end: int):
    """Subset lattice of stored paths ``[start, end)`` of a FlatPLT.

    Returns the kernel's merged table as one :class:`_Lattice` part (a
    packed ``uint64`` column, or ``(keys, counts)`` for keys too wide to
    pack): partial sums over this slice, which merge with other slices of
    the same structure by :meth:`_Lattice.add` on :func:`_flat_lattice`.
    """
    return _sweep(flat.paths_by_length(start, end), _flat_lattice(flat)).column()


def topdown_subset_path_frequencies(
    plt: PLT, *, work_limit: int | None = DEFAULT_WORK_LIMIT
) -> dict[int, dict[RankPath, int]]:
    """Run the top-down pass; return all subset frequencies by length.

    The result maps ``length -> {rank path -> frequency}`` and contains
    every non-empty subset of every encoded transaction with its exact
    support — the state of Figure 4, keyed by rank paths.  This decodes
    the whole lattice; support-filtering callers should prefer
    :func:`mine_topdown`, which decodes only the frequent survivors.

    Raises :class:`TopDownExplosionError` when the estimated work exceeds
    ``work_limit`` (pass ``None`` to disable the guard).
    """
    _check_work_limit(plt, work_limit)
    return _plt_lattice(plt).paths()


def topdown_subset_frequencies(
    plt: PLT, *, work_limit: int | None = DEFAULT_WORK_LIMIT
) -> dict[int, dict[PositionVector, int]]:
    """Top-down pass with the historical delta-vector result shape.

    Same lattice as :func:`topdown_subset_path_frequencies`, with each
    rank path converted back to its position vector (first differences).
    Callers that only filter by support should prefer the path form — it
    is what :func:`mine_topdown` consumes directly.
    """
    _check_work_limit(plt, work_limit)
    return _plt_lattice(plt).vectors()


def mine_topdown(
    plt: PLT,
    min_support: int | None = None,
    *,
    max_len: int | None = None,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
    governor=None,
) -> RankColumns:
    """Mine frequent itemsets with the top-down approach.

    Returns a :class:`~repro.core.columns.RankColumns` like
    :func:`~repro.core.conditional.mine_conditional` (iterating it gives
    ``(rank_tuple, support)`` pairs), so the two miners are
    interchangeable behind the facade.  Only the frequent survivors of
    the lattice are decoded, one rank matrix per length — a decoded mask
    *is* the sorted rank tuple.

    When ``governor`` trips mid-sweep, the raised
    :class:`~repro.errors.MiningInterrupted` carries in ``partial`` the
    frequent itemsets of every *finalized* length and
    ``progress["complete_min_len"]`` — all counts for subset lengths >=
    that value are final and exact.  After the sweep every count is
    final: the survivors are charged to the itemset cap at once, and a
    cap trip keeps the first ``max_itemsets`` of them.
    """
    if min_support is None:
        min_support = plt.min_support
    if min_support < 1:
        raise InvalidSupportError(f"absolute min_support must be >= 1, got {min_support}")
    check_max_len(max_len)
    _check_work_limit(plt, work_limit)
    lattice = _flat_lattice(plt.flat)
    if governor is not None:
        governor.start()
    try:
        _sweep(plt.flat.paths_by_length(), lattice, governor)
    except MiningInterrupted as exc:
        sweep_length = governor.progress["sweep_length"]
        exc.partial = RankColumns(
            lattice.blocks(min_support, min_len=sweep_length, max_len=max_len)
        )
        exc.progress.setdefault("complete_min_len", sweep_length)
        raise
    out = RankColumns(lattice.blocks(min_support, max_len=max_len))
    if governor is not None:
        try:
            governor.note_itemsets(len(out))
        except MiningInterrupted as exc:
            exc.partial = out.cut(n=governor.budget.max_itemsets)
            raise
    return out


def subset_frequencies_flat(
    counts: Mapping[int, Mapping[PositionVector, int]]
) -> dict[PositionVector, int]:
    """Flatten the per-length table (convenience for tests and rendering)."""
    return {vec: f for bucket in counts.values() for vec, f in bucket.items()}
