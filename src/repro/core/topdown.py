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
buffer.  The table the chunks merge into has one key layout, which
:class:`~repro.core.lattice._Lattice` picks once from ``top`` and the
summed path frequency ``T``: packed ``mask << c | count`` in one
``uint64`` when ``top + c <= 64`` (``c = bit_length(T)``), ``(keys,
counts)`` records otherwise.  Each chunk is aggregated in a layout of its
own:

* **Packed** (``top + w <= 64``, ``w`` the bit length of the chunk's own
  summed row frequency, at most ``c``): a subset is ``mask << w |
  count``, one ``uint32`` when ``top + w <= 32`` and one ``uint64``
  otherwise.  The one-bit masks are pre-shifted by ``w`` and each row's
  first cell holds its frequency, so the doubling's ORs copy the count
  into every subset without touching it.  A chunk is one ``np.sort`` of
  that column, then a sum of the low ``w`` bits over each run of equal
  high bits.  No key in the chunk sums past the chunk's total, which is
  below ``2^w``, so a sum never carries into the key.  The collapsed
  chunk is re-spaced to the table's ``c`` count bits (or split into
  records) before it is queued.
* **Record** (wider keys): an ``argsort`` of the masks (``uint64`` when
  ``W == 1``, ``8 W``-byte ``np.void`` records otherwise) and an
  ``np.add.reduceat`` of the gathered ``int64`` counts.

Queued chunk tables are merged into the lattice once they outnumber both
the merged table and ``_MERGE_FLOOR`` entries, or when it is read, so
merging stays ``O(N log N)`` overall and a small lattice merges once.
Only keys that survive the support (and ``max_len``) filter are unpacked
and decoded back to rank tuples, vectorised per length.

A path of length ``L`` has no subset longer than ``L``: once every path
longer than ``L`` has been swept, all subset counts of length ``> L`` are
final.  That is the governed-partial guarantee (``sweep_length``,
``complete_min_len``); the governor is checked between chunks.

Shared-memory workers run the same kernel over a
:class:`~repro.core.flat.FlatPLT` path slice
(:func:`topdown_flat_slice`).  Every worker and the merging driver
derive the same table layout from the same FlatPLT (:func:`_flat_lattice`),
so the slices' tables merge by the same aggregation.  The kernel lives in
:mod:`repro.core.lattice`: the doubling is one function,
:func:`~repro.core.lattice._expand`, which Algorithm 3's lattice leaves
(:func:`repro.core.conditional._lattice_leaves`) call too, on keys that
carry the conditional database's rank above the mask.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.columns import RankColumns
from repro.core.lattice import _expand, _Lattice
from repro.core.plt import PLT
from repro.core.position import PositionVector, RankPath
from repro.data.transaction_db import check_max_len
from repro.errors import InvalidSupportError, MiningInterrupted, TopDownExplosionError

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


def _flat_lattice(flat) -> _Lattice:
    """An empty lattice for the subsets of ``flat``'s stored paths.

    The layout follows from ``flat`` alone (its top rank and summed path
    frequency), so the workers expanding slices of one FlatPLT and the
    driver merging their parts pick the same one.
    """
    # an exact Python sum: a uint64 sum would wrap on huge weights
    return _Lattice(flat.max_rank, sum(flat.freqs))


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
