"""Algorithm 2 — the top-down PLT miner.

The top-down approach materialises the frequency of **every** subset of
every transaction (Figure 4 of the paper), then filters by support.  It is
exponential in transaction length by design; the paper positions it for
very low support thresholds on short-transaction data, where the frequent
set approaches the full subset lattice anyway and anti-monotone pruning
buys nothing.

No-duplication discipline
-------------------------
A subset of transaction ``T = {x0 < ... < x_{k-1}}`` is generated exactly
once by composing the paper's two subset rules (Lemma 4.1.3) canonically:

1. *Prefix seeding* ("part A", folded into construction exactly as the
   paper suggests): for every stored vector, all of its prefixes are
   seeded.  The prefix ending at the subset's **maximal** item is the
   subset's unique ancestor.
2. *Left-shifting merges* ("part B", Algorithm 2's shift discipline):
   interior items are removed by consecutive-position merges at strictly
   **decreasing** indices.  Every work item carries a merge *cursor*
   ``limit`` — merges are only allowed at 0-based indices ``< limit``; a
   child created by merging at index ``i`` gets ``limit = i``.

Any subset has exactly one (prefix, decreasing-merge-sequence)
decomposition, so every (transaction, subset) pair contributes its
frequency exactly once.

Hot-path engine
---------------
:func:`_subset_byte_frequencies` runs the pass on **rank paths**
(cumulative-sum tuples, Lemma 4.1.1, precomputed at PLT construction)
packed into native-int ``bytes`` keys: removing item ``i`` is a
two-slice memcpy instead of the delta-space merge's three-part
concatenation with an addition, and key hashing is one pass over a flat
buffer rather than per-element integer hashing.  Three further
structural savings over the seed-era two-part formulation:

* **Fused parts** — prefix seeding threads through the same
  descending-length sweep as merge expansion (a per-length *chain* table),
  so stored vectors that share a prefix converge *before* shorter prefixes
  are sliced and each shared prefix tuple is materialised once, not once
  per ancestor.
* **Cursor grouping** — work items are aggregated ``vector -> {cursor ->
  frequency}``; a vector reached with several different cursors expands
  its children once, each child receiving the suffix-summed frequency of
  every cursor that allows it (identical aggregation semantics, far fewer
  tuple constructions and table updates).
* **Local binding** — the per-length target tables are bound to locals
  around the hot loops; no ``setdefault`` or closure calls remain on the
  per-subset path.

:func:`topdown_subset_frequencies` keeps the historical delta-vector
result shape by converting the path table once at the end.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Mapping

from repro.core.plt import PLT
from repro.core.position import PositionVector, RankPath, path_to_vector
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


def estimate_topdown_work(plt: PLT) -> int:
    """Upper bound on subset generation events: sum of 2^len per vector.

    Aggregation across identical ``(vector, cursor)`` work items usually
    keeps the real cost far below this, but the bound is what protects the
    process from pathological inputs.

    Saturates at :data:`WORK_ESTIMATE_CAP`: once the running bound crosses
    the cap the function returns the cap itself rather than whatever
    partial sum the loop had reached, so the work-limit guard compares
    against a well-defined sentinel and can never under-estimate by
    reporting a partially-accumulated total as if it covered every
    partition.
    """
    total = 0
    for length, bucket in plt.partitions.items():
        total += (2**length - 1) * len(bucket)
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


#: Byte width of one rank in the packed-path keys of the byte engine.
_RANK_ITEMSIZE = array("I").itemsize


def _decode_path(pb: bytes) -> RankPath:
    """Unpack a packed-path key back into a rank-path tuple."""
    return tuple(array("I", pb))


def _subset_byte_frequencies(plt: PLT, governor=None) -> dict[int, dict[bytes, int]]:
    """The top-down engine on packed-``bytes`` path keys.

    Rank paths are packed into native unsigned-int ``bytes`` strings: a
    child deletion is then one slice-and-concatenate memcpy, hashing is a
    single pass over the buffer instead of per-element integer hashing,
    and merge cursors live directly in byte units so the hot loop does no
    index arithmetic at all.  The result maps ``length -> {packed path ->
    frequency}``; callers that need tuples decode with
    :func:`_decode_path` (ideally after support filtering, so only
    survivors pay the decode).
    """

    def packed():
        for path, freq in plt.iter_rank_paths():
            yield array("I", path).tobytes(), freq

    return _subset_byte_frequencies_packed(packed(), governor=governor)


def topdown_flat_slice(
    flat, start: int, end: int, *, governor=None, singletons: bool = True
) -> dict[int, dict[bytes, int]]:
    """Top-down engine over stored paths ``[start, end)`` of a FlatPLT.

    The flat ``ranks`` column uses the engine's own key encoding, so a
    seed is one ``tobytes()`` slice off shared memory — no RankPath tuple
    is ever materialised.  Returns the packed per-length table (partial
    sums; slices over the same structure merge by addition).

    Shared-memory parallel workers pass ``singletons=False``: their
    partial length-1 sums are redundant — the driver reconstitutes that
    level exactly from :meth:`FlatPLT.rank_supports` — and dropping them
    cuts the widest level of the lattice out of every result pickle.
    """
    off, ranks, freqs = flat.path_offsets, flat.ranks, flat.freqs

    def packed():
        for p in range(start, end):
            yield ranks[off[p] : off[p + 1]].tobytes(), freqs[p]

    counts = _subset_byte_frequencies_packed(packed(), governor=governor)
    if not singletons:
        counts.pop(1, None)
    return counts


def _subset_byte_frequencies_packed(
    packed_pairs, governor=None
) -> dict[int, dict[bytes, int]]:
    """Engine core, seeded from an iterable of ``(packed path, freq)``.

    Packed paths must be distinct (both sources — the PLT's interned
    index and a FlatPLT path slice — guarantee it).
    """
    counters = _COUNTERS
    counts: dict[int, dict[bytes, int]] = defaultdict(dict)
    if governor is not None:
        # expose the live table so mine_topdown can salvage the lengths
        # already finalized if a budget trips mid-sweep (private key,
        # popped by the driver before progress reaches any caller)
        governor.start()
        governor.progress["_topdown_counts"] = counts
    # merge work: length -> {path -> {cursor -> frequency}}; cursors are
    # byte offsets — a child cut at offset o inherits the summed
    # frequency of every cursor > o and carries cursor o itself
    merge_work: dict[int, dict[bytes, dict[int, int]]] = defaultdict(dict)
    # prefix chains: length -> {path -> frequency}; entries are already
    # counted and owe (a) their full merge fan-out, (b) their next prefix
    chain_work: dict[int, dict[bytes, int]] = defaultdict(dict)

    isz = _RANK_ITEMSIZE
    top = 0
    for pb, freq in packed_pairs:
        length = len(pb) // isz
        counts[length][pb] = freq  # packed paths are distinct
        if length >= 2:
            chain = chain_work[length]
            chain[pb] = chain.get(pb, 0) + freq
        if length > top:
            top = length

    tick = governor.tick if governor is not None else None
    length = top
    while length >= 2:
        if governor is not None:
            # counts[L] for L >= the in-flight length are final: processing
            # this length only writes into counts[length - 1]
            governor.progress["sweep_length"] = length
            governor.tick()
        child_len = length - 1
        # byte offset of the last item — also the full-freedom cursor
        # (every deletion offset is strictly below it)
        cut = isz * child_len
        chain = chain_work.pop(length, None)
        if chain:
            if tick is not None:
                tick(len(chain))
            if counters.enabled:
                counters.add("topdown_chain_prefixes", len(chain))
            mw = merge_work[length]
            mw_get = mw.get
            ccounts = counts[child_len]
            ccounts_get = ccounts.get
            cchain = chain_work[child_len] if child_len >= 2 else None
            for pb, freq in chain.items():
                # (a) full-freedom merges for this prefix
                cursors = mw_get(pb)
                if cursors is None:
                    mw[pb] = {cut: freq}
                else:
                    cursors[cut] = cursors.get(cut, 0) + freq
                # (b) the next-shorter prefix: counted here, chained on
                prefix = pb[:cut]
                ccounts[prefix] = ccounts_get(prefix, 0) + freq
                if cchain is not None:
                    cchain[prefix] = cchain.get(prefix, 0) + freq
        bucket = merge_work.pop(length, None)
        if bucket:
            if counters.enabled:
                counters.add("topdown_work_vectors", len(bucket))
                counters.add(
                    "topdown_work_items", sum(len(c) for c in bucket.values())
                )
            ccounts = counts[child_len]
            ccounts_get = ccounts.get
            # child_len >= 2 whenever the o > 0 push below can trigger
            # (length == 2 only ever cuts at offset 0), so cmw is never
            # dereferenced while None
            cmw = merge_work[child_len] if child_len >= 2 else None
            cmw_get = cmw.get if cmw is not None else None
            for pb, cursors in bucket.items():
                # expand once per vector: the child cut at offset o gets
                # the total frequency of every cursor allowing it (> o);
                # the o == 0 child is peeled off the loops since it is
                # never pushed (no merge freedom left) and needs no
                # prefix slice
                if tick is not None:
                    tick(child_len)
                if len(cursors) == 1:
                    ((limit, running),) = cursors.items()
                    for o in range(limit - isz, 0, -isz):
                        child = pb[:o] + pb[o + isz :]
                        ccounts[child] = ccounts_get(child, 0) + running
                        ccursors = cmw_get(child)
                        if ccursors is None:
                            cmw[child] = {o: running}
                        else:
                            ccursors[o] = ccursors.get(o, 0) + running
                else:
                    ordered = sorted(cursors.items(), reverse=True)
                    limit, running = ordered[0]
                    starts = ordered[1:]
                    ptr = 0
                    n_starts = len(starts)
                    for o in range(limit - isz, 0, -isz):
                        while ptr < n_starts and starts[ptr][0] > o:
                            running += starts[ptr][1]
                            ptr += 1
                        child = pb[:o] + pb[o + isz :]
                        ccounts[child] = ccounts_get(child, 0) + running
                        ccursors = cmw_get(child)
                        if ccursors is None:
                            cmw[child] = {o: running}
                        else:
                            ccursors[o] = ccursors.get(o, 0) + running
                    # every cursor is a positive byte offset, so all
                    # stragglers apply at o == 0
                    while ptr < n_starts:
                        running += starts[ptr][1]
                        ptr += 1
                child = pb[isz:]
                ccounts[child] = ccounts_get(child, 0) + running
        length -= 1
    # drop defaultdict behaviour and any bucket the sweep only peeked at
    return {length: bucket for length, bucket in counts.items() if bucket}


def topdown_subset_path_frequencies(
    plt: PLT, *, work_limit: int | None = DEFAULT_WORK_LIMIT
) -> dict[int, dict[RankPath, int]]:
    """Run the top-down pass; return all subset frequencies by length.

    The result maps ``length -> {rank path -> frequency}`` and contains
    every non-empty subset of every encoded transaction with its exact
    support — the state of Figure 4, keyed by rank paths.  Runs
    :func:`_subset_byte_frequencies` and decodes every key; support-
    filtering callers should prefer :func:`mine_topdown`, which decodes
    only the frequent survivors.

    Raises :class:`TopDownExplosionError` when the estimated work exceeds
    ``work_limit`` (pass ``None`` to disable the guard).
    """
    _check_work_limit(plt, work_limit)
    return {
        length: {_decode_path(pb): freq for pb, freq in bucket.items()}
        for length, bucket in _subset_byte_frequencies(plt).items()
    }


def topdown_subset_frequencies(
    plt: PLT, *, work_limit: int | None = DEFAULT_WORK_LIMIT
) -> dict[int, dict[PositionVector, int]]:
    """Top-down pass with the historical delta-vector result shape.

    Runs :func:`topdown_subset_path_frequencies` and converts each rank
    path back to its position vector (first differences) once at the end.
    Callers that only filter by support should prefer the path form — it
    is what :func:`mine_topdown` consumes directly.
    """
    path_counts = topdown_subset_path_frequencies(plt, work_limit=work_limit)
    return {
        length: {path_to_vector(path): freq for path, freq in bucket.items()}
        for length, bucket in path_counts.items()
    }


def mine_topdown(
    plt: PLT,
    min_support: int | None = None,
    *,
    max_len: int | None = None,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
    governor=None,
) -> list[tuple[tuple[int, ...], int]]:
    """Mine frequent itemsets with the top-down approach.

    Returns ``(rank_tuple, support)`` pairs like
    :func:`~repro.core.conditional.mine_conditional`, so the two miners are
    interchangeable behind the facade.  Works on the packed table
    directly — a decoded rank path *is* the sorted rank tuple — and only
    the frequent survivors pay the decode.

    When ``governor`` trips mid-sweep, the raised
    :class:`~repro.errors.MiningInterrupted` carries in ``partial`` the
    frequent pairs from every *finalized* length and
    ``progress["complete_min_len"]`` — all counts for subset lengths >=
    that value are final and exact.
    """
    if min_support is None:
        min_support = plt.min_support
    if min_support < 1:
        raise InvalidSupportError(f"absolute min_support must be >= 1, got {min_support}")
    _check_work_limit(plt, work_limit)
    try:
        counts = _subset_byte_frequencies(plt, governor=governor)
    except MiningInterrupted as exc:
        raw = governor.progress.pop("_topdown_counts", {}) if governor else {}
        sweep_length = governor.progress.get("sweep_length") if governor else None
        pairs: list[tuple[tuple[int, ...], int]] = []
        if sweep_length is not None:
            for length, bucket in raw.items():
                if length < sweep_length:
                    continue  # still receiving contributions — not exact
                if max_len is not None and length > max_len:
                    continue
                pairs.extend(
                    (_decode_path(pb), freq)
                    for pb, freq in bucket.items()
                    if freq >= min_support
                )
            exc.progress.setdefault("complete_min_len", sweep_length)
        exc.partial = pairs
        raise
    if governor is not None:
        governor.progress.pop("_topdown_counts", None)
    results: list[tuple[tuple[int, ...], int]] = []
    if governor is None:
        extend = results.extend
        for length, bucket in counts.items():
            if max_len is not None and length > max_len:
                continue
            extend(
                (_decode_path(pb), freq)
                for pb, freq in bucket.items()
                if freq >= min_support
            )
        return results
    try:
        for length, bucket in counts.items():
            for pb, freq in bucket.items():
                if freq >= min_support and (max_len is None or length <= max_len):
                    # cap check first so partials never exceed max_itemsets
                    governor.note_itemsets()
                    results.append((_decode_path(pb), freq))
    except MiningInterrupted as exc:
        exc.partial = results
        raise
    return results


def subset_frequencies_flat(
    counts: Mapping[int, Mapping[PositionVector, int]]
) -> dict[PositionVector, int]:
    """Flatten the per-length table (convenience for tests and rendering)."""
    return {vec: f for bucket in counts.values() for vec, f in bucket.items()}
