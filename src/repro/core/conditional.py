"""Algorithm 3 — the conditional (pattern-growth) PLT miner.

The paper's conditional approach processes items in *decreasing* rank
order.  For item ``j``:

1. Its conditional database is exactly the vectors whose sum equals ``j``
   (the sum index makes this a dictionary lookup — this is the paper's
   "easy identification of the conditional structure" claim).
2. The support of the current pattern extended by ``j`` is the total
   frequency of that bucket.
3. Each bucket vector's prefix (last position dropped, Lemma 4.1.3a) is
   simultaneously

   * **migrated** back into the enclosing structure, so that lower-ranked
     items later receive the counts of transactions whose maximal item was
     ``j`` — the paper's ``Update PLT with V'`` step, performed
     *unconditionally* (even when ``j`` itself is infrequent), and
   * **added to the conditional database** ``CD_j``.

4. If the extension is frequent, a *conditional PLT* is built from
   ``CD_j`` by removing locally-infrequent items from every vector
   and the procedure descends.

Rank paths
----------
The sweeps here work on **rank paths** — each vector's cumulative-sum
tuple (Lemma 4.1.1), which the PLT stores directly.  On this
representation every per-vector quantity Algorithm 3 needs is O(1)
instead of O(k):

* the sum-index bucket key is ``path[-1]`` (no ``sum(vec)``),
* a prefix's destination bucket is ``path[-2]`` (no re-summing after the
  drop-last step), and
* removing locally-infrequent items is a plain membership filter over the
  path (no consecutive-position merging arithmetic).

One consume step (:func:`_consume_path_bucket`) serves every sweep that
still holds path dicts: the out-of-core store, the parallel task
partitioner, and :func:`iter_conditional`, the visitor the closed,
maximal, top-k and constraint miners share (the one recursion left).
Delta vectors appear only at the edges where the paper puts them:
:func:`conditional_database` returns Figure 5's delta view, and
:func:`mine_conditional_block` converts the delta-keyed conditional
databases that the distributed slice exchange ships.

One array kernel
----------------
Frequent-itemset mining runs as array code on two entries.  The top
level (:func:`mine_conditional_flat_range`, the serial miner and every
shared-memory worker) runs on the pairwise support matrix
(:func:`_matrix_mine`); a rank space too wide for the dense matrix is
mined in rank strips, highest first, each with its own strip of the
matrix (:data:`_PAIR_MATRIX_MAX_CELLS` bounds it).  Every conditional
database that arrives on its own — a serve ``topk`` miss, a distributed
block, a store bucket, a parallel task — goes in as rows
(:func:`mine_conditional_rows`).

At the top level each rank's ``CD_j`` is mined one of two ways.  The paper
suits Algorithm 2 (every subset of every transaction) to short
transactions; once ``CD_j`` is projected onto its locally frequent
ranks, a small one is cheapest to enumerate whole:
:func:`_lattice_leaves` keys each of its distinct rows by one ``uint64``
(``j`` in the high bits, a local bit mask below) and runs the top-down
subset kernel (:func:`repro.core.topdown._expand`) over every such rank
in one batch.  The switch compares the lattice's subsets with a lower
bound on the tidsets' work, scaled by a measured cost ratio
(:data:`_LATTICE_COST_RATIO`); there is no option to set.  Every other
rank is mined on the vertical layout the paper cites for this job
(dEclat's tidsets): :func:`_tidset_rows` gathers its rows from the path
matrices and :func:`_tidset_mine` grows its itemsets level by level, one
AND of packed tidsets per candidate.  The rows entry has no lattice
leaves: it hands its rows to the same tidset kernel.

Anti-monotone pruning is fully exploited: a conditional structure only
ever contains items that are frequent *together with* the current suffix.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from itertools import accumulate, chain

import numpy as _np

from repro.core.columns import RankColumns
from repro.core.flat import FlatPLT, exact_bincount
from repro.core.plt import PLT
from repro.core.position import PositionVector, RankPath, path_to_vector
from repro.core.topdown import (
    _CHUNK_SUBSETS,
    _Lattice,
    _expand,
    _popcount,
    _rank_matrix,
)
from repro.data.transaction_db import check_max_len
from repro.errors import InvalidSupportError, MiningInterrupted
from repro.perf.counters import COUNTERS as _COUNTERS

__all__ = [
    "mine_conditional",
    "mine_conditional_rows",
    "mine_conditional_paths",
    "mine_conditional_block",
    "salvage",
    "mine_conditional_flat_range",
    "conditional_database",
    "iter_conditional",
]

PathBuckets = dict[int, dict[RankPath, int]]


def _check_min_support(min_support: int) -> None:
    if min_support < 1:
        raise InvalidSupportError(
            f"absolute min_support must be >= 1, got {min_support}"
        )


def _build_path_buckets(
    prefixes: dict[RankPath, int], min_support: int
) -> tuple[PathBuckets, list[int]]:
    """Build a conditional structure; also return its bucket *schedule*.

    The schedule is the locally-frequent ranks in descending order.  It is
    exact: every frequent rank's bucket exists by the time the mining loop
    reaches it (paths containing the rank survive the projection, and
    prefix migration deposits them at that key), and migration can never
    create a key outside the frequent set.  Iterating the schedule instead
    of counting down through every integer rank removes the dominant waste
    of the counter formulation — one dict probe per *possible* rank per
    structure — which profiling showed outnumbered real buckets ~6:1 on
    sparse data.
    """
    supports: dict[int, int] = defaultdict(int)
    for path, freq in prefixes.items():
        for r in path:
            supports[r] += freq
    min_s = min_support
    frequent = {r for r, s in supports.items() if s >= min_s}
    if not frequent:
        return {}, []
    buckets: PathBuckets = defaultdict(dict)
    if len(frequent) == len(supports):
        # nothing to filter: re-bucket the distinct paths as-is
        for path, freq in prefixes.items():
            buckets[path[-1]][path] = freq
    else:
        for path, freq in prefixes.items():
            kept = tuple([r for r in path if r in frequent])
            if kept:
                bucket = buckets[kept[-1]]
                bucket[kept] = bucket.get(kept, 0) + freq
    return dict(buckets), sorted(frequent, reverse=True)


def _consume_path_bucket(
    bucket: dict[RankPath, int], buckets: PathBuckets
) -> tuple[dict[RankPath, int], int]:
    """Migrate a bucket's prefixes into ``buckets``; return ``(CD_j, support)``.

    A prefix's destination bucket is ``path[-2]``; ``CD_j`` receives
    every prefix.
    """
    support = 0
    cd: dict[RankPath, int] = {}
    cd_get = cd.get
    buckets_get = buckets.get
    for path, freq in bucket.items():
        support += freq
        prefix = path[:-1]
        if prefix:
            key = prefix[-1]
            parent = buckets_get(key)
            if parent is None:
                buckets[key] = {prefix: freq}
            else:
                parent[prefix] = parent.get(prefix, 0) + freq
            cd[prefix] = cd_get(prefix, 0) + freq
    return cd, support


def conditional_database(
    plt: PLT, rank: int
) -> tuple[dict[PositionVector, int], int, dict[int, dict[PositionVector, int]]]:
    """Stand-alone form of the paper's ``Conditional_Construct`` for tests.

    Returns ``(CD_rank, support(rank), remaining_buckets)`` where
    ``remaining_buckets`` is the PLT's sum index *after* the bucket of
    ``rank`` was consumed and its prefixes migrated — i.e. the state of
    Figure 5(b).  Higher-ranked buckets must already have been processed
    for the support to be the true support; for the top rank this holds
    trivially.  The sweep runs on rank paths; only the returned values
    are delta vectors, the paper's notation for the figure.
    """
    buckets = plt.rank_path_index()
    for j in range(max(buckets, default=0), rank, -1):
        bucket = buckets.pop(j, None)
        if bucket is not None:
            _consume_path_bucket(bucket, buckets)
    bucket = buckets.pop(rank, None)
    cd, support = _consume_path_bucket(bucket, buckets) if bucket else ({}, 0)
    return (
        {path_to_vector(p): f for p, f in cd.items()},
        support,
        {k: {path_to_vector(p): f for p, f in b.items()} for k, b in buckets.items()},
    )


def mine_conditional_paths(
    prefixes: dict[RankPath, int],
    rank: int,
    min_support: int,
    out: list,
    max_len: int | None = None,
    governor=None,
) -> None:
    """:func:`mine_conditional_rows` over a ``{rank path: frequency}``
    ``CD_rank``, appending every ``(ascending rank tuple, support)`` pair
    to the list ``out``.

    ``prefixes`` is what :func:`_consume_path_bucket` returns and what the
    parallel partitioner bundles into tasks; each path becomes one row.
    On a budget trip ``out`` gets what was mined and is cut at the
    itemset cap, as :func:`salvage` cuts (every pair ``out`` held before
    was charged to the same governor), then the trip propagates.  Does
    *not* write ``(rank,)`` itself — top-level supports are known to the
    caller before the conditional database exists.
    """
    lengths = [len(path) for path in prefixes]
    columns = RankColumns()
    try:
        mine_conditional_rows(
            _np.repeat(_np.arange(len(lengths)), lengths),
            _np.fromiter(chain.from_iterable(prefixes), _np.int64, sum(lengths)),
            _np.fromiter(prefixes.values(), _np.int64, len(lengths)),
            rank, min_support, columns, max_len, governor,
        )
    except MiningInterrupted:
        out += columns.pairs()
        del out[governor.budget.max_itemsets or len(out) :]
        raise
    out += columns.pairs()


def mine_conditional_block(
    prefixes: dict[PositionVector, int],
    rank: int,
    min_support: int,
    report: Callable[[tuple[int, ...], int], object],
    max_len: int | None = None,
    governor=None,
) -> None:
    """:func:`mine_conditional_paths` over a delta-keyed ``CD_rank`` (the
    shape the distributed slice exchange ships between nodes), handing
    each ``(itemset, support)`` to ``report`` once mining stops (a budget
    trip reports what was mined, then propagates).  The delta vectors may
    hold ranks above ``rank``."""
    out: list = []
    try:
        paths = {tuple(accumulate(vec)): freq for vec, freq in prefixes.items()}
        mine_conditional_paths(paths, rank, min_support, out, max_len, governor)
    finally:
        for itemset, support in out:
            report(itemset, support)


def iter_conditional(
    buckets: PathBuckets,
    order: "range | list[int]",
    suffix: tuple[int, ...],
    floor: Callable[[], int],
    visit: Callable[[tuple[int, ...], int, PathBuckets], bool],
) -> None:
    """Algorithm 3 as a visitor, for miners that judge every pattern.

    Walks ``order`` (descending ranks) over ``buckets``, consuming each
    bucket with :func:`_consume_path_bucket`.  Every pattern
    ``(j,) + suffix`` whose support reaches ``floor()`` gets its
    conditional structure built at ``floor()`` and is passed to
    ``visit(itemset, support, sub_buckets)``; an empty ``sub_buckets``
    means the pattern has no frequent extension.  Returning False prunes
    the descent below the pattern.  ``floor`` is re-read at every bucket,
    so a threshold that rises while mining (top-k) prunes immediately.
    The closed, maximal, top-k and constraint miners are visits.
    """
    for j in order:
        bucket = buckets.pop(j, None)
        if bucket is None:
            continue
        cd, support = _consume_path_bucket(bucket, buckets)
        if support < floor():
            continue
        itemset = (j,) + suffix
        sub, sub_order = _build_path_buckets(cd, floor()) if cd else ({}, [])
        if visit(itemset, support, sub) and sub:
            iter_conditional(sub, sub_order, itemset, floor, visit)


#: Lattice-leaf switch (:func:`_lattice_leaves`): a top-level conditional
#: database is enumerated as a subset lattice when its subsets number at
#: most this many times its locally frequent ranks summed over its rows.
#: It is the ratio of two kernels' measured costs per work item; the
#: derivation is in docs/PERFORMANCE.md, "Lattice leaves".  That ratio was
#: priced against a Python path recursion, which the tidset kernel has
#: since replaced; it stays as it is until a dense ``plt`` benchmark
#: workload can price the lattice against the tidsets.
_LATTICE_COST_RATIO = 30

#: Cell ceiling for one strip of the pairwise support matrix: a strip of
#: ``h`` ranks holds ``h * (max_rank + 1)`` int64 counts, as does the
#: lattice leaves' ``onebit`` table (~16 MB at the cap).  A rank space
#: whose whole matrix fits is mined in one strip; a wider one in strips of
#: ``_PAIR_MATRIX_MAX_CELLS // (max_rank + 1)`` ranks.
_PAIR_MATRIX_MAX_CELLS = 2_000_000


def _pair_support_matrix(arrays, width: int, lo: int = 0, hi: int | None = None):
    """Rows ``[lo, hi)`` of the dense pairwise co-occurrence matrix over
    length-grouped path matrices (by default, all ``width`` of them).

    ``strip[j - lo, k]`` for ``j >= k`` is the exact support of ``{k, j}``
    (and of ``{j}`` at ``k = j``) — the local-frequency table the whole
    vectorised top level runs on.  Range restrictions never change these
    counts, so the whole matrix can be computed once and shared (the shm
    driver precomputes it into the segment rather than paying the
    bincount in every worker).

    Every length's lower-triangle ``(j, k)`` cell codes and row weights
    are written into one preallocated pair of columns for a single
    :func:`~repro.core.flat.exact_bincount`, so the int64 result is
    exact for any summed frequency below ``2**63``.  A strip drops the
    codes whose ``j`` lies outside it before the count.
    """
    if hi is None:
        hi = width
    pairs = {length: length * (length + 1) // 2 for length in arrays}
    size = sum(len(mat) * pairs[length] for length, (mat, _) in arrays.items())
    # no count exceeds the paths' summed frequency (a float64 sum reads
    # >= 2**53 exactly when the true one does); below 2**53, float64
    # weights spare exact_bincount a cast
    total = sum(ifreqs.sum(dtype=_np.float64) for _, ifreqs in arrays.values())
    codes = _np.empty(size, dtype=_np.int64)
    weights = _np.empty(size, dtype=_np.float64 if total < 2**53 else _np.int64)
    start = 0
    for length, (mat, ifreqs) in arrays.items():
        iidx, kidx = _np.tril_indices(length)
        stop = start + len(mat) * pairs[length]
        block = codes[start:stop].reshape(len(mat), pairs[length])
        _np.multiply(mat[:, iidx], width, out=block)
        block += mat[:, kidx]
        weights[start:stop].reshape(block.shape)[...] = ifreqs[:, None]
        start = stop
    cells = (hi - lo) * width
    if lo or hi < width:
        codes -= lo * width
        keep = (codes >= 0) & (codes < cells)
        codes, weights = codes[keep], weights[keep]
    return exact_bincount(codes, weights, cells, total).reshape(hi - lo, width)


def _leaf_rows(arrays, onebit, lo: int, keyable, mask_bits: int, total: int, governor=None):
    """The distinct rows of every keyable rank's ``CD_j``, as lattice keys.

    Every stored path truncated at column ``c >= 2`` is a row of
    ``CD_j`` for ``j = mat[:, c]``.  A row is keyed ``(j - lo) << M |
    mask`` with ``M = mask_bits``: ``onebit[j - lo, k]`` is ``k``'s
    one-bit mask among the locally frequent ranks of ``CD_j`` and zero
    for every other ``k``, including every ``k >= j``, so summing it over
    the *whole* path gives the row's mask with no per-column truncation.
    Rows with fewer than two locally frequent ranks are left out: they
    carry only pair supports, which the pair matrix already holds.
    Returns the sorted distinct keys and their summed frequencies (at
    most ``total``), aggregated by a :class:`~repro.core.topdown._Lattice`.
    """
    table = _Lattice((len(onebit) - 1).bit_length() + mask_bits, total)
    ushift = _np.uint64(mask_bits)
    width = onebit.shape[1]
    flatbit = onebit.ravel()
    keys, freqs = [], []
    for length, (mat, ifreqs) in arrays.items():
        if length < 3:
            continue
        rows, cols = _np.nonzero(keyable[mat[:, 2:]])
        step = max(1, _CHUNK_SUBSETS // length)
        for start in range(0, len(rows), step):
            r = rows[start : start + step]
            if governor is not None:
                governor.tick(len(r))
            j = mat[r, cols[start : start + step] + 2] - lo
            cells = mat[r]
            cells += (j * width)[:, None]
            # distinct one-bit masks: their sum is their union
            masks = flatbit.take(cells).sum(axis=1, dtype=_np.uint64)
            two = _np.flatnonzero(masks & (masks - _np.uint64(1)))
            keys.append((j[two].astype(_np.uint64) << ushift) | masks[two])
            freqs.append(ifreqs[r[two]])
    if keys:
        table.insert(_np.concatenate(keys), _np.concatenate(freqs))
    return table.table()


def _lattice_leaves(
    arrays, owner, franks, starts, lo: int, hi: int, width: int,
    min_support: int, max_len: int | None, governor=None,
):
    """Enumerate the cheap top-level conditional databases as subset lattices.

    ``franks[starts[j - lo] : starts[j - lo + 1]]`` are the locally
    frequent ranks of ``CD_j``, ascending, and ``owner`` is each entry's
    ``j - lo``.  A rank whose locally frequent ranks fit the key (at most
    ``64 - bit_length(width - 1)`` of them) takes the lattice when its
    distinct rows' subsets number at most :data:`_LATTICE_COST_RATIO`
    times their locally frequent ranks (``sum(2^K - 1) <= ratio *
    sum(K)``): ``sum(K)`` is a lower bound on any other way's work, so
    the lattice is only chosen where it is cheaper.  Every chosen rank's
    rows go through one batched :func:`~repro.core.topdown._expand`; the
    support of ``S + {j}`` is the summed frequency of the rows whose mask
    contains ``S``, so the kept keys are exact.

    A key is ``(j - lo) << M | mask``, where ``M`` is the largest local
    count of the keyable ranks (for the rows) or of the chosen ranks (for
    the lattice).  The key fits one word, and with the summed path
    frequency below it usually the packed layout of
    :class:`~repro.core.topdown._Lattice`.

    Returns ``(ranks, blocks)``: a bool array over ranks marking the
    lattice ranks, and one ``(itemsets, supports)`` block per itemset
    length above two — an int64 rank matrix, rows sorted by their last
    (maximal) rank, and the matching supports.
    """
    counts = _np.diff(starts)
    keyable = _np.zeros(width, bool)
    keyable[lo:hi] = (counts >= 2) & (counts <= 64 - (width - 1).bit_length())
    if not keyable.any():
        return keyable, []
    # bit b of rank j's mask is its b-th locally frequent rank (clipped to
    # the word: ranks with that many of them are not keyable)
    local = _np.arange(len(franks)) - starts[owner]
    onebit = _np.zeros((hi - lo, width), _np.uint64)
    onebit[owner, franks] = _np.uint64(1) << _np.minimum(local, 63).astype(_np.uint64)
    if governor is not None:
        governor.hold(onebit.nbytes)
    # no key's summed frequency exceeds the stored paths' total
    total = sum(int(ifreqs.sum()) for _, ifreqs in arrays.values())
    mask_bits = int(counts[keyable[lo:hi]].max())
    keys, freqs = _leaf_rows(arrays, onebit, lo, keyable, mask_bits, total, governor)
    ushift = _np.uint64(mask_bits)
    js = (keys >> ushift).astype(_np.int64)
    masks = keys & ((_np.uint64(1) << ushift) - _np.uint64(1))
    sizes = _popcount(masks[:, None])
    subsets = _np.bincount(js, weights=_np.exp2(sizes) - 1, minlength=hi - lo)
    first = _np.bincount(js, weights=sizes, minlength=hi - lo)
    chosen = (first > 0) & (subsets <= _LATTICE_COST_RATIO * first)
    ranks = _np.zeros(width, bool)
    ranks[lo:hi] = chosen
    take = chosen[js]
    if not take.any():
        return ranks, []
    js, masks, freqs, sizes = js[take], masks[take], freqs[take], sizes[take]
    mask_bits = int(counts[chosen].max())
    ushift = _np.uint64(mask_bits)
    lattice = _Lattice((hi - lo - 1).bit_length() + mask_bits, total)
    for size in _np.flatnonzero(_np.bincount(sizes)).tolist():
        rows = sizes == size
        rest = masks[rows]
        bits = _np.empty((len(rest), size, 1), _np.uint64)
        for b in range(size):
            lowest = rest & -rest
            bits[:, b, 0] = lowest
            rest ^= lowest
        base = js[rows].astype(_np.uint64) << ushift
        _expand(bits, freqs[rows], lattice, governor, base=base[:, None])
    keys, supports = lattice.table(min_support)
    masks = keys & ((_np.uint64(1) << ushift) - _np.uint64(1))
    js = (keys >> ushift).astype(_np.int64)
    lengths = _popcount(masks[:, None])
    top = None if max_len is None else max_len - 1
    blocks = []
    for size in _np.flatnonzero(_np.bincount(lengths)).tolist():
        if size < 2 or (top is not None and size > top):
            continue
        rows = lengths == size
        j = js[rows]
        pos = _rank_matrix(masks[rows][:, None], size) - 1
        itemsets = _np.column_stack((franks[starts[j][:, None] + pos], j + lo))
        blocks.append((itemsets, supports[rows]))
    return ranks, blocks


def _matrix_mine(
    arrays,
    width: int,
    lo: int,
    hi: int,
    strip,
    min_support: int,
    out: RankColumns,
    max_len: int | None,
    governor=None,
) -> None:
    """The vectorised top level of Algorithm 3 over length-grouped paths.

    The local rank supports the top-level loop needs are, by Lemma 4.1.1,
    exactly the pairwise co-occurrence counts: when bucket ``j`` is
    consumed it holds every stored path truncated at ``j``, so the local
    support of rank ``k`` in ``CD_j`` is ``support({j, k})``.  That whole
    matrix is a single ``bincount`` (:func:`_pair_support_matrix`), which
    replaces both the top-level migration cascade and the per-bucket
    Python supports scan — the two quadratic costs of sparse mining.
    Each frequent rank's conditional database is then either enumerated
    as a subset lattice (:func:`_lattice_leaves`, where that is cheaper)
    or gathered straight from the path matrices (:func:`_tidset_rows`)
    and mined level by level on its tidsets (:func:`_tidset_mine`).

    ``arrays`` maps path length -> ``(mat, ifreqs)`` where ``mat`` is an
    int64 ``(n, length)`` matrix of stored rank paths and ``ifreqs`` the
    matching frequency column (:meth:`FlatPLT.paths_by_length`), over
    ranks ``< width``.  Mines every frequent itemset whose *maximal* rank
    lies in ``[lo, hi)`` — itemsets partition exactly by maximal rank, so
    disjoint ranges concatenate into the full answer (the shared-memory
    workers' decomposition, and the strips of a wide rank space).
    ``strip`` is rows ``[lo, hi)`` of :func:`_pair_support_matrix`: a
    slice of the whole matrix (the shm workers read it straight off the
    shared segment) or a strip computed on its own.

    The output goes into ``out`` as array blocks only: the frequent
    singles (the matrix diagonal), the frequent pairs (the matrix below
    it), the lattice leaves' blocks, then each tidset rank's levels,
    highest rank first.  Governed, the loop visits every frequent rank,
    highest first, and charges its block rows (counted by one
    ``bincount`` of each block's last column) to the itemset cap before
    its tidset levels run.
    """
    here = _np.arange(hi - lo)
    diag = strip[here, here + lo]
    singles = lo + _np.flatnonzero(diag >= min_support)
    if not singles.size:
        return
    if governor is not None:
        # a trip before the first rank is charged leaves nothing complete
        governor.progress["mining_rank"] = hi - 1

    counters = _COUNTERS
    # frequent[j - lo, k]: {k, j} is frequent, for k < j (the matrix is
    # zero above its diagonal, and the diagonal is j itself)
    frequent = strip >= min_support
    frequent[here, here + lo] = False
    frequent_cells = _np.flatnonzero(frequent)
    owner, franks = _np.divmod(frequent_cells, width)
    starts = _np.searchsorted(owner, _np.arange(hi - lo + 1))
    blocks = [(singles[:, None], diag[singles - lo])]
    if max_len is None or max_len >= 2:
        # strip[j - lo, k] IS the exact support of {k, j}
        blocks.append((_np.column_stack((franks, owner + lo)), strip[owner, franks]))
    leaf_ranks = _np.zeros(width, bool)
    cds: dict = {}
    if max_len is None or max_len >= 3:
        leaf_ranks, leaves = _lattice_leaves(
            arrays, owner, franks, starts, lo, hi, width, min_support, max_len,
            governor,
        )
        blocks += leaves
        if governor is not None:
            # the lattice tables are released; the output blocks are
            # arrays, which the allocator sample does not see
            governor.hold(sum(ranks.nbytes + sups.nbytes for ranks, sups in blocks))
        tidset = _np.zeros(width, bool)
        tidset[lo:hi] = (_np.diff(starts) >= 2) & ~leaf_ranks[lo:hi]
        if tidset.any():
            cds = _tidset_rows(arrays, frequent, frequent_cells, starts, lo, tidset, governor)
    if counters.enabled:
        counters.add("cond_buckets_touched", int((~leaf_ranks[singles]).sum()))

    for ranks, supports in blocks:
        out.add(ranks, supports)
    if governor is None:
        order = sorted(cds, reverse=True)
    else:
        charge = sum(_np.bincount(ranks[:, -1], minlength=width) for ranks, _ in blocks)
        order = singles[::-1].tolist()
    bounds = starts.tolist()
    for j in order:
        if governor is not None:
            governor.progress["mining_rank"] = j
            governor.tick()
            governor.note_itemsets(int(charge[j]))
        cd = cds.pop(j, None)
        if cd is not None:
            if counters.enabled:
                counters.add("cond_structures_built")
            local = franks[bounds[j - lo] : bounds[j - lo + 1]]
            _tidset_mine(*cd, local, j, min_support, max_len, out, governor)


def _tidset_rows(arrays, frequent, frequent_cells, starts, lo: int, ranks, governor=None) -> dict:
    """The rows of ``CD_j`` for every rank ``j`` marked in ``ranks``.

    Every stored path through ``j`` at a column ``c >= 2`` is a row of
    ``CD_j``.  The whole-row gather ``frequent[j - lo, path]`` keeps
    exactly the row's locally frequent ranks: it is False at and after
    ``j``'s column.  Rows with fewer than two of them are left out, as
    they carry only pair supports, which the pair matrix already holds.
    A kept rank becomes its local index, its place among ``CD_j``'s
    ascending locally frequent ranks (``frequent_cells`` are the flat
    indices of ``frequent``'s true cells, ascending, and ``starts`` each
    rank's first one).

    Returns ``{j: (rows, locals, freqs, pairs)}``: the kept cells as
    local row and rank indices, the rows' frequencies, and the local pair
    supports, ``pairs[a, b]`` (``a < b``) the exact support of
    ``{a, b, j}``, summed for every rank at once by :func:`_pair_counts`.
    """
    width = frequent.shape[1]
    hit_j, hit_freq, cell_hit, cell_rank = [], [], [], []
    n_hits = 0
    for length, (mat, ifreqs) in arrays.items():
        if length < 3:
            continue
        rows, cols = _np.nonzero(ranks[mat[:, 2:]])
        step = max(1, _CHUNK_SUBSETS // length)
        for start in range(0, len(rows), step):
            r = rows[start : start + step]
            if governor is not None:
                governor.tick(len(r))
            j = mat[r, cols[start : start + step] + 2] - lo
            paths = mat[r]
            flags = frequent[j[:, None], paths]
            keep = _np.flatnonzero(_np.count_nonzero(flags, axis=1) >= 2)
            hit, col = _np.nonzero(flags[keep])
            hit_j.append(j[keep])
            hit_freq.append(ifreqs[r[keep]])
            cell_hit.append(hit + n_hits)
            cell_rank.append(paths[keep[hit], col])
            n_hits += len(keep)
    if _COUNTERS.enabled:
        _COUNTERS.add("cond_work_items_merged", n_hits)
    if not n_hits:
        return {}
    # number the rows rank by rank, and order the cells to match
    hit_j = _np.concatenate(hit_j)
    order = _np.argsort(hit_j, kind="stable")
    hit_j, hit_freq = hit_j[order], _np.concatenate(hit_freq)[order]
    renumber = _np.empty(n_hits, _np.int64)
    renumber[order] = _np.arange(n_hits)
    cell_hit = renumber[_np.concatenate(cell_hit)]
    order = _np.argsort(cell_hit, kind="stable")
    cell_hit = cell_hit[order]
    cell_j = hit_j[cell_hit]
    flat = cell_j * width + _np.concatenate(cell_rank)[order]
    local = _np.searchsorted(frequent_cells, flat) - starts[cell_j]
    counts = _np.diff(starts)
    js = _np.flatnonzero(_np.bincount(hit_j, minlength=len(counts)))
    squares = counts[js] ** 2
    offset = _np.zeros(len(counts), _np.int64)
    offset[js] = _np.cumsum(squares) - squares
    base = offset[cell_j] + local * counts[cell_j]
    pairs = _pair_counts(cell_hit, local, base, hit_freq, int(squares.sum()))
    hit_bounds = _np.searchsorted(hit_j, _np.append(js, len(counts))).tolist()
    cell_bounds = _np.searchsorted(cell_hit, hit_bounds).tolist()
    cds = {}
    for i, j in enumerate(js.tolist()):
        h0, c0, c1 = hit_bounds[i], cell_bounds[i], cell_bounds[i + 1]
        k = int(counts[j])
        cds[j + lo] = (
            cell_hit[c0:c1] - h0,
            local[c0:c1],
            hit_freq[h0 : hit_bounds[i + 1]],
            pairs[offset[j] : offset[j] + k * k].reshape(k, k),
        )
    return cds


def _pair_counts(cell_row, local, base, freqs, size: int):
    """Local pair supports: ``counts[base[t] + local[u]]`` summed over
    every two cells ``t < u`` of one row, weighted by the row's frequency.

    The cells are grouped by row (``cell_row`` ascending) with ``local``
    ascending within each row, and ``freqs[r]`` is row ``r``'s frequency.
    Cell ``t`` of a row pairs with cell ``t + d`` of the same row, so the
    pairs are summed by one :func:`~repro.core.flat.exact_bincount` per
    distance ``d``.
    """
    # cells left in each cell's row after it
    left = _np.cumsum(_np.bincount(cell_row))[cell_row] - 1 - _np.arange(len(cell_row))
    weights = freqs[cell_row]
    counts = _np.zeros(size, _np.int64)
    total = sum(freqs.tolist())
    t = _np.arange(len(cell_row))
    for d in range(1, int(left.max()) + 1):
        t = t[left[t] >= d]
        counts += exact_bincount(base[t] + local[t + d], weights[t], size, total)
    return counts


#: ``_BYTE_BITS[i, v]`` is bit ``i`` of byte value ``v``: the matrix that
#: turns 8 rows' frequencies into their 256 subset sums.
_BYTE_BITS = (_np.arange(256) >> _np.arange(8)[:, None]) & 1

#: A tidset word: little-endian, so its bytes in memory order hold rows
#: 0-7, 8-15, ... of the word, the order ``_BYTE_BITS``'s table assumes.
_TID_WORD = _np.dtype("<u8")


def _tidset_mine(
    rows, cols, freqs, pairs, local, j: int, min_support: int,
    max_len: int | None, out: RankColumns, governor=None,
) -> None:
    """Mine the itemsets of length three and up whose maximal rank is ``j``.

    The vertical layout (dEclat's tidsets): ``CD_j``'s rows
    (:func:`_tidset_rows`) become one bitset per locally frequent rank
    ``local[a]``, ``tids[a]`` marking the rows that hold it, packed 64
    rows to a word (:data:`_TID_WORD`).  The support of a set is the summed
    frequency of the rows in the AND of its members' tidsets, read one
    byte (8 rows) at a time from a table of every byte's frequency sum
    (:func:`_tid_supports`), in exact int64.

    Itemsets grow level by level in local ranks, ascending.  The first
    level is the frequent local pairs, straight from ``pairs`` (no
    tidset is touched); a level's set ``S`` extends by a rank ``c`` above
    its last only where every member of ``S`` forms a locally frequent
    pair with ``c``.  Each level goes into ``out`` as one block of
    ascending rank rows (``local`` ranks, then ``j``, sorted when some
    local rank lies above ``j``) until it is empty or ``max_len`` is
    reached, then its rows are charged to the governor's itemset cap.
    """
    adj = pairs >= min_support
    first, second = _np.nonzero(adj)
    if not len(first):
        return
    n_rows = len(freqs)
    words = -(-n_rows // 64)
    tids = _np.zeros((len(local), words), _TID_WORD)
    _np.bitwise_or.at(tids, (cols, rows >> 6), _np.uint64(1) << (rows & 63).astype(_np.uint64))
    weights = _np.zeros(64 * words, _np.int64)
    weights[:n_rows] = freqs
    table = (weights.reshape(-1, 8) @ _BYTE_BITS).ravel()
    level, supports = _np.column_stack((first, second)), pairs[first, second]
    top = None if max_len is None else max_len - 1
    above = local[-1] > j
    while len(level):
        itemsets = _np.column_stack((local[level], _np.full(len(level), j)))
        if above:
            itemsets.sort(axis=1)
        out.add(itemsets, supports)
        if governor is not None:
            governor.note_itemsets(len(level))
        if top is not None and level.shape[1] >= top:
            return
        level, supports = _tidset_level(level, adj, tids, table, min_support, governor)


def _tidset_level(level, adj, tids, table, min_support: int, governor=None):
    """The frequent one-rank extensions of ``level``'s sets, in order.

    The candidates are the ranks ``c`` with ``adj[s, c]`` for every member
    ``s`` (``adj`` is upper-triangular, so ``c`` lies above the set).  The
    level goes through in chunks of sets, and each chunk's candidates in
    chunks of masks, so no buffer holds more than ``_CHUNK_SUBSETS``
    cells: a candidate flag, or a byte of a tidset mask.
    """
    n_local, mask_bytes = adj.shape[0], 8 * tids.shape[1]
    step = max(1, _CHUNK_SUBSETS // (n_local + mask_bytes))
    cstep = max(1, _CHUNK_SUBSETS // mask_bytes)
    held = tids.nbytes + table.nbytes + adj.nbytes + level.nbytes
    found, found_supports = [], []
    for start in range(0, len(level), step):
        sets = level[start : start + step]
        ok = adj[sets[:, -1]]
        masks = tids[sets[:, -1]]
        for k in range(sets.shape[1] - 1):
            ok &= adj[sets[:, k]]
            masks &= tids[sets[:, k]]
        parent, rank = _np.nonzero(ok)
        if governor is not None and not len(parent):
            governor.tick()
        for cstart in range(0, len(parent), cstep):
            p, c = parent[cstart : cstart + cstep], rank[cstart : cstart + cstep]
            candidate = masks[p] & tids[c]
            if governor is not None:
                # the lookup's index and gathered sums: 8 bytes per mask byte each
                governor.hold(held + masks.nbytes + 17 * candidate.nbytes)
                governor.tick(len(p))
            sup = _tid_supports(candidate, table)
            keep = sup >= min_support
            found.append(_np.column_stack((sets[p[keep]], c[keep])))
            found_supports.append(sup[keep])
            held += found[-1].nbytes + found_supports[-1].nbytes
    if not found:
        return level[:0], _np.zeros(0, _np.int64)
    return _np.concatenate(found), _np.concatenate(found_supports)


def _tid_supports(masks, table):
    """The summed row frequency of each ``(n, W)`` tidset mask: a lookup
    of every mask byte in ``table`` (byte ``b``'s 256 subset sums at
    ``256 b``), summed per mask."""
    index = masks.view(_np.uint8).astype(_np.intp)
    index += _np.arange(0, 256 * index.shape[1], 256)
    return table.take(index).sum(axis=1)


def mine_conditional_rows(
    rows,
    ranks,
    freqs,
    rank: int,
    min_support: int,
    out: RankColumns,
    max_len: int | None = None,
    governor=None,
) -> None:
    """Mine the frequent itemsets that extend ``(rank,)`` into ``out``.

    ``CD_rank`` comes in as one ``(rows[c], ranks[c])`` pair per cell
    and one frequency ``freqs[r]`` per row, all int64: the cells grouped
    by row, rows ascending, each row's ranks ascending.  The rows need
    not be aggregated nor stripped of locally infrequent ranks, and they
    may hold ranks above ``rank`` (a served ``CD_rank`` is every stored
    path through the rank, less the rank).

    One :func:`~repro.core.flat.exact_bincount` gives every rank's local
    support, which is the support of its pair with ``rank``; those pairs
    are the first block.  The rows with two or more locally frequent
    ranks, renumbered and counted in ``cond_work_items_merged``, then go
    to the tidset kernel (:func:`_tidset_mine`) with their local pair
    supports (:func:`_pair_counts`), as a top-level rank's rows do.
    Every block is ascending rank rows and is charged to the governor's
    itemset cap after it is added, so a caller that keeps a trip's
    partial cuts it at the cap (:func:`salvage`).  Does *not* write
    ``(rank,)`` itself.
    """
    check_max_len(max_len)
    if max_len == 1 or not len(ranks):
        return
    if governor is not None:
        governor.tick(len(freqs))
    width = max(rank, int(ranks.max())) + 1
    support = exact_bincount(ranks, freqs[rows], width, sum(freqs.tolist()))
    support[rank] = 0
    local = _np.flatnonzero(support >= min_support)
    if not len(local):
        return
    pairs = _np.column_stack((local, _np.full(len(local), rank)))
    pairs.sort(axis=1)
    out.add(pairs, support[local])
    if governor is not None:
        governor.note_itemsets(len(local))
    if len(local) < 2 or (max_len is not None and max_len < 3):
        return
    index = _np.full(width, -1)
    index[local] = _np.arange(len(local))
    cols = index[ranks]
    rows, cols = rows[cols >= 0], cols[cols >= 0]
    # rows with fewer than two locally frequent ranks carry only the pairs
    kept = _np.bincount(rows, minlength=len(freqs)) >= 2
    cells = kept[rows]
    rows, cols, freqs = (_np.cumsum(kept) - 1)[rows[cells]], cols[cells], freqs[kept]
    if not len(freqs):
        return
    if _COUNTERS.enabled:
        _COUNTERS.add("cond_work_items_merged", len(freqs))
        _COUNTERS.add("cond_structures_built")
    k = len(local)
    pairs = _pair_counts(rows, cols, cols * k, freqs, k * k).reshape(k, k)
    _tidset_mine(rows, cols, freqs, pairs, local, rank, min_support, max_len, out, governor)


def mine_conditional_flat_range(
    flat: FlatPLT,
    lo: int,
    hi: int,
    min_support: int,
    out: RankColumns,
    max_len: int | None = None,
    governor=None,
) -> None:
    """Mine every frequent itemset whose maximal rank lies in ``[lo, hi)``
    into ``out``.

    Operates directly on a :class:`~repro.core.flat.FlatPLT`'s columns —
    the top level of :func:`mine_conditional` (the whole rank range) and
    of every shared-memory worker (one slice each).  Itemsets partition
    exactly by their maximal (top-level) rank, so disjoint ranges mined by
    different workers concatenate into the complete answer with no
    reconciliation; each range's counts are exact because the pair
    matrix counts whole stored paths.

    The range is mined in rank strips, highest first, by
    :func:`_matrix_mine`: one strip while the whole pair matrix fits
    :data:`_PAIR_MATRIX_MAX_CELLS` (read off the segment when the shm
    driver precomputed it), else strips of ``_PAIR_MATRIX_MAX_CELLS //
    (max_rank + 1)`` ranks, each with its own strip of the matrix.
    The rank being mined is kept in ``governor.progress["mining_rank"]``:
    each top-level rank's itemsets complete before the next starts, so on
    a budget trip every rank above the marker is complete, and
    :func:`salvage` keeps what a trip leaves.
    """
    _check_min_support(min_support)
    check_max_len(max_len)
    lo = max(1, lo)
    hi = min(hi, flat.max_rank + 1)
    if lo >= hi or flat.n_paths == 0:
        return
    width = flat.max_rank + 1
    arrays = flat.paths_by_length()
    height = max(1, _PAIR_MATRIX_MAX_CELLS // width)
    full = flat.pair_support_matrix()
    if full is None and height >= width:
        full = _pair_support_matrix(arrays, width)
    for top in range(hi, lo, -height):
        bottom = max(lo, top - height)
        if full is None:
            strip = _pair_support_matrix(arrays, width, bottom, top)
        else:
            strip = full[bottom:top]
        _matrix_mine(arrays, width, bottom, top, strip, min_support, out, max_len, governor)


def salvage(out: RankColumns, governor) -> list[tuple[tuple[int, ...], int]]:
    """The pairs a governed run keeps when its budget trips.

    Every itemset whose maximal rank is at or above the rank in flight
    (``governor.progress["mining_rank"]``, 0 when no top level set it),
    in :meth:`RankColumns.pairs` order, at most ``max_itemsets`` of them:
    a block is added before it is charged, so the one that tripped the
    cap is cut here.  Ranks above the marker are complete; the rank in
    flight contributes its rows from the pair matrix, the lattice or the
    tidset levels mined so far.  Every support is exact, and the pairs
    are a prefix of the full run's.
    """
    low = governor.progress.get("mining_rank") or 0
    return out.pairs(low)[: governor.budget.max_itemsets]


def mine_conditional(
    plt: PLT,
    min_support: int | None = None,
    *,
    max_len: int | None = None,
    governor=None,
) -> RankColumns:
    """Mine all frequent itemsets from a PLT (Algorithm 3).

    Parameters
    ----------
    plt:
        The structure built by Algorithm 1.
    min_support:
        Absolute count; defaults to the threshold the PLT was built with.
    max_len:
        Optional cap on itemset length (a standard practical extension).
    governor:
        Optional :class:`~repro.robustness.governor.ResourceGovernor`.
        When its budget trips (or its token is cancelled) the raised
        :class:`~repro.errors.MiningInterrupted` carries ``partial`` (a
        list of the pairs mined so far, exact supports, see
        :func:`salvage`) and ``progress["complete_from_rank"]`` — every
        itemset whose maximal rank is >= that value was fully enumerated.

    Returns
    -------
    A :class:`~repro.core.columns.RankColumns`; iterating it gives
    ``(rank_tuple, support)`` pairs where ``rank_tuple`` is sorted
    ascending.  Use the PLT's rank table to decode to item labels.
    """
    if min_support is None:
        min_support = plt.min_support
    _check_min_support(min_support)
    check_max_len(max_len)
    out = RankColumns()
    if governor is not None:
        governor.start()
    try:
        mine_conditional_flat_range(
            plt.flat, 1, plt.max_rank() + 1, min_support, out, max_len, governor
        )
        return out
    except MiningInterrupted as exc:
        # ranks strictly above the one in flight were mined to completion
        exc.partial = salvage(out, governor)
        mining_rank = governor.progress.get("mining_rank")
        if mining_rank is not None:
            exc.progress.setdefault("complete_from_rank", mining_rank + 1)
        raise
