"""The PLT's stored index as columns — also its shared-memory shape.

A PLT stores every vector's rank path (cumulative-sum tuple, Lemma
4.1.1) grouped into sum-index buckets.  Algorithm 1 writes them straight
into five contiguous typed columns (:meth:`FlatPLT.from_rank_rows`), so
the whole structure can live in a single ``multiprocessing.shared_memory``
segment and be *mapped*, not copied, into worker processes:

====================  ====  =============  =======================================
column                type  items          meaning
====================  ====  =============  =======================================
``ranks``             "I"   n_cells        all rank paths concatenated, bucket-major
``path_offsets``      "Q"   n_paths + 1    path ``p`` is ``ranks[off[p]:off[p+1]]``
``freqs``             "Q"   n_paths        aggregated frequency of path ``p``
``bucket_keys``       "I"   n_buckets      sum-index keys (max rank), *descending*
``bucket_offsets``    "Q"   n_buckets + 1  bucket ``b`` holds paths ``[boff[b], boff[b+1])``
====================  ====  =============  =======================================

A sixth optional column, ``pair_support`` ("q", ``width**2``), carries the
dense pairwise co-occurrence matrix when the driver precomputed it
(:meth:`FlatPLT.compute_pair_support`) — range workers then read the one
globally-shared table their restriction cannot shrink straight off the
segment.

Columns are 8-byte aligned back to back in one buffer; the picklable
``meta`` dict (segment name, per-column lengths, the three scalars) is all
a worker needs to :meth:`FlatPLT.attach`.  Zero-copy NumPy views over
the columns (:meth:`as_numpy`) feed every vectorised kernel.

Attach-side resource tracking: on Python < 3.13 every
``SharedMemory(create=False)`` *registers* the segment with the resource
tracker as if the attaching process owned it — at interpreter exit the
tracker then unlinks a segment the creator still uses, or warns about a
"leak" it never owned.  :meth:`FlatPLT.attach` suppresses that
registration (``track=False`` natively on 3.13+, a register-hook bypass
before), so cleanup stays solely with the creating process and no
tracker warning can fire.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterator

import numpy as _np

from repro.core.position import RankPath
from repro.errors import InvalidSupportError

__all__ = [
    "FlatPLT",
    "SharedFlatPLT",
    "FLAT_FIELDS",
    "exact_bincount",
    "merge_rows",
    "rows_by_length",
]

#: The columns, in buffer order: (attribute name, array typecode).
FLAT_FIELDS: tuple[tuple[str, str], ...] = (
    ("ranks", "I"),
    ("path_offsets", "Q"),
    ("freqs", "Q"),
    ("bucket_keys", "I"),
    ("bucket_offsets", "Q"),
)

_ITEMSIZE = {code: array(code).itemsize for code in ("I", "Q", "q")}

_DTYPES = {"I": _np.dtype("uint32"), "Q": _np.dtype("uint64")}

#: Column alignment inside the shared buffer.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_name() -> str:
    """A recognisable segment name: scannable in /dev/shm by tests."""
    return f"plt_shm_{os.getpid()}_{os.urandom(4).hex()}"


def _column(values, typecode: str) -> array:
    """An int64 NumPy column as the ``array.array`` the kernels index."""
    col = array(typecode)
    col.frombytes(values.astype(_DTYPES[typecode]).tobytes())
    return col


def exact_bincount(codes, weights, minlength: int, bound: int):
    """``np.bincount(codes, weights, minlength)`` as exact int64 counts.

    ``weights`` are non-negative integers and ``bound`` is at least every
    count: the summed frequency of the transactions, when each code is
    one item (or pair) of one transaction.  Below ``2**53`` the float64
    ``bincount`` is exact, as every partial sum it forms is an integer
    below ``2**53`` (the weights may then be float64 too).  Otherwise each
    count is summed in two 32-bit halves by ``np.add.at``, which cannot
    overflow, and a count of ``2**63`` or more raises
    :class:`~repro.errors.InvalidSupportError`.
    """
    if bound < 2**53:
        counts = _np.bincount(codes, weights=weights, minlength=minlength)
        # cast in place: same item size, every element read before written
        _np.copyto(counts.view(_np.int64), counts, casting="unsafe")
        return counts.view(_np.int64)
    size = max(minlength, int(codes.max()) + 1)
    high, low = _np.zeros(size, _np.int64), _np.zeros(size, _np.int64)
    _np.add.at(high, codes, weights >> 32)
    _np.add.at(low, codes, weights & 0xFFFFFFFF)
    high += low >> 32
    if (high >> 31).any():
        raise InvalidSupportError("a weighted support reaches 2**63, beyond int64 counts")
    return (high << 32) | (low & 0xFFFFFFFF)


def rows_by_length(cells, starts, lengths):
    """Yield ``(length, rows, matrix)`` per distinct non-zero row length.

    Row ``i`` is ``cells[starts[i]:starts[i] + lengths[i]]``; ``rows``
    indexes the rows of one length (ascending) and ``matrix`` holds their
    cells as an int64 ``(len(rows), length)`` matrix.  Lengths ascend.
    """
    # distinct lengths via bincount: np.unique's first call in a process
    # imports numpy.ma (~15 ms), paid again by every pool worker
    for length in _np.flatnonzero(_np.bincount(lengths)).tolist():
        if length:
            rows = _np.flatnonzero(lengths == length)
            yield length, rows, cells[starts[rows][:, None] + _np.arange(length)]


def merge_rows(mat, weights):
    """Sort an int64 matrix's rows lexicographically, merging equal rows.

    Returns ``(distinct rows, summed weights)``; ``weights=None`` counts
    each row once.  The non-negative entries are packed, as many columns
    as fit, into int64 keys (one base-``2**bits`` digit per column), so a
    row sorts on one or a few keys rather than on every column.
    """
    n, width = mat.shape
    bits = max(1, int(mat.max()).bit_length())
    per_key = 63 // bits
    powers = _np.left_shift(1, bits * _np.arange(per_key - 1, -1, -1, dtype=_np.int64))
    keys = [
        mat[:, start : start + per_key] @ powers[max(0, start + per_key - width) :]
        for start in range(0, width, per_key)
    ]
    if len(keys) == 1:
        order = _np.argsort(keys[0], kind="stable")
    else:
        order = _np.lexsort(keys[::-1])
    differs = _np.zeros(max(n - 1, 0), bool)
    for key in keys:
        key = key[order]
        differs |= key[1:] != key[:-1]
    first = _np.flatnonzero(_np.concatenate(([True], differs)))
    if weights is None:
        freqs = _np.diff(_np.append(first, n))
    else:
        freqs = _np.add.reduceat(weights[order], first)
    return mat[order[first]], freqs


class FlatPLT:
    """A PLT's rank-path index as read-only columns (``PLT.flat``).

    Instances are immutable after construction.  The columns are either
    ``array.array`` objects (built in-process by :meth:`from_rank_rows`) or
    ``memoryview`` casts over a shared-memory buffer (:meth:`attach` and
    the twin a :class:`SharedFlatPLT` owner exposes) — both support the
    same indexing/slicing/``tobytes`` surface the kernels use.
    """

    __slots__ = (
        "ranks",
        "path_offsets",
        "freqs",
        "bucket_keys",
        "bucket_offsets",
        "pair_support",
        "min_support",
        "n_transactions",
        "max_rank",
        "_shm",
        "_mviews",
        "_np_views",
    )

    def __init__(
        self,
        ranks,
        path_offsets,
        freqs,
        bucket_keys,
        bucket_offsets,
        pair_support=None,
        *,
        min_support: int,
        n_transactions: int,
        max_rank: int,
    ) -> None:
        self.ranks = ranks
        self.path_offsets = path_offsets
        self.freqs = freqs
        self.bucket_keys = bucket_keys
        self.bucket_offsets = bucket_offsets
        self.pair_support = pair_support
        self.min_support = min_support
        self.n_transactions = n_transactions
        self.max_rank = max_rank
        self._shm = None
        self._mviews: tuple = ()
        self._np_views = None

    # -- construction -------------------------------------------------------
    @classmethod
    def from_rank_rows(
        cls,
        ranks,
        lengths,
        weights=None,
        *,
        min_support: int,
        n_transactions: int,
    ) -> "FlatPLT":
        """Aggregate rank rows into the columns — the end of Algorithm 1.

        ``ranks`` holds int64 rank rows back to back, each strictly
        increasing (a rank path, Lemma 4.1.1); ``lengths`` is the int64
        length of every row (empty rows are dropped) and ``weights`` its
        multiplicity (``None``: one each).  Equal rows aggregate into one
        path whose frequency is their summed weight.

        The layout is canonical, so equal path sets give equal columns:
        buckets by descending key, and inside a bucket paths by length,
        then lexicographically.  Rows are grouped by length and each
        group sorted as an integer matrix; no Python runs per row.
        """
        groups = [
            merge_rows(mat, None if weights is None else weights[rows])
            for _, rows, mat in rows_by_length(ranks, _np.cumsum(lengths) - lengths, lengths)
        ]
        if groups:
            cells = _np.concatenate([mat.ravel() for mat, _ in groups])
            freqs = _np.concatenate([freq for _, freq in groups])
            sizes = _np.concatenate(
                [_np.full(len(mat), mat.shape[1], _np.int64) for mat, _ in groups]
            )
            last = _np.concatenate([mat[:, -1] for mat, _ in groups])
        else:
            cells = freqs = sizes = last = _np.zeros(0, _np.int64)
        # groups are concatenated by ascending length, each in row order:
        # a stable sort on the descending key gives the canonical layout
        order = _np.argsort(-last, kind="stable")
        source = (_np.cumsum(sizes) - sizes)[order]
        sizes, keys = sizes[order], last[order]
        path_offsets = _np.zeros(len(sizes) + 1, _np.int64)
        _np.cumsum(sizes, out=path_offsets[1:])
        gather = _np.repeat(source - path_offsets[:-1], sizes)
        gather += _np.arange(path_offsets[-1])
        new_bucket = _np.ones(len(keys), bool)
        new_bucket[1:] = keys[1:] != keys[:-1]
        bucket_starts = _np.flatnonzero(new_bucket)
        return cls(
            _column(cells[gather], "I"),
            _column(path_offsets, "Q"),
            _column(freqs[order], "Q"),
            _column(keys[bucket_starts], "I"),
            _column(_np.append(bucket_starts, len(keys)), "Q"),
            min_support=min_support,
            n_transactions=n_transactions,
            max_rank=int(keys[0]) if len(keys) else 0,
        )

    # -- basic shape --------------------------------------------------------
    @property
    def n_paths(self) -> int:
        return len(self.freqs)

    @property
    def n_cells(self) -> int:
        return len(self.ranks)

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_keys)

    def path(self, p: int) -> RankPath:
        """Stored path ``p`` as a plain rank tuple."""
        return tuple(self.ranks[self.path_offsets[p] : self.path_offsets[p + 1]])

    def iter_paths(self) -> Iterator[tuple[RankPath, int]]:
        """All ``(path, frequency)`` pairs, bucket-major (storage order).

        Paths share one Python int object per rank (an object-array
        ``take``), so a consumer that keeps every path, like the PLT's
        derived dict views, holds no int object per cell.
        """
        ints = _np.arange(self.max_rank + 1).astype(object)
        ranks = ints[self.as_numpy()["ranks"]].tolist()
        off = self.path_offsets.tolist()
        for p, freq in enumerate(self.freqs.tolist()):
            yield tuple(ranks[off[p] : off[p + 1]]), freq

    # -- vectorized views ---------------------------------------------------
    def as_numpy(self):
        """Zero-copy NumPy views over the columns (cached)."""
        views = self._np_views
        if views is None:
            views = {
                name: _np.frombuffer(getattr(self, name), dtype=_DTYPES[code])
                for name, code in FLAT_FIELDS
            }
            self._np_views = views
        return views

    def rank_supports(self) -> list[int]:
        """Exact support of every rank, indexed by rank (index 0 unused).

        Each path's frequency is repeated across its cells and bincounted
        by rank id — one fused pass, no Python-level loop over paths.
        """
        views = self.as_numpy()
        offsets = views["path_offsets"].astype(_np.int64)
        weights = _np.repeat(views["freqs"].astype(_np.int64), _np.diff(offsets))
        return exact_bincount(views["ranks"], weights, self.max_rank + 1, sum(self.freqs)).tolist()

    def rank_costs(self) -> list[int]:
        """Per-rank work proxy for range planning, indexed by rank.

        ``cost[j]`` is the total prefix length over every cell holding
        ``j`` — the volume of conditional-database entries a top-level
        consume of rank ``j`` touches.  Same bincount shape as
        :meth:`rank_supports`, weighted by within-path position.
        """
        views = self.as_numpy()
        offsets = views["path_offsets"].astype(_np.int64)
        pos = _np.arange(len(views["ranks"]), dtype=_np.int64)
        pos -= _np.repeat(offsets[:-1], _np.diff(offsets))
        cost = _np.bincount(
            views["ranks"], weights=pos.astype(_np.float64), minlength=self.max_rank + 1
        )
        return [int(c) for c in cost]

    def paths_by_length(self, start: int = 0, end: int | None = None):
        """Stored paths ``[start, end)`` grouped by length as
        ``{length: (mat, ifreqs)}``.

        ``mat`` is an int64 ``(n, length)`` matrix of rank paths and
        ``ifreqs`` the matching int64 frequency column — exactly the input
        shape of the vectorised conditional top level and of the top-down
        subset-lattice kernel.
        """
        views = self.as_numpy()
        if end is None:
            end = self.n_paths
        if end <= start:
            return {}
        offsets = views["path_offsets"][start : end + 1].astype(_np.int64)
        ranks64 = views["ranks"].astype(_np.int64)
        ifreqs = views["freqs"][start:end].astype(_np.int64)
        return {
            length: (mat, ifreqs[rows])
            for length, rows, mat in rows_by_length(ranks64, offsets[:-1], _np.diff(offsets))
        }

    def compute_pair_support(self, max_cells: int | None = None) -> bool:
        """Precompute the dense pairwise co-occurrence matrix in-place.

        The conditional top level needs ``support({j, k})`` for every rank
        pair; computing it is the one per-worker cost a range restriction
        cannot shrink (counts are global).  Calling this *before*
        :meth:`to_shared_memory` stores the matrix as a sixth column, so
        every attaching worker reads it off the segment instead of
        re-running the bincount over all stored paths.

        No-op (returns False) on an empty index, or when the dense matrix
        would exceed ``max_cells`` (default: the conditional kernel's own
        cap, :data:`~repro.core.conditional._PAIR_MATRIX_MAX_CELLS` — rank
        spaces that wide are mined in rank strips, each counting its own
        strip of the matrix).
        """
        from repro.core import conditional

        if self.pair_support is not None or self.n_paths == 0:
            return self.pair_support is not None
        width = self.max_rank + 1
        if max_cells is None:
            max_cells = conditional._PAIR_MATRIX_MAX_CELLS
        if width * width > max_cells:
            return False
        arrays = self.paths_by_length()
        column, codes = conditional._pair_codes(arrays, width)
        self.pair_support = conditional._strip_supports(arrays, column, codes, width, 0, width).ravel()
        return True

    def pair_support_matrix(self):
        """The precomputed ``(width, width)`` pair matrix, or ``None``.

        The underlying buffer view is cached alongside :meth:`as_numpy`'s
        so that :meth:`detach`/``close`` can drop every buffer export.
        """
        if self.pair_support is None:
            return None
        views = self.as_numpy()
        flatview = views.get("pair_support")
        if flatview is None:
            flatview = _np.frombuffer(self.pair_support, dtype=_np.int64)
            views["pair_support"] = flatview
        width = self.max_rank + 1
        return flatview.reshape(width, width)

    # -- shared memory ------------------------------------------------------
    def _meta_scalars(self) -> dict:
        return {
            "min_support": self.min_support,
            "n_transactions": self.n_transactions,
            "max_rank": self.max_rank,
        }

    def to_shared_memory(self, name: str | None = None) -> "SharedFlatPLT":
        """Copy the columns into one shared segment; return the owner handle.

        The handle's ``flat`` attribute is a twin of this instance backed
        by the segment itself.  The caller owns cleanup: call
        :meth:`SharedFlatPLT.close` (and ``unlink``) in a ``finally``.
        Raises :class:`OSError` when the segment cannot be created or its
        pages reserved; no segment is left behind in that case.
        """
        from multiprocessing import shared_memory

        fields = list(FLAT_FIELDS)
        if self.pair_support is not None:
            fields.append(("pair_support", "q"))
        layout = []
        blobs = []
        offset = 0
        for field, typecode in fields:
            col = getattr(self, field)
            blob = col.tobytes()
            layout.append((field, typecode, len(col)))
            blobs.append((offset, blob))
            offset = _aligned(offset + len(blob))
        shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=name or _segment_name()
        )
        try:
            if hasattr(os, "posix_fallocate"):
                # reserve the pages now: a full /dev/shm raises ENOSPC
                # here instead of SIGBUS on the first write below
                os.posix_fallocate(shm._fd, 0, shm.size)
            for off, blob in blobs:
                shm.buf[off : off + len(blob)] = blob
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        meta = {"name": shm.name, "layout": tuple(layout), **self._meta_scalars()}
        return SharedFlatPLT(shm, self._from_buffer(shm, meta), meta)

    @classmethod
    def attach(cls, meta: dict) -> "FlatPLT":
        """Map an existing segment described by ``meta`` (read-only use).

        The attach is *untracked* (see the module docstring): only the
        creating process may unlink.  Call :meth:`detach` when done, or
        let process exit unmap it.
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=meta["name"], track=False)
        except TypeError:  # Python < 3.13: no track kwarg
            shm = _attach_untracked(meta["name"])
        return cls._from_buffer(shm, meta)

    @classmethod
    def _from_buffer(cls, shm, meta: dict) -> "FlatPLT":
        base = memoryview(shm.buf)
        mviews = [base]
        cols = {}
        offset = 0
        for field, typecode, nitems in meta["layout"]:
            nbytes = nitems * _ITEMSIZE[typecode]
            view = base[offset : offset + nbytes].cast(typecode)
            mviews.append(view)
            cols[field] = view
            offset = _aligned(offset + nbytes)
        flat = cls(
            min_support=meta["min_support"],
            n_transactions=meta["n_transactions"],
            max_rank=meta["max_rank"],
            **cols,
        )
        flat._shm = shm
        flat._mviews = tuple(mviews)
        return flat

    def _release_views(self) -> None:
        """Drop every buffer export so the segment can be closed."""
        self._np_views = None
        self.ranks = self.path_offsets = self.freqs = None
        self.bucket_keys = self.bucket_offsets = self.pair_support = None
        for view in self._mviews:
            view.release()
        self._mviews = ()

    def detach(self) -> None:
        """Release an attached segment's mapping (attach-side close)."""
        if self._shm is None:
            return
        self._release_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass
        self._shm = None


def _attach_untracked(name: str):
    """Attach without registering with the resource tracker (< 3.13).

    Registration must be *suppressed*, not undone after the fact: under a
    fork start method every process shares one tracker whose cache is a
    set, so an attach-register is a no-op and the compensating unregister
    would instead swallow the creator's registration (the tracker then
    KeyErrors when ``unlink`` unregisters again).  Swapping the register
    hook out for the duration of the attach is the established workaround
    and behaves correctly under both fork and spawn.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedFlatPLT:
    """Owner handle for a :class:`FlatPLT` placed in shared memory.

    Bundles the segment, its buffer-backed ``flat`` twin, and the
    picklable ``meta`` dict workers attach from.  ``close`` and ``unlink``
    are idempotent; the creating driver must call both in a ``finally`` so
    no ``/dev/shm`` entry survives success, crash, or cancellation.
    """

    __slots__ = ("shm", "flat", "meta", "_closed", "_unlinked")

    def __init__(self, shm, flat: FlatPLT, meta: dict) -> None:
        self.shm = shm
        self.flat = flat
        self.meta = meta
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.meta["name"]

    def close(self) -> None:
        """Unmap the owner's view (does not remove the segment)."""
        if self._closed:
            return
        self._closed = True
        self.flat._release_views()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            # the mapping dies with the process; unlink below still
            # removes the name, so nothing persists either way
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (creator-only)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double cleanup race
            pass
