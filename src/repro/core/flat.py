"""Columnar lowering of the PLT rank-path index — the shared-memory shape.

The mining kernels (PR 2) already intern every stored vector's rank path
(cumulative-sum tuple, Lemma 4.1.1) grouped into sum-index buckets.  This
module lowers that dict-of-dicts into five contiguous typed columns so
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

A sixth optional column, ``pair_support`` ("d", ``width**2``), carries the
dense pairwise co-occurrence matrix when the driver precomputed it
(:meth:`FlatPLT.compute_pair_support`) — range workers then read the one
globally-shared table their restriction cannot shrink straight off the
segment.

Columns are 8-byte aligned back to back in one buffer; the picklable
``meta`` dict (segment name, per-column lengths, the three scalars) is all
a worker needs to :meth:`FlatPLT.attach`.  NumPy views over the columns
are exposed through :meth:`as_numpy` when NumPy is importable; every
consumer degrades to plain ``array``/``memoryview`` indexing otherwise,
so the representation itself has no hard dependency.

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

try:  # optional acceleration; every method has a scalar fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.core.plt import PLT
from repro.core.position import RankPath

__all__ = ["FlatPLT", "SharedFlatPLT", "FLAT_FIELDS"]

#: The columns, in buffer order: (attribute name, array typecode).
FLAT_FIELDS: tuple[tuple[str, str], ...] = (
    ("ranks", "I"),
    ("path_offsets", "Q"),
    ("freqs", "Q"),
    ("bucket_keys", "I"),
    ("bucket_offsets", "Q"),
)

_ITEMSIZE = {code: array(code).itemsize for code in ("I", "Q", "d")}

if _np is not None:
    _DTYPES = {"I": _np.dtype("uint32"), "Q": _np.dtype("uint64")}

#: Column alignment inside the shared buffer.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_name() -> str:
    """A recognisable segment name: scannable in /dev/shm by tests."""
    return f"plt_shm_{os.getpid()}_{os.urandom(4).hex()}"


class FlatPLT:
    """Read-only columnar view of a PLT's rank-path index.

    Instances are immutable after construction.  The columns are either
    ``array.array`` objects (built in-process by :meth:`from_plt`) or
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
    def from_plt(cls, plt: PLT) -> "FlatPLT":
        """Lower a PLT's interned rank-path index into columns (one pass)."""
        ranks = array("I")
        path_offsets = array("Q", (0,))
        freqs = array("Q")
        bucket_keys = array("I")
        bucket_offsets = array("Q", (0,))
        n_paths = 0
        for key, bucket in plt.iter_rank_path_buckets():
            bucket_keys.append(key)
            for path, freq in bucket.items():
                ranks.extend(path)
                path_offsets.append(len(ranks))
                freqs.append(freq)
            n_paths += len(bucket)
            bucket_offsets.append(n_paths)
        return cls(
            ranks,
            path_offsets,
            freqs,
            bucket_keys,
            bucket_offsets,
            min_support=plt.min_support,
            n_transactions=plt.n_transactions,
            max_rank=plt.max_rank(),
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

    def packed_path(self, p: int) -> bytes:
        """Stored path ``p`` in the top-down byte engine's key encoding."""
        off = self.path_offsets
        return self.ranks[off[p] : off[p + 1]].tobytes()

    def iter_paths(self) -> Iterator[tuple[RankPath, int]]:
        """All ``(path, frequency)`` pairs, bucket-major (storage order)."""
        ranks, off, freqs = self.ranks, self.path_offsets, self.freqs
        for p in range(len(freqs)):
            yield tuple(ranks[off[p] : off[p + 1]]), freqs[p]

    # -- vectorized views ---------------------------------------------------
    def as_numpy(self):
        """Zero-copy NumPy views over the columns, or ``None`` without NumPy."""
        if _np is None:
            return None
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

        Vectorized over the frequency column when NumPy is present: each
        path's frequency is repeated across its cells and bincounted by
        rank id — one fused pass, no Python-level loop over paths.
        """
        views = self.as_numpy()
        width = self.max_rank + 1
        if views is not None:
            offsets = views["path_offsets"].astype(_np.int64)
            reps = _np.diff(offsets)
            weights = _np.repeat(views["freqs"].astype(_np.float64), reps)
            sup = _np.bincount(views["ranks"], weights=weights, minlength=width)
            return [int(s) for s in sup]
        sup = [0] * width
        ranks, off, freqs = self.ranks, self.path_offsets, self.freqs
        for p in range(len(freqs)):
            f = freqs[p]
            for c in range(off[p], off[p + 1]):
                sup[ranks[c]] += f
        return sup

    def rank_costs(self) -> list[int]:
        """Per-rank work proxy for range planning, indexed by rank.

        ``cost[j]`` is the total prefix length over every cell holding
        ``j`` — the volume of conditional-database entries a top-level
        consume of rank ``j`` touches.  Same bincount shape as
        :meth:`rank_supports`, weighted by within-path position.
        """
        views = self.as_numpy()
        width = self.max_rank + 1
        if views is not None:
            offsets = views["path_offsets"].astype(_np.int64)
            reps = _np.diff(offsets)
            pos = _np.arange(len(views["ranks"]), dtype=_np.int64)
            pos = pos - _np.repeat(offsets[:-1], reps)
            cost = _np.bincount(
                views["ranks"], weights=pos.astype(_np.float64), minlength=width
            )
            return [int(c) for c in cost]
        cost = [0] * width
        ranks, off = self.ranks, self.path_offsets
        for p in range(self.n_paths):
            base = off[p]
            for c in range(base, off[p + 1]):
                cost[ranks[c]] += c - base
        return cost

    def paths_by_length(self):
        """Stored paths grouped by length as ``{length: (mat, ifreqs)}``.

        ``mat`` is an int64 ``(n, length)`` matrix of rank paths and
        ``ifreqs`` the matching int64 frequency column — exactly the input
        shape of the vectorised conditional top level.  Returns ``None``
        without NumPy (callers fall back to the sweep formulation).
        """
        views = self.as_numpy()
        if views is None:
            return None
        if self.n_paths == 0:
            return {}
        offsets = views["path_offsets"].astype(_np.int64)
        lengths = _np.diff(offsets)
        starts = offsets[:-1]
        ranks64 = views["ranks"].astype(_np.int64)
        ifreqs = views["freqs"].astype(_np.int64)
        out = {}
        for length in _np.unique(lengths):
            size = int(length)
            rows = _np.nonzero(lengths == length)[0]
            idx = starts[rows][:, None] + _np.arange(size, dtype=_np.int64)
            out[size] = (ranks64[idx], ifreqs[rows])
        return out

    def compute_pair_support(self, max_cells: int | None = None) -> bool:
        """Precompute the dense pairwise co-occurrence matrix in-place.

        The conditional top level needs ``support({j, k})`` for every rank
        pair; computing it is the one per-worker cost a range restriction
        cannot shrink (counts are global).  Calling this *before*
        :meth:`to_shared_memory` stores the matrix as a sixth column, so
        every attaching worker reads it off the segment instead of
        re-running the bincount over all stored paths.

        No-op (returns False) without NumPy, on an empty index, or when
        the dense matrix would exceed ``max_cells`` (default: the
        conditional kernel's own dense-matrix cap — ranges that large
        take the sweep fallback, which never consults the matrix).
        """
        if _np is None or self.pair_support is not None or self.n_paths == 0:
            return self.pair_support is not None
        if max_cells is None:
            from repro.core.conditional import _PAIR_MATRIX_MAX_CELLS

            max_cells = _PAIR_MATRIX_MAX_CELLS
        width = self.max_rank + 1
        if width * width > max_cells:
            return False
        from repro.core.conditional import _pair_support_matrix

        self.pair_support = _pair_support_matrix(
            self.paths_by_length(), width
        ).ravel()
        return True

    def pair_support_matrix(self):
        """The precomputed ``(width, width)`` pair matrix, or ``None``.

        The underlying buffer view is cached alongside :meth:`as_numpy`'s
        so that :meth:`detach`/``close`` can drop every buffer export.
        """
        if _np is None or self.pair_support is None:
            return None
        views = self.as_numpy()
        flatview = views.get("pair_support")
        if flatview is None:
            flatview = _np.frombuffer(self.pair_support, dtype=_np.float64)
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
            fields.append(("pair_support", "d"))
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
