"""Conservative-update count-min sketch over integer keys.

The exact miners answer frequency queries by holding the database (or
its PLT's FlatPLT columns).  A count-min sketch answers the same *point*
queries from ``width x depth`` fixed counters: hash the key into one
cell per row, return the minimum.  Collisions only ever *add* counts,
so the estimate is one-sided::

    true_count(x)  <=  estimate(x)  <=  true_count(x) + eps * N

where ``N`` is the total count inserted (the stream's L1 norm), the
``<=`` on the right holds with probability ``>= 1 - delta``, and

    width = ceil(e / eps),    depth = ceil(ln(1 / delta)).

This is the upper-bound construction matching the lower bound in
Price's *Optimal Lower Bound for Itemset Frequency Indicator Sketches*
(PAPERS.md): ~``1/eps`` counters per row is also what any sketch
answering these indicator queries fundamentally needs.

**Conservative update** (Estan & Varghese) keeps the one-sided
guarantee but only raises the cells that *must* rise: on ``add(x, c)``
every cell of ``x`` becomes ``max(cell, estimate(x) + c)`` instead of
``cell + c``.  Rows stop inheriting counts from keys they merely share
a cell with, which in practice shrinks the overestimate by an order of
magnitude on skewed streams — and never breaks ``estimate >= true``.

Keys are **integers** (PLT ranks, or packed rank pairs — see
:func:`pack_pair`).  Hashing uses a seeded 2-universal family
``((a*x + b) mod p) mod width`` over the Mersenne prime ``2^61 - 1``,
so a sketch is deterministic given ``(seed, stream)`` regardless of
``PYTHONHASHSEED`` — snapshots restore byte-identically.

**Batched update.**  :meth:`CountMinSketch.add_many` ingests a batch of
distinct keys at once.  The same hash family is evaluated with exact
``uint64`` Mersenne-61 arithmetic (the cell indexes equal the scalar
:meth:`~CountMinSketch._indexes` bit for bit), every key's new floor
``v = estimate_before(x) + c`` is read from the *pre-batch* cells, and
each cell is raised to the largest floor landing on it.  A key's cells
still end ``>= true(x)``, and every cell stays ``<=`` the plain
(non-conservative) CMS cell for the same stream — ``estimate_before(x)``
is at most any of ``x``'s plain cells before the batch, and the plain
cell then gains at least ``c`` — so the ``(eps, delta)`` bound holds.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from collections.abc import Iterator
from random import Random

import numpy as np

from repro.errors import CheckpointError, InvalidParameterError

__all__ = ["CountMinSketch", "pack_pair", "unpack_pair"]

#: Mersenne prime for the 2-universal hash family.
_PRIME = (1 << 61) - 1

#: The same constants as ``uint64`` for the vectorised hash.
_P64 = np.uint64(_PRIME)
_LO29 = np.uint64((1 << 29) - 1)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT3, _SHIFT29, _SHIFT32, _SHIFT61 = (np.uint64(k) for k in (3, 29, 32, 61))

#: Cells hashed per pass of the batched path: small key batches hash
#: every row at once, large ones a row at a time.
_HASH_TILE = 4096


def _checked_batch(keys, counts) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, counts)`` of a batch update as ``uint64`` arrays.

    A batch is what ``np.unique(..., return_counts=True)`` returns:
    equal-length 1-d arrays, keys strictly increasing (so each key once),
    counts ``>= 1``; anything else raises.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    if keys.shape != counts.shape or keys.ndim != 1:
        raise InvalidParameterError("keys and counts must be equal-length 1-d arrays")
    if keys.size:
        if counts.min() < 1:
            raise InvalidParameterError(f"counts must be >= 1, got {counts.min()}")
        # a count of ordered neighbours rather than .all(): it reuses a
        # reduction the batch path runs anyway, and every extra NumPy
        # kernel costs resident memory (docs/PERFORMANCE.md)
        if int((keys[:-1] < keys[1:]).sum()) != len(keys) - 1:
            raise InvalidParameterError("keys must be strictly increasing")
    return keys, counts.view(np.uint64)


def _fold(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``x mod p`` for any ``uint64`` array ``x``, in place.

    ``2**61 == 1 (mod p)``, so one fold leaves ``x <= p + 7``; then
    ``min(x, x - p)`` subtracts ``p`` exactly when ``x >= p`` (below
    ``p`` the difference wraps around to a huge ``uint64``).
    """
    np.right_shift(x, _SHIFT61, out=scratch)
    x &= _P64
    x += scratch
    np.subtract(x, _P64, out=scratch)
    np.minimum(x, scratch, out=x)
    return x


def _hash(a_lo: np.ndarray, a_hi: np.ndarray, b: np.ndarray, x_lo: np.ndarray,
          x_hi: np.ndarray, acc: np.ndarray, tmp: np.ndarray, mid: np.ndarray) -> None:
    """``acc = (a * x + b) mod p`` for ``x = x_hi * 2**32 + x_lo < p``.

    ``a = a_hi * 2**32 + a_lo`` and ``b`` are per-row ``(rows, 1)``
    columns broadcast against the ``(n,)`` keys into ``(rows, n)``
    buffers.  The 122-bit product is split into 32-bit limbs so every
    partial product fits ``uint64``; ``2**64 == 8`` and ``2**61 == 1``
    modulo p fold the limbs back without overflow (each summand is
    ``< 2**61``).  ``tmp`` and ``mid`` are scratch.
    """
    np.multiply(x_lo, a_lo, out=acc)  # < 2**64: fold its top bits
    np.right_shift(acc, _SHIFT61, out=tmp)
    acc &= _P64
    acc += tmp
    np.multiply(x_lo, a_hi, out=mid)  # a_hi < 2**29
    np.multiply(x_hi, a_lo, out=tmp)
    mid += tmp  # < 2**62, weight 2**32
    np.right_shift(mid, _SHIFT29, out=tmp)
    acc += tmp
    mid &= _LO29
    mid <<= _SHIFT32
    acc += mid
    np.multiply(x_hi, a_hi, out=tmp)  # < 2**58, weight 2**64 == 8
    tmp <<= _SHIFT3
    acc += tmp
    acc += b
    _fold(acc, tmp)


#: Serialization header: epsilon, delta, seed, width, depth, total,
#: conservative flag (magic guards against feeding foreign blobs in).
_HEADER = struct.Struct("<4sddqIIQB")
_MAGIC = b"CMS1"

#: Rank pairs are packed into one integer key; ranks are 1-based and a
#: rank table of 2**31 items is far beyond anything the repo builds.
_PAIR_SHIFT = 32


def pack_pair(r1: int, r2: int) -> int:
    """One integer key for the unordered rank pair ``{r1, r2}``.

    The pair is normalised ``low -> high`` first, matching the PLT's
    canonical rank-path order (paths are strictly increasing).
    """
    if r1 > r2:
        r1, r2 = r2, r1
    return (r1 << _PAIR_SHIFT) | r2


def unpack_pair(key: int) -> tuple[int, int]:
    """Inverse of :func:`pack_pair`."""
    return key >> _PAIR_SHIFT, key & ((1 << _PAIR_SHIFT) - 1)


class CountMinSketch:
    """Fixed-memory frequency counters with a one-sided (eps, delta) bound.

    >>> cms = CountMinSketch(epsilon=0.01, delta=0.01, seed=7)
    >>> for rank in (1, 2, 1, 3, 1):
    ...     cms.add(rank)
    >>> cms.estimate(1) >= 3  # never under-reports
    True
    >>> cms.estimate(99)  # unseen keys can only over-report
    0
    """

    __slots__ = (
        "epsilon",
        "delta",
        "seed",
        "width",
        "depth",
        "conservative",
        "total",
        "_cells",
        "_a",
        "_b",
    )

    def __init__(
        self,
        epsilon: float = 0.005,
        delta: float = 0.01,
        *,
        seed: int = 0,
        conservative: bool = True,
    ):
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        self.width = math.ceil(math.e / epsilon)
        self.depth = math.ceil(math.log(1.0 / delta))
        self.conservative = bool(conservative)
        self.total = 0
        self._cells = array("Q", bytes(8 * self.width * self.depth))
        rng = Random(self.seed)
        self._a = tuple(rng.randrange(1, _PRIME) for _ in range(self.depth))
        self._b = tuple(rng.randrange(0, _PRIME) for _ in range(self.depth))

    # ------------------------------------------------------------------
    def _indexes(self, key: int) -> list[int]:
        width = self.width
        return [
            row * width + ((a * key + b) % _PRIME) % width
            for row, (a, b) in enumerate(zip(self._a, self._b))
        ]

    def add(self, key: int, count: int = 1) -> int:
        """Record ``count`` occurrences of ``key``; returns the new estimate."""
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        cells = self._cells
        idx = self._indexes(key)
        self.total += count
        if self.conservative:
            floor = min(cells[i] for i in idx) + count
            for i in idx:
                if cells[i] < floor:
                    cells[i] = floor
            return floor
        for i in idx:
            cells[i] += count
        return min(cells[i] for i in idx)

    def estimate(self, key: int) -> int:
        """Point estimate; ``>= true count`` always, ``<= true + eps*N`` w.h.p."""
        cells = self._cells
        return min(cells[i] for i in self._indexes(key))

    def _tiles(self, keys: np.ndarray) -> Iterator[np.ndarray]:
        """Flat cell indexes of ``keys``, a few rows at a time: stacking the
        yielded ``(rows, n)`` arrays gives ``[_indexes(k) for k in keys]``
        column by column.  A tile holds about :data:`_HASH_TILE` cells and
        is a reused buffer, valid until the next one is requested."""
        x_hi = np.array(keys, dtype=np.uint64)
        rows = min(self.depth, max(1, _HASH_TILE // max(len(x_hi), 1)))
        acc, tmp, mid = (np.empty((rows, len(x_hi)), dtype=np.uint64) for _ in range(3))
        _fold(x_hi, tmp[0])  # (a*x + b) mod p only sees x mod p
        x_lo = x_hi & _LO32
        x_hi >>= _SHIFT32
        a = np.array(self._a, dtype=np.uint64)[:, None]
        b = np.array(self._b, dtype=np.uint64)[:, None]
        a_lo, a_hi = a & _LO32, a >> _SHIFT32
        for top in range(0, self.depth, rows):
            end = min(top + rows, self.depth)
            out, t, m = acc[: end - top], tmp[: end - top], mid[: end - top]
            _hash(a_lo[top:end], a_hi[top:end], b[top:end], x_lo, x_hi, out, t, m)
            out %= np.uint64(self.width)
            out += np.arange(top * self.width, end * self.width, self.width, dtype=np.uint64)[:, None]
            yield out.view(np.intp)  # cell indexes are far below 2**63

    def _estimates(self, keys: np.ndarray) -> np.ndarray:
        cells = np.frombuffer(self._cells, dtype=np.uint64)
        est = None
        for index in self._tiles(keys):
            low = cells[index].min(axis=0)
            est = low if est is None else np.minimum(est, low, out=est)
        return est

    def add_many(self, keys, counts) -> None:
        """Record ``counts[j]`` occurrences of ``keys[j]`` for a whole batch.

        Keys are strictly increasing integers below ``2**64``, as
        ``np.unique(..., return_counts=True)`` returns them.  Conservative
        floors come from the pre-batch cells (see the module docstring
        for why this keeps the bound).
        """
        keys, counts = _checked_batch(keys, counts)
        if not keys.size:
            return
        self.total += int(counts.sum())
        cells = np.frombuffer(self._cells, dtype=np.uint64)
        if self.conservative:
            # every floor is read before any cell is raised; hashing the
            # batch twice keeps one tile of indexes alive instead of all rows
            floor = self._estimates(keys)
            floor += counts
            for tile in self._tiles(keys):
                for index in tile:
                    np.maximum.at(cells, index, floor)
        else:
            for tile in self._tiles(keys):
                for index in tile:
                    np.add.at(cells, index, counts)

    def estimate_many(self, keys) -> np.ndarray:
        """Point estimates of a batch of keys (``int64``); equals
        ``[estimate(k) for k in keys]``."""
        return self._estimates(np.asarray(keys, dtype=np.uint64)).view(np.int64)

    def error_bound(self) -> int:
        """The additive overestimate bound ``ceil(eps * N)`` at the current N."""
        return math.ceil(self.epsilon * self.total)

    def memory_bytes(self) -> int:
        """Bytes held by the counter table (the dominant, fixed cost)."""
        return 8 * self.width * self.depth

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to a platform-independent byte string."""
        cells = self._cells
        if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
            cells = array("Q", cells)
            cells.byteswap()
        return (
            _HEADER.pack(
                _MAGIC,
                self.epsilon,
                self.delta,
                self.seed,
                self.width,
                self.depth,
                self.total,
                int(self.conservative),
            )
            + cells.tobytes()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountMinSketch":
        """Restore a sketch serialized by :meth:`to_bytes` (byte-identical)."""
        if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
            raise CheckpointError("not a serialized CountMinSketch")
        magic, epsilon, delta, seed, width, depth, total, conservative = _HEADER.unpack_from(blob)
        sketch = cls(epsilon, delta, seed=seed, conservative=bool(conservative))
        if (sketch.width, sketch.depth) != (width, depth):
            raise CheckpointError(
                f"sketch shape mismatch: header says {width}x{depth}, "
                f"parameters derive {sketch.width}x{sketch.depth}"
            )
        body = blob[_HEADER.size :]
        if len(body) != 8 * width * depth:
            raise CheckpointError(
                f"sketch body is {len(body)} bytes, expected {8 * width * depth}"
            )
        cells = array("Q")
        cells.frombytes(body)
        if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
            cells.byteswap()
        sketch._cells = cells
        sketch.total = total
        return sketch

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountMinSketch) and self.to_bytes() == other.to_bytes()

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(eps={self.epsilon}, delta={self.delta}, "
            f"{self.width}x{self.depth}, total={self.total})"
        )
