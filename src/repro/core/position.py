"""Position-vector algebra — the heart of the PLT structure.

A *position vector* (Definitions 4.1.2–4.1.3 of the paper) encodes an
itemset ``X = {x1 < x2 < ... < xk}`` as the tuple of rank *deltas*::

    V(X) = (pos(x1), ..., pos(xk)),   pos(xi) = Rank(xi) - Rank(x_{i-1})

with ``Rank(null) = 0``.  Consequently (Lemma 4.1.1) the rank of ``xi`` is
the prefix sum of the first ``i`` positions, the vector's total sum is the
rank of the itemset's maximal item, and the encoding is a bijection between
itemsets and vectors (Lemma 4.1.2).

Lemma 4.1.3 is the paper's key operational fact: every ``(k-1)``-subset of a
``k``-itemset is obtained from its vector either by

* dropping the last position (removing the maximal item), or
* replacing two consecutive positions with their sum (removing an interior
  item) — :func:`merge_at`.

All functions here operate on plain ``tuple[int, ...]`` values; vectors are
hashable dictionary keys throughout the library, which is what makes the
aggregated "matrix" representation (Figure 3a) cheap.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import InvalidVectorError

__all__ = [
    "PositionVector",
    "RankPath",
    "encode",
    "decode",
    "rank_path",
    "path_to_vector",
    "vector_sum",
    "validate",
    "is_valid",
    "prefix",
    "drop_last",
    "merge_at",
    "remove_index",
    "remove_rank",
    "level_down_subsets",
    "all_subset_vectors",
    "contains_rank",
    "rank_index",
    "is_subvector",
    "is_subvector_merge",
    "restrict_to_ranks",
]

PositionVector = tuple[int, ...]

#: The cumulative-sum form of a position vector (Lemma 4.1.1): the strictly
#: increasing tuple of the encoded itemset's ranks.  The mining hot paths
#: operate on this representation because every quantity they need is O(1)
#: on it — the sum-index key is ``path[-1]``, the prefix's key is
#: ``path[-2]``, and projecting out infrequent ranks is a plain filter.
RankPath = tuple[int, ...]


# ---------------------------------------------------------------------------
# encoding / decoding (Lemma 4.1.1 and 4.1.2)
# ---------------------------------------------------------------------------
def encode(ranks: Sequence[int]) -> PositionVector:
    """Encode strictly increasing ranks as a position (delta) vector.

    >>> encode((1, 3, 4))
    (1, 2, 1)
    """
    if not ranks:
        raise InvalidVectorError("cannot encode an empty itemset")
    out = []
    prev = 0
    for r in ranks:
        delta = r - prev
        if delta <= 0:
            raise InvalidVectorError(
                f"ranks must be strictly increasing positive integers, got {ranks!r}"
            )
        out.append(delta)
        prev = r
    return tuple(out)


def decode(vector: PositionVector) -> tuple[int, ...]:
    """Inverse of :func:`encode`: the cumulative sums are the ranks.

    >>> decode((1, 2, 1))
    (1, 3, 4)
    """
    validate(vector)
    return tuple(itertools.accumulate(vector))


def rank_path(vector: PositionVector) -> RankPath:
    """The vector's cumulative-sum tuple — its *rank path* (Lemma 4.1.1).

    Identical to :func:`decode` but without validation: this is the hot-path
    conversion the kernels use, so it must not pay per-call checks.  The
    result's last element is the vector's sum (the sum-index key).

    >>> rank_path((1, 2, 1))
    (1, 3, 4)
    """
    return tuple(itertools.accumulate(vector))


def path_to_vector(path: RankPath) -> PositionVector:
    """Inverse of :func:`rank_path`: first differences of the rank path.

    >>> path_to_vector((1, 3, 4))
    (1, 2, 1)
    """
    return tuple(map(operator.sub, path, (0,) + path[:-1]))


def vector_sum(vector: PositionVector) -> int:
    """The vector's sum — the rank of the itemset's maximal item.

    Algorithm 1 stores this value with every vector; Algorithm 3 uses it as
    the index key that identifies an item's conditional database.
    """
    return sum(vector)


def validate(vector: PositionVector) -> None:
    """Raise :class:`InvalidVectorError` unless ``vector`` is a valid PLT vector."""
    if not isinstance(vector, tuple) or not vector:
        raise InvalidVectorError(f"position vector must be a non-empty tuple, got {vector!r}")
    for p in vector:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            raise InvalidVectorError(f"positions must be positive ints, got {vector!r}")


def is_valid(vector: object) -> bool:
    """Boolean form of :func:`validate`."""
    try:
        validate(vector)  # type: ignore[arg-type]
    except InvalidVectorError:
        return False
    return True


# ---------------------------------------------------------------------------
# subset operations (Lemma 4.1.3)
# ---------------------------------------------------------------------------
def prefix(vector: PositionVector, length: int) -> PositionVector:
    """The vector of the subset keeping the ``length`` smallest items."""
    if not 1 <= length <= len(vector):
        raise InvalidVectorError(
            f"prefix length {length} out of range for vector of length {len(vector)}"
        )
    return vector[:length]


def drop_last(vector: PositionVector) -> PositionVector:
    """Lemma 4.1.3(a): remove the maximal item.  Empty result for length-1."""
    return vector[:-1]


def merge_at(vector: PositionVector, index: int) -> PositionVector:
    """Lemma 4.1.3(b): remove the interior item at 0-based ``index``.

    Positions ``index`` and ``index + 1`` are replaced by their sum, which
    keeps every remaining item's cumulative rank unchanged.

    >>> merge_at((1, 2, 1), 0)   # {A, C, D} minus A -> {C, D}
    (3, 1)
    """
    if not 0 <= index < len(vector) - 1:
        raise InvalidVectorError(
            f"merge index {index} out of range for vector of length {len(vector)}"
        )
    return vector[:index] + (vector[index] + vector[index + 1],) + vector[index + 2 :]


def remove_index(vector: PositionVector, index: int) -> PositionVector:
    """Remove the item at 0-based ``index``; dispatches to merge or drop.

    Returns the empty tuple when removing the only element.
    """
    if not 0 <= index < len(vector):
        raise InvalidVectorError(
            f"remove index {index} out of range for vector of length {len(vector)}"
        )
    if index == len(vector) - 1:
        return vector[:-1]
    return merge_at(vector, index)


def remove_rank(vector: PositionVector, rank: int) -> PositionVector:
    """Remove the item whose rank is ``rank`` (must be present)."""
    return remove_index(vector, rank_index(vector, rank))


def level_down_subsets(vector: PositionVector) -> list[PositionVector]:
    """All ``(k-1)``-level subset vectors, in item-removal order.

    Index ``i`` of the result removes item ``i``; the last entry is the
    prefix (maximal item removed).  For a length-1 vector the only subset is
    the empty itemset, which has no vector — the result is empty.
    """
    k = len(vector)
    if k == 1:
        return []
    subsets = [merge_at(vector, i) for i in range(k - 1)]
    subsets.append(vector[:-1])
    return subsets


def all_subset_vectors(vector: PositionVector) -> Iterator[PositionVector]:
    """Yield the vector of every non-empty subset of the encoded itemset.

    Exponential — intended for tests and tiny examples only.
    """
    ranks = decode(vector)
    for r in range(1, len(ranks) + 1):
        for combo in itertools.combinations(ranks, r):
            yield encode(combo)


# ---------------------------------------------------------------------------
# membership / subset checking (the paper's "light subset checking" claim)
# ---------------------------------------------------------------------------
def contains_rank(vector: PositionVector, rank: int) -> bool:
    """True if the encoded itemset contains the item of the given rank."""
    total = 0
    for p in vector:
        total += p
        if total == rank:
            return True
        if total > rank:
            return False
    return False


def rank_index(vector: PositionVector, rank: int) -> int:
    """0-based index of the item with rank ``rank``; raises if absent."""
    total = 0
    for i, p in enumerate(vector):
        total += p
        if total == rank:
            return i
        if total > rank:
            break
    raise InvalidVectorError(f"rank {rank} not present in vector {vector!r}")


def is_subvector(sub: PositionVector, sup: PositionVector) -> bool:
    """True iff ``sub``'s itemset is a subset of ``sup``'s itemset.

    Works directly on the delta representation with a single forward merge
    pass: ``sub`` is a subset of ``sup`` exactly when ``sub``'s cumulative
    sums form a subsequence of ``sup``'s cumulative sums.  Both cumulative
    sequences are strictly increasing, so a two-pointer sweep suffices —
    this is the O(k) subset check the paper advertises, with no set
    materialisation.
    """
    if len(sub) > len(sup):
        return False
    it = iter(sup)
    sup_total = 0
    sub_total = 0
    for p in sub:
        sub_total += p
        while sup_total < sub_total:
            try:
                sup_total += next(it)
            except StopIteration:
                return False
        if sup_total != sub_total:
            return False
    return True


def is_subvector_merge(sub: PositionVector, sup: PositionVector) -> bool:
    """Subset check expressed purely through Lemma 4.1.3 merge operations.

    Greedily merges ``sup``'s positions left-to-right: whenever the running
    prefix of ``sup`` falls short of the next position of ``sub``, the next
    ``sup`` position is merged in.  Equivalent to :func:`is_subvector`
    (tests assert this); kept separate because it is the formulation the
    paper derives, and benchmark B5 compares both against set operations.
    """
    if len(sub) > len(sup):
        return False
    i = 0  # index into sup
    n = len(sup)
    for target in sub:
        if i >= n:
            return False
        acc = sup[i]
        i += 1
        while acc < target and i < n:
            acc += sup[i]  # merge consecutive positions (Lemma 4.1.3 b)
            i += 1
        if acc != target:
            return False
    return True


def restrict_to_ranks(vector: PositionVector, keep: Iterable[int]) -> PositionVector:
    """Project the encoded itemset onto ``keep`` (a set of ranks).

    Used when building conditional PLTs: infrequent items are removed from
    every vector.  Equivalent to repeated :func:`remove_rank` calls (tests
    assert so) but runs in one pass.  Returns the empty tuple when nothing
    survives.
    """
    keep_set = keep if isinstance(keep, (set, frozenset)) else set(keep)
    out = []
    total = 0
    prev_kept = 0
    for p in vector:
        total += p
        if total in keep_set:
            out.append(total - prev_kept)
            prev_kept = total
    return tuple(out)
