"""Top-k frequent-itemset mining over the PLT.

Choosing ``min_support`` is the classic usability problem: too high finds
nothing, too low explodes.  Top-k mining (Han et al.'s TFP line of work)
inverts the interface: *give me the k most frequent itemsets of at least
``min_len`` items*, and the threshold is discovered.

The threshold is found by mining at a guess and halving it.  The first
guess is the k-th largest item support when single items count
(``min_len == 1``) and the PLT holds k items, so that one mine already
finds k itemsets; otherwise it is the largest item support.  Algorithm 3
(:func:`~repro.core.conditional.mine_conditional`) mines at the guess
``t``; while fewer than k itemsets of at least ``min_len`` items reach
``t`` (and ``t > 1``), ``t`` halves.  The answer is every mined itemset
at or above the k-th largest support found.  It is exact: once k
itemsets reach ``t``, the k-th largest support overall is at least
``t``, so every itemset that reaches it was mined.  The guess may fall
below the PLT's own ``min_support``; the items the PLT dropped stay out.

Practical limit: while fewer than ``k`` itemsets exist at all, the
threshold halves down to 1, so very large ``k`` (beyond the count of
clearly-frequent itemsets) degenerates towards support-1 mining.  ``k``
up to a few thousand is the intended regime — beyond that, mine at an
explicit low threshold instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.data.transaction_db import check_max_len
from repro.errors import InvalidSupportError

__all__ = ["mine_top_k"]


def _top_k_columns(
    plt: PLT, k: int, min_len: int, max_len: int | None
) -> RankColumns:
    """:func:`mine_top_k`'s itemsets as a
    :class:`~repro.core.columns.RankColumns`, one block per length."""
    supports = np.sort(np.asarray(plt.flat.rank_supports()[1:], np.int64))[::-1]
    if not len(supports):
        return RankColumns()
    t = int(supports[k - 1] if min_len == 1 and len(supports) >= k else supports[0])
    while True:
        levels = [
            (ranks, sups)
            for ranks, sups in mine_conditional(plt, t, max_len=max_len).by_length()
            if ranks.shape[1] >= min_len
        ]
        found = sum(len(sups) for _, sups in levels)
        if found >= k or t == 1:
            break
        t //= 2
    cutoff = 1
    if found >= k:
        every = np.concatenate([sups for _, sups in levels])
        cutoff = np.partition(every, found - k)[found - k]
    return RankColumns((ranks[sups >= cutoff], sups[sups >= cutoff]) for ranks, sups in levels)


def mine_top_k(
    plt: PLT,
    k: int,
    *,
    min_len: int = 1,
    max_len: int | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """The ``k`` highest-support itemsets with ``min_len <= size``.

    Ties at the cut-off support are all included, so the result may
    exceed ``k`` (the standard convention: the result is exactly every
    itemset with support >= the k-th best support).  Returns
    ``(sorted_ranks, support)`` pairs, highest support first, then
    shortest, then by ranks.
    """
    if k < 1:
        raise InvalidSupportError(f"k must be >= 1, got {k}")
    if min_len < 1:
        raise InvalidSupportError(f"min_len must be >= 1, got {min_len}")
    check_max_len(max_len)
    if max_len is not None and max_len < min_len:
        raise InvalidSupportError("max_len must be >= min_len")
    pairs = _top_k_columns(plt, k, min_len, max_len).pairs()
    return sorted(pairs, key=lambda pair: (-pair[1], len(pair[0]), pair[0]))
