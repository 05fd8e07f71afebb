"""Closed and maximal frequent-itemset mining over the PLT.

The paper's related work (COFI-tree, CT-ITL, the FIMI workshop entries)
made condensed representations the standard follow-up to any new mining
structure, so a credible PLT release needs them:

* a **closed** itemset has no proper superset with the same support — the
  lossless condensed representation (every frequent itemset's support is
  the max over its closed supersets);
* a **maximal** itemset has no frequent proper superset — the smallest
  (lossy) representation of the frequent border.

Both are array filters over Algorithm 3's output
(:func:`~repro.core.conditional.mine_conditional`), one length at a time.
Checking the one-item-larger supersets is enough: if ``X ⊂ Y`` has
``support(X) == support(Y)``, then so has ``X ∪ {i}`` for every
``i ∈ Y \\ X`` (support is sandwiched between the two), and a frequent
proper superset has a frequent one-item-larger subset by downward
closure.  :func:`~repro.core.columns.drop_one_index` links every
itemset of length ``L + 1`` to its ``L + 1`` subsets of length ``L``,
and the subsets it links to are dropped: every one for maximal, those of
equal support for closed.
"""

from __future__ import annotations

import numpy as np

from repro.core.columns import RankColumns, drop_one_index
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT

__all__ = ["mine_closed", "mine_maximal"]


def _condensed(plt: PLT, min_support: int | None, closed: bool) -> RankColumns:
    """The frequent itemsets no one-item-larger frequent superset
    subsumes: of equal support (``closed``), or at all."""
    levels = mine_conditional(plt, min_support).by_length()
    out = RankColumns()
    for (ranks, supports), longer in zip(levels, levels[1:] + [None]):
        subsumed = np.zeros(len(supports), bool)
        if longer is not None:
            index = drop_one_index(ranks, longer[0])
            if closed:
                index = index[supports[index] == longer[1][:, None]]
            subsumed[index.ravel()] = True
        out.add(ranks[~subsumed], supports[~subsumed])
    return out


def mine_closed(plt: PLT, min_support: int | None = None) -> RankColumns:
    """All closed frequent itemsets, as a
    :class:`~repro.core.columns.RankColumns` of exact supports: the
    frequent itemsets with no one-item-larger superset of equal
    support."""
    return _condensed(plt, min_support, closed=True)


def mine_maximal(plt: PLT, min_support: int | None = None) -> RankColumns:
    """All maximal frequent itemsets, as a
    :class:`~repro.core.columns.RankColumns` of exact supports: the
    frequent itemsets with no one-item-larger frequent superset."""
    return _condensed(plt, min_support, closed=False)
