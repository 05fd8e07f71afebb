"""B13 — condensed representations: direct mining vs post-filtering.

On dense data the closed/maximal sets are orders of magnitude smaller
than the full frequent set.  ``mine_closed``/``mine_maximal`` mine every
frequent itemset with Algorithm 3 and filter its blocks level to level
(an itemset goes when a one-item-larger superset has equal support, or
for maximal any superset), so their time is the full mine plus one
array pass; the assertion pins the output reduction.  ``extra_info``
records the compression factors the condensed-patterns example reports.
"""

import pytest

from repro.core.closed import mine_closed, mine_maximal
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT

from conftest import abs_support

SUPPORT = 0.2


@pytest.fixture(scope="module")
def dense_plt(dense_db):
    return PLT.from_transactions(dense_db, abs_support(dense_db, SUPPORT))


def test_b13_full_mining(benchmark, dense_plt):
    benchmark.group = "B13 condensed"
    pairs = benchmark.pedantic(
        mine_conditional, args=(dense_plt, dense_plt.min_support), rounds=2, iterations=1
    )
    benchmark.extra_info["n_itemsets"] = len(pairs)


def test_b13_closed_direct(benchmark, dense_plt):
    benchmark.group = "B13 condensed"
    pairs = benchmark.pedantic(
        mine_closed, args=(dense_plt, dense_plt.min_support), rounds=2, iterations=1
    )
    benchmark.extra_info["n_closed"] = len(pairs)


def test_b13_maximal_direct(benchmark, dense_plt):
    benchmark.group = "B13 condensed"
    pairs = benchmark.pedantic(
        mine_maximal, args=(dense_plt, dense_plt.min_support), rounds=2, iterations=1
    )
    benchmark.extra_info["n_maximal"] = len(pairs)


def test_b13_condensed_sets_much_smaller(dense_plt):
    full = mine_conditional(dense_plt, dense_plt.min_support)
    closed = mine_closed(dense_plt, dense_plt.min_support)
    maximal = mine_maximal(dense_plt, dense_plt.min_support)
    assert len(closed) < len(full) / 5
    assert len(maximal) < len(closed)
