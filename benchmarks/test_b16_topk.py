"""B16 — top-k mining vs threshold mining.

Top-k discovers its own threshold: it mines at a guess (the k-th
largest item support, or the largest when ``min_len > 1``) and halves
it until k itemsets reach it.  The question is what that convenience
costs against mining at the (post-hoc known) equivalent threshold.
``extra_info`` records the discovered cutoff.
"""

import pytest

from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.topk import mine_top_k

from conftest import abs_support

K_VALUES = (10, 100, 1000)


@pytest.fixture(scope="module")
def plt_sparse(sparse_db):
    return PLT.from_transactions(sparse_db, abs_support(sparse_db, 0.002))


@pytest.mark.parametrize("k", K_VALUES)
def test_b16_top_k(benchmark, plt_sparse, k):
    benchmark.group = f"B16 k={k}"
    pairs = benchmark.pedantic(
        mine_top_k, args=(plt_sparse, k), rounds=2, iterations=1
    )
    cutoff = min(s for _, s in pairs)
    benchmark.extra_info["discovered_cutoff"] = cutoff
    benchmark.extra_info["n_returned"] = len(pairs)


@pytest.mark.parametrize("k", K_VALUES)
def test_b16_equivalent_threshold(benchmark, plt_sparse, k):
    benchmark.group = f"B16 k={k}"
    cutoff = min(s for _, s in mine_top_k(plt_sparse, k))
    pairs = benchmark.pedantic(
        mine_conditional, args=(plt_sparse, cutoff), rounds=2, iterations=1
    )
    benchmark.extra_info["threshold"] = cutoff
    benchmark.extra_info["n_itemsets"] = len(pairs)


def test_b16_exactness(plt_sparse):
    for k in K_VALUES:
        pairs = mine_top_k(plt_sparse, k)
        cutoff = min(s for _, s in pairs)
        assert sorted(pairs) == sorted(mine_conditional(plt_sparse, cutoff))
