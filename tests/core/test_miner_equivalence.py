"""Cross-method equivalence: every miner computes the same ground truth.

This is the repository's central correctness property (DESIGN.md §5): the
two PLT algorithms and every baseline must agree exactly — itemsets *and*
supports — with the brute-force oracle on arbitrary inputs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import mine_bruteforce
from repro.core.mining import mine_frequent_itemsets
from tests.conftest import ALL_METHODS, random_database

# databases: up to 18 transactions over up to 7 items
transactions_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=7),
    min_size=1,
    max_size=18,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(db=transactions_strategy, min_support=st.integers(min_value=1, max_value=6))
@pytest.mark.parametrize("method", ALL_METHODS)
def test_method_matches_oracle(method, db, min_support):
    truth = mine_bruteforce(db, min_support)
    got = mine_frequent_itemsets(db, min_support, method=method).as_dict()
    assert got == truth


@settings(max_examples=30, deadline=None)
@given(db=transactions_strategy, min_support=st.integers(min_value=1, max_value=4))
def test_all_methods_pairwise_equal(db, min_support):
    results = {
        method: mine_frequent_itemsets(db, min_support, method=method).as_dict()
        for method in ALL_METHODS
    }
    reference = results["plt"]
    for method, table in results.items():
        assert table == reference, method


@settings(max_examples=30, deadline=None)
@given(
    db=transactions_strategy,
    min_support=st.integers(min_value=1, max_value=4),
    order=st.sampled_from(["lexicographic", "support_asc", "support_desc"]),
)
def test_plt_order_invariance(db, min_support, order):
    """PLT correctness does not depend on the item-order policy."""
    base = mine_bruteforce(db, min_support)
    for method in ("plt", "plt-topdown"):
        got = mine_frequent_itemsets(db, min_support, method=method, order=order)
        assert got.as_dict() == base


@settings(max_examples=25, deadline=None)
@given(db=transactions_strategy, min_support=st.integers(min_value=1, max_value=4))
def test_antimonotone_property_of_output(db, min_support):
    """Every subset of a frequent itemset is frequent with >= support."""
    table = mine_frequent_itemsets(db, min_support).as_dict()
    for itemset, sup in table.items():
        for item in itemset:
            sub = itemset - {item}
            if sub:
                assert table[sub] >= sup


@settings(max_examples=25, deadline=None)
@given(db=transactions_strategy)
def test_support_monotone_in_threshold(db):
    """Raising min_support can only shrink the result."""
    tables = [
        mine_frequent_itemsets(db, s).as_dict() for s in (1, 2, 3)
    ]
    for lower, higher in zip(tables, tables[1:]):
        assert set(higher) <= set(lower)
        for k, v in higher.items():
            assert lower[k] == v


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("method", ALL_METHODS)
def test_larger_random_databases(seed, method):
    """Bigger than the hypothesis strategies: 40 transactions, 10 items."""
    db = random_database(seed + 900, max_items=10, max_transactions=40)
    for min_support in (2, 5):
        truth = mine_bruteforce(db, min_support)
        got = mine_frequent_itemsets(db, min_support, method=method).as_dict()
        assert got == truth


def test_string_and_int_items_mixed():
    db = [{1, "a"}, {1, "a", "b"}, {1}]
    truth = mine_bruteforce(db, 2)
    for method in ALL_METHODS:
        got = mine_frequent_itemsets(db, 2, method=method).as_dict()
        assert got == truth, method


def test_single_transaction_every_method():
    db = [("x", "y", "z")]
    for method in ALL_METHODS:
        got = mine_frequent_itemsets(db, 1, method=method).as_dict()
        assert len(got) == 7, method
        assert all(v == 1 for v in got.values())


def _plt(db):
    from repro.core.plt import PLT

    return PLT.from_transactions(db, 2)


def _store_mine(db, tmp_path):
    from repro.compress.store import PLTStore

    with PLTStore(PLTStore.write(_plt(db), tmp_path / "db.plts")) as store:
        return store.mine(2, max_len=0)


def _max_len_zero_entries():
    from repro.core.conditional import mine_conditional
    from repro.core.constraints import mine_constrained
    from repro.core.topdown import mine_topdown
    from repro.core.topk import mine_top_k
    from repro.parallel.executor import mine_parallel

    entries = {
        "mine_conditional": lambda db, _: mine_conditional(_plt(db), 2, max_len=0),
        "mine_topdown": lambda db, _: mine_topdown(_plt(db), 2, max_len=0),
        "mine_parallel": lambda db, _: mine_parallel(
            _plt(db), 2, n_workers=2, max_len=0
        ),
        "mine_top_k": lambda db, _: mine_top_k(_plt(db), 3, max_len=0),
        "mine_constrained": lambda db, _: mine_constrained(db, 2, max_len=0),
        "PLTStore.mine": _store_mine,
    }
    for method in ("plt", "plt-topdown", "plt-parallel", "plt-distributed"):
        entries[f"method={method}"] = (
            lambda db, _, m=method: mine_frequent_itemsets(db, 2, method=m, max_len=0)
        )
    return entries


@pytest.mark.parametrize("entry", sorted(_max_len_zero_entries()))
def test_max_len_zero_rejected_by_every_miner(entry, tmp_path):
    # one shared check: a zero length cap is an error everywhere, never
    # "nothing" or "singletons only" depending on the miner
    from repro.errors import InvalidSupportError

    db = random_database(7500, max_items=12, max_transactions=80)
    with pytest.raises(InvalidSupportError, match="max_len"):
        _max_len_zero_entries()[entry](db, tmp_path)
