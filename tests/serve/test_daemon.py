"""End-to-end tests against a real ``python -m repro serve`` subprocess.

These exercise the full stack — CLI argument parsing, index build (from a
``.dat`` file or a compressed store), READY-line startup contract, the
socket protocol, and SIGTERM shutdown (asserted by the fixture teardown's
leak checks in :mod:`tests.conftest`).
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import pytest

from repro.core.mining import mine_frequent_itemsets
from repro.core.plt import PLT
from repro.core.rank import sort_key
from repro.compress.store import PLTStore
from repro.serve.client import ServeClient
from tests.conftest import _shm_segments, daemon_segments, random_database


@pytest.fixture(scope="module")
def db():
    # FIMI-style int items so the .dat round-trip is exact
    return random_database(9400, max_items=9, max_transactions=35)


def _expected_topk(db, min_support, item):
    result = mine_frequent_itemsets(db, min_support)
    entries = [(list(fi.items), fi.support) for fi in result if item in set(fi.items)]
    entries.sort(key=lambda e: (-e[1], len(e[0]), [sort_key(i) for i in e[0]]))
    return entries


class TestStartupContract:
    def test_ready_line_announces_index_shape(self, serve_daemon, db):
        handle = serve_daemon(db, 2)
        plt = PLT.from_transactions(db, 2)
        assert handle.info["host"] == "127.0.0.1"
        assert handle.port > 0
        assert int(handle.info["items"]) == len(plt.rank_table)
        assert int(handle.info["min_support"]) == 2
        assert int(handle.info["n_transactions"]) == len(db)

    def test_daemon_refuses_bad_invocations(self, serve_daemon, db, tmp_path):
        # both --db and --store: must exit nonzero fast, not hang
        with pytest.raises(AssertionError):
            serve_daemon(db, 2, extra_args=("--store", str(tmp_path / "x.plt")))

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_shm_check_blames_only_daemon_segments(self, serve_daemon, db):
        # the fixture's teardown check: a segment under a daemon's pid is
        # a leak, one any other process makes meanwhile is not
        handle = serve_daemon(db, 2)
        leaked = shared_memory.SharedMemory(
            create=True, size=8, name=f"plt_shm_{handle.proc.pid}_0badcafe"
        )
        bystander = shared_memory.SharedMemory(
            create=True, size=8, name=f"plt_shm_{os.getpid()}_0badcafe"
        )
        try:
            found = daemon_segments(_shm_segments(), [handle.proc.pid])
            assert found == [leaked.name]
        finally:
            for segment in (leaked, bystander):
                segment.close()
                segment.unlink()


class TestWireQueries:
    def test_frequency_topk_rules_over_the_wire(self, serve_daemon, db):
        handle = serve_daemon(db, 2)
        table = mine_frequent_itemsets(db, 2).as_dict()
        with ServeClient(port=handle.port) as client:
            assert client.ping() is True
            # frequency: probe a known frequent singleton
            some_items = sorted({i for it in table for i in it}, key=sort_key)
            item = some_items[0]
            env = client.frequency([item])
            assert env["ok"] and env["result"]["frequent"] is True
            assert env["result"]["support"] == table[frozenset([item])]
            # topk equals the direct mine, over a real socket
            env = client.topk(item, k=None)
            assert env["ok"] and env["complete"]
            got = [(e["items"], e["support"]) for e in env["result"]["itemsets"]]
            assert got == _expected_topk(db, 2, item)
            # stats reflect the queries this connection made
            stats = client.stats()
            assert stats["queries"] >= 3
            assert stats["index"]["n_transactions"] == len(db)

    def test_budget_trip_over_the_wire(self, serve_daemon, db):
        handle = serve_daemon(db, 2)
        table = mine_frequent_itemsets(db, 2).as_dict()
        item = sorted({i for it in table for i in it}, key=sort_key)[0]
        n_containing = sum(1 for it in table if item in it)
        with ServeClient(port=handle.port) as client:
            env = client.topk(item, k=None, budget={"max_itemsets": 1})
            assert env["ok"]
            if n_containing > 1:
                assert env["complete"] is False
                assert env["stop_reason"] == "max_itemsets"

    def test_multiple_clients_share_cache(self, serve_daemon, db):
        handle = serve_daemon(db, 2)
        table = mine_frequent_itemsets(db, 2).as_dict()
        item = sorted({i for it in table for i in it}, key=sort_key)[0]
        with ServeClient(port=handle.port) as first:
            assert first.topk(item, k=None)["source"] == "miss"
        with ServeClient(port=handle.port) as second:
            env = second.topk(item, k=None)
            assert env["source"] == "hit"
            stats = second.stats()
            assert stats["cache"]["hits"] >= 1


class TestStoreMode:
    def test_serve_from_compressed_store(self, serve_daemon, db, tmp_path):
        plt = PLT.from_transactions(db, 2)
        store_path = tmp_path / "served.plt"
        PLTStore.write(plt, store_path)
        handle = serve_daemon(store=store_path)
        assert int(handle.info["min_support"]) == 2
        assert int(handle.info["n_transactions"]) == len(db)
        table = mine_frequent_itemsets(db, 2).as_dict()
        item = sorted({i for it in table for i in it}, key=sort_key)[0]
        with ServeClient(port=handle.port) as client:
            env = client.topk(item, k=None)
            assert env["ok"] and env["complete"]
            got = [(e["items"], e["support"]) for e in env["result"]["itemsets"]]
            assert got == _expected_topk(db, 2, item)


class TestCliOptions:
    def test_no_coalesce_and_cache_size_flags(self, serve_daemon, db):
        handle = serve_daemon(
            db, 2, extra_args=("--no-coalesce", "--cache-size", "0")
        )
        table = mine_frequent_itemsets(db, 2).as_dict()
        item = sorted({i for it in table for i in it}, key=sort_key)[0]
        with ServeClient(port=handle.port) as client:
            a = client.topk(item, k=None)
            b = client.topk(item, k=None)
            # cache disabled: both queries recompute
            assert a["source"] == "miss" and b["source"] == "miss"

    def test_itemset_cap_flag_bounds_every_query(self, serve_daemon, db):
        handle = serve_daemon(db, 2, extra_args=("--itemset-cap", "1"))
        table = mine_frequent_itemsets(db, 2).as_dict()
        item = sorted({i for it in table for i in it}, key=sort_key)[0]
        n_containing = sum(1 for it in table if item in it)
        with ServeClient(port=handle.port) as client:
            env = client.topk(item, k=None)  # no per-request budget given
            assert env["ok"]
            if n_containing > 1:
                assert env["complete"] is False
