"""Batched sketch ingest: hash parity, bulk-update guarantees, determinism.

``StreamSummary.extend`` aggregates each block of transactions and feeds
it to :meth:`CountMinSketch.add_many` and :meth:`SpaceSaving.update`.
These tests pin the batched paths to the scalar ones they replace: the
vectorised hash equals ``_indexes`` bit for bit, the bulk conservative
update stays between the true count and the plain count-min cell, and
the space-saving merge keeps the Metwally invariants.
"""

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import SlidingWindowPLT
from repro.errors import InvalidParameterError
from repro.stream import SlidingWindowSketch, StreamIngestor, StreamSummary
from repro.stream.cms import _PRIME, CountMinSketch, pack_pair
from repro.stream.ingest import sketch_digest
from repro.stream.spacesaving import SpaceSaving
from repro.stream.summary import INGEST_BATCH

FIXTURES = Path(__file__).resolve().parent / "fixtures"

EDGE_KEYS = [0, 1, _PRIME - 1, _PRIME, _PRIME + 1, 2 * _PRIME, 2**63, 2**64 - 1]


def _rows(cms, keys):
    return [row.copy() for tile in cms._tiles(np.array(keys, dtype=np.uint64)) for row in tile]


def _transactions(seed, n=300, universe=40):
    rng = random.Random(seed)
    return [
        tuple(rng.sample(range(universe), rng.randint(0, 8))) for _ in range(n)
    ]


class TestHashParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_64_bit_keys(self, seed):
        rng = random.Random(seed)
        keys = [rng.getrandbits(64) for _ in range(2000)]
        cms = CountMinSketch(epsilon=0.003, delta=0.001, seed=seed)
        rows = _rows(cms, keys)
        for j, key in enumerate(keys):
            assert [int(row[j]) for row in rows] == cms._indexes(key)

    def test_edge_values_and_packed_pairs(self):
        pairs = [pack_pair(1, 2), pack_pair(2**31, 2**31 + 1), pack_pair(2**32 - 2, 2**32 - 1)]
        keys = EDGE_KEYS + pairs
        for seed in range(3):
            cms = CountMinSketch(seed=seed)
            rows = _rows(cms, keys)
            for j, key in enumerate(keys):
                assert [int(row[j]) for row in rows] == cms._indexes(key), key

    def test_estimate_many_matches_scalar_estimate(self):
        cms = CountMinSketch(epsilon=0.05, seed=3)
        for key in range(200):
            cms.add(key % 37, 1 + key % 3)
        keys = list(range(60)) + EDGE_KEYS
        assert cms.estimate_many(keys).tolist() == [cms.estimate(k) for k in keys]
        assert cms.estimate_many([]).tolist() == []


class TestAddMany:
    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.one_of(st.integers(0, 30), st.sampled_from(EDGE_KEYS)),
                    st.integers(1, 5),
                ),
                max_size=25,
            ),
            max_size=8,
        ),
        seed=st.integers(0, 3),
    )
    def test_between_true_count_and_plain_cell(self, batches, seed):
        batched = CountMinSketch(epsilon=0.2, delta=0.2, seed=seed)
        plain = CountMinSketch(epsilon=0.2, delta=0.2, seed=seed, conservative=False)
        exact = Counter()
        for batch in batches:
            block = Counter()
            for key, count in batch:
                block[key] += count
                plain.add(key, count)
            keys = sorted(block)
            batched.add_many(keys, [block[k] for k in keys])
            exact.update(block)
        assert batched.total == plain.total == sum(exact.values())
        for key, true in exact.items():
            assert batched.estimate(key) >= true
        assert all(b <= p for b, p in zip(batched._cells, plain._cells))

    def test_plain_add_many_equals_scalar_adds(self):
        batched = CountMinSketch(epsilon=0.1, seed=5, conservative=False)
        scalar = CountMinSketch(epsilon=0.1, seed=5, conservative=False)
        keys, counts = [3, 7, 9, 2**40], [1, 2, 3, 4]
        batched.add_many(keys, counts)
        for key, count in zip(keys, counts):
            scalar.add(key, count)
        assert batched.to_bytes() == scalar.to_bytes()

    @pytest.mark.parametrize(
        "keys, counts",
        [([1, 2], [1, 0]), ([1, 2], [1]), ([2, 1], [1, 1]), ([1, 1], [1, 1])],
        ids=["zero-count", "lengths", "unsorted", "repeat"],
    )
    def test_rejects_bad_batches(self, keys, counts):
        cms, ss = CountMinSketch(), SpaceSaving(4)
        with pytest.raises(InvalidParameterError):
            cms.add_many(keys, counts)
        with pytest.raises(InvalidParameterError):
            ss.update(keys, counts)
        assert cms.total == ss.total == 0

    def test_empty_batch_is_a_no_op(self):
        cms, ss = CountMinSketch(), SpaceSaving(4)
        cms.add_many([], [])
        ss.update([], [])
        assert cms.total == ss.total == 0


def _reference_update(ss, keys, counts):
    """The merge rule written out directly: ``(counts, errors)`` dicts."""
    counts_of, errors_of = dict(ss._counts), dict(ss._errors)
    mu = min(counts_of.values()) if len(counts_of) >= ss.capacity else 0
    for key, count in zip(keys, counts):
        if key in counts_of:
            counts_of[key] += count
        else:
            counts_of[key], errors_of[key] = mu + count, mu
    rows = sorted(counts_of, key=lambda k: (-counts_of[k], errors_of[k], k))
    kept = rows[: ss.capacity]
    return {k: counts_of[k] for k in kept}, {k: errors_of[k] for k in kept}


class TestSpaceSavingUpdate:
    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        batches=st.lists(
            st.dictionaries(st.integers(0, 40), st.integers(1, 6), max_size=20),
            max_size=10,
        ),
    )
    def test_metwally_invariants(self, capacity, batches):
        ss = SpaceSaving(capacity)
        exact = Counter()
        for batch in batches:
            keys = sorted(batch)
            expected = _reference_update(ss, keys, [batch[k] for k in keys])
            ss.update(keys, [batch[k] for k in keys])
            exact.update(batch)
            assert (ss._counts, ss._errors) == expected
            n = sum(exact.values())
            assert ss.total == n
            assert len(ss) <= capacity
            assert sum(count for _k, count, _e in ss.entries()) <= n
            for key, count, error in ss.entries():
                assert count >= exact[key] >= count - error
            for key, true in exact.items():
                if true > n / capacity:
                    assert key in ss

    def test_scalar_add_after_a_batch(self):
        ss = SpaceSaving(3)
        ss.update([2, 5, 9], [4, 2, 1])
        assert ss.entries() == [(2, 4, 0), (5, 2, 0), (9, 1, 0)]
        ss.add(7)  # the heap is rebuilt: the scalar path evicts the minimum
        assert ss.estimate(7) == (2, 1)
        assert 9 not in ss


class TestDeterminism:
    def test_same_call_sequence_same_digest(self):
        txs = _transactions(1)
        digests = []
        for _ in range(2):
            s = StreamSummary(epsilon=0.05, capacity=16, seed=3)
            s.extend(txs[:100])
            for t in txs[100:110]:
                s.push(t)
            s.extend(iter(txs[110:]))  # any iterable, split the same way
            digests.append(s.state_digest())
        assert digests[0] == digests[1]

    def test_push_is_extend_of_one(self):
        a = StreamSummary(epsilon=0.05, capacity=8)
        b = StreamSummary(epsilon=0.05, capacity=8)
        for t in _transactions(2, n=40):
            a.push(t)
            b.extend((t,))
        assert a.state_digest() == b.state_digest()

    def test_restored_summary_reports_the_same_info(self):
        s = StreamSummary(epsilon=0.05, capacity=8)
        s.extend(_transactions(6))
        back = StreamSummary.from_bytes(s.to_bytes())
        assert back.memory_bytes() == s.memory_bytes()
        assert back.top_k(5).info == s.top_k(5).info
        assert back.as_result(10).info == s.as_result(10).info

    def test_extend_splits_into_fixed_blocks(self):
        txs = _transactions(3, n=2 * INGEST_BATCH + 5)
        whole = StreamSummary(epsilon=0.05, capacity=8)
        assert whole.extend(txs) == len(txs)
        blocks = StreamSummary(epsilon=0.05, capacity=8)
        for start in range(0, len(txs), INGEST_BATCH):
            blocks.extend(txs[start : start + INGEST_BATCH])
        assert whole.state_digest() == blocks.state_digest()


class TestEdgeCases:
    def test_empty_chunk_changes_nothing(self):
        s = StreamSummary()
        before = s.state_digest()
        assert s.extend([]) == 0
        assert s.state_digest() == before

    def test_empty_transactions_count_but_add_no_keys(self):
        s = StreamSummary()
        s.extend([(), (), ("a",), ()])
        assert s.n_transactions == 4
        assert s.items_cms.total == 1
        assert s.pairs_cms.total == 0
        assert s.estimate(("a",)) == 1

    def test_without_pairs(self):
        s = StreamSummary(track_pairs=False, capacity=4)
        s.extend([("a", "b"), ("a", "c"), ("a",)])
        assert s.pairs_cms is None and s.pairs_hh is None
        assert s.estimate(("a",)) == 3
        assert s.estimate(("a", "b")) >= 1  # the item-minimum upper bound
        assert StreamSummary.from_bytes(s.to_bytes()).to_bytes() == s.to_bytes()

    def test_string_labels_and_duplicates_within_a_transaction(self):
        s = StreamSummary(capacity=8)
        s.extend([("x", "y", "x"), ("y", "z"), ("x", "y")])
        assert s.estimate(("x",)) >= 2
        assert s.estimate(("x", "y")) >= 2
        assert s.top_k(2).as_dict() == {frozenset({"y"}): 3, frozenset({"x"}): 2}


class TestExactBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_sided_item_and_pair_estimates(self, seed):
        txs = _transactions(seed, n=700, universe=60)
        s = StreamSummary(epsilon=0.02, capacity=32, seed=seed)
        s.extend(txs)
        items = Counter(x for t in txs for x in set(t))
        pairs = Counter(
            (a, b) for t in txs for a in set(t) for b in set(t) if a < b
        )
        assert all(s.estimate((x,)) >= n for x, n in items.items())
        assert all(s.estimate(p) >= n for p, n in pairs.items())
        assert s.items_cms.total == sum(items.values())


class TestBulkCallers:
    def test_ingestor_ticks_land_on_the_same_counts(self):
        reports = []
        ing = StreamIngestor(
            StreamSummary(epsilon=0.05, capacity=8),
            report_every=7,
            on_report=lambda sk, n: reports.append((n, sk.n_transactions)),
        )
        assert ing.feed(iter(_transactions(4, n=50))) == 50
        assert reports == [(n, n) for n in range(7, 50, 7)]

    def test_window_extend_respects_generations_and_feeds_the_tail(self):
        txs = _transactions(5, n=230)
        pushed = SlidingWindowSketch(100, buckets=4, epsilon=0.05, capacity=8, exact_tail=30)
        for t in txs:
            pushed.push(t)
        extended = SlidingWindowSketch(100, buckets=4, epsilon=0.05, capacity=8, exact_tail=30)
        assert extended.extend(iter(txs)) == len(txs)
        assert extended.covered() == pushed.covered()
        assert extended.n_seen == pushed.n_seen == len(txs)
        spans = [g.n_transactions for g in extended._generations]
        assert spans == [g.n_transactions for g in pushed._generations]
        assert all(n <= extended.bucket_span for n in spans)
        tail = SlidingWindowPLT(30, txs)
        assert extended.mine_exact_tail(3) == tail.mine(3)


class TestSnapshotFormat:
    """A summary written by the scalar-update code restores unchanged.

    ``fixtures/summary_v1.bin`` is ``StreamSummary(epsilon=0.05,
    delta=0.1, capacity=8, seed=11).to_bytes()`` after 60 pushes from
    the per-key implementation that preceded batched ingest;
    ``summary_v1.json`` holds that implementation's answers.
    """

    def test_restores_reserialises_and_answers_the_same(self):
        blob = (FIXTURES / "summary_v1.bin").read_bytes()
        expected = json.loads((FIXTURES / "summary_v1.json").read_text())
        summary = StreamSummary.from_bytes(blob)
        assert summary.to_bytes() == blob
        assert summary.state_digest() == expected["digest"]
        for item, est in expected["items"].items():
            assert summary.estimate((item,)) == est
        for pair, est in expected["pairs"]:
            assert summary.estimate(pair) == est
        top = [[list(fi.items), fi.support] for fi in summary.top_k(6)]
        assert top == expected["top_k"]

    def test_window_restores_reserialises_and_answers_the_same(self):
        """``fixtures/window_v1.bin`` is the payload (no kind tag) of
        ``SlidingWindowSketch(60, buckets=3, epsilon=0.05, delta=0.1,
        capacity=8, seed=7, exact_tail=15)`` after 100 pushes of string
        items, written by the window codec that lived in
        ``repro.stream.ingest``; ``window_v1.json`` holds its answers."""
        blob = (FIXTURES / "window_v1.bin").read_bytes()
        expected = json.loads((FIXTURES / "window_v1.json").read_text())
        window = SlidingWindowSketch.from_bytes(blob)
        assert window.to_bytes() == blob
        assert sketch_digest(window) == expected["digest"]
        assert window.covered() == expected["covered"]
        assert window.n_seen == expected["n_seen"]
        assert all(g.registry is window.registry for g in window._generations)
        for item, est in expected["items"].items():
            assert window.estimate((item,)) == est
        for pair, est in expected["pairs"]:
            assert window.estimate(pair) == est
        top = [[list(fi.items), fi.support] for fi in window.top_k(6)]
        assert top == expected["top_k"]
        frequent = [[list(fi.items), fi.support] for fi in window.as_result(5)]
        assert frequent == expected["frequent"]
        tail = [[list(items), support] for items, support in window.mine_exact_tail(2)]
        assert tail == expected["exact_tail"]
