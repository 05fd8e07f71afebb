"""StreamSummary: labeled answers, rank keying, serialization."""

import random
from collections import Counter

import pytest

from repro.core.mining import ApproximateResult
from repro.errors import CheckpointError, InvalidParameterError
from repro.stream.summary import RankRegistry, StreamSummary


def _transactions(seed, n=800, universe=30, max_len=6):
    rng = random.Random(seed)
    items = [f"i{k}" for k in range(universe)]
    weights = [1.0 / (k + 1) for k in range(universe)]
    out = []
    for _ in range(n):
        size = rng.randint(1, max_len)
        out.append(tuple(set(rng.choices(items, weights=weights, k=size))))
    return out


def _exact_counts(txs):
    singles, pairs = Counter(), Counter()
    for t in txs:
        u = sorted(set(t))
        for i in u:
            singles[i] += 1
        for a in range(len(u)):
            for b in range(a + 1, len(u)):
                pairs[(u[a], u[b])] += 1
    return singles, pairs


class TestRankRegistry:
    def test_arrival_order_stable(self):
        reg = RankRegistry()
        assert reg.rank_for("b") == 1
        assert reg.rank_for("a") == 2
        assert reg.rank_for("b") == 1  # existing ranks never shift
        assert reg.item(2) == "a"
        assert "a" in reg and "z" not in reg
        assert reg.rank_for("z", create=False) is None

    def test_round_trip(self):
        reg = RankRegistry()
        for item in ("x", 7, "y", 0):
            reg.rank_for(item)
        back = RankRegistry.from_bytes(reg.to_bytes())
        assert back.items() == reg.items()
        assert back.rank_for(7, create=False) == reg.rank_for(7, create=False)

    def test_non_scalar_labels_rejected(self):
        reg = RankRegistry()
        reg.rank_for(("tuple", "label"))
        with pytest.raises(CheckpointError):
            reg.to_bytes()


class TestAnswers:
    def test_every_answer_is_labeled_approximate(self):
        s = StreamSummary(epsilon=0.02, capacity=32)
        for t in _transactions(0):
            s.push(t)
        for answer in (s.frequency(("i0",)), s.top_k(5), s.as_result(0.1)):
            assert isinstance(answer, ApproximateResult)
            assert answer.approximate and not answer.complete
            assert answer.disclaimer
            assert answer.info["error_bound"] >= 0
            assert answer.info["epsilon"] == 0.02

    def test_estimates_one_sided(self):
        txs = _transactions(1)
        singles, pairs = _exact_counts(txs)
        s = StreamSummary(epsilon=0.01, capacity=64)
        for t in txs:
            s.push(t)
        for item, true in singles.items():
            assert s.estimate((item,)) >= true
        for pair, true in pairs.items():
            assert s.estimate(pair) >= true

    def test_triple_uses_subset_upper_bound(self):
        txs = [("a", "b", "c")] * 10 + [("a", "b")] * 5
        s = StreamSummary(epsilon=0.1, capacity=16)
        for t in txs:
            s.push(t)
        est = s.estimate(("a", "b", "c"))
        assert est >= 10  # true support
        assert est <= s.estimate(("a", "b"))  # min over the pairs

    def test_unseen_item_estimates_zero(self):
        s = StreamSummary()
        s.push(("a",))
        assert s.estimate(("never",)) == 0
        result = s.frequency(("never",), 1)
        assert len(result) == 0
        assert result.info["estimate"] == 0

    def test_empty_itemset_rejected(self):
        s = StreamSummary()
        with pytest.raises(InvalidParameterError):
            s.estimate(())
        with pytest.raises(InvalidParameterError):
            s.top_k(0)

    def test_frequency_threshold_filtering(self):
        s = StreamSummary(epsilon=0.1)
        for _ in range(10):
            s.push(("hot",))
        s.push(("cold",))
        assert len(s.frequency(("hot",), 5)) == 1
        assert len(s.frequency(("cold",), 5)) == 0

    def test_as_result_enumerates_singles_and_pairs(self):
        txs = [("a", "b")] * 20 + [("c",)] * 3
        s = StreamSummary(epsilon=0.1, capacity=16)
        for t in txs:
            s.push(t)
        found = s.as_result(10).as_dict()
        assert frozenset(("a",)) in found
        assert frozenset(("a", "b")) in found
        assert frozenset(("c",)) not in found

    def test_track_pairs_off(self):
        s = StreamSummary(track_pairs=False, epsilon=0.1)
        for t in _transactions(2, n=100):
            s.push(t)
        assert s.pairs_cms is None
        est = s.estimate(("i0", "i1"))
        assert est <= min(s.estimate(("i0",)), s.estimate(("i1",)))


class TestMemoryAndSerialization:
    def test_memory_bounded_as_stream_grows(self):
        s = StreamSummary(epsilon=0.01, capacity=64)
        for t in _transactions(3, n=200):
            s.push(t)
        # hard ceiling independent of stream length: fixed CMS tables plus
        # capacity-bounded summaries (lazy heaps rebuild at 4x capacity)
        cap = (
            s.items_cms.memory_bytes()
            + s.pairs_cms.memory_bytes()
            + 2 * (64 * 120 + (4 * 64 + 64 + 1) * 40)
        )
        for t in _transactions(4, n=5000):
            s.push(t)
        assert s.memory_bytes() <= cap

    def test_sketch_of_a_full_dataset_stays_within_256_kib(self):
        # perfbench's stream-ingest (epsilon, delta, capacity); the budget
        # is the one perfbench's worker also counts as a wrong answer
        from repro.data.datasets import load

        s = StreamSummary(epsilon=0.005, delta=0.01, capacity=256, seed=0)
        s.extend(tuple(t) for t in load("T10.I4.D5K"))
        assert s.memory_bytes() <= 256 * 1024

    def test_round_trip_byte_identical(self):
        s = StreamSummary(epsilon=0.02, capacity=32, seed=5)
        for t in _transactions(5):
            s.push(t)
        blob = s.to_bytes()
        back = StreamSummary.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.state_digest() == s.state_digest()
        assert back.estimate(("i0",)) == s.estimate(("i0",))
        assert back.as_result(0.1).as_dict() == s.as_result(0.1).as_dict()

    def test_restored_summary_keeps_ingesting_identically(self):
        txs = _transactions(6)
        half = len(txs) // 2
        a = StreamSummary(epsilon=0.05, capacity=16, seed=1)
        for t in txs[:half]:
            a.push(t)
        b = StreamSummary.from_bytes(a.to_bytes())
        for t in txs[half:]:
            a.push(t)
            b.push(t)
        assert a.state_digest() == b.state_digest()

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            StreamSummary.from_bytes(b"junk")
        blob = StreamSummary().to_bytes()
        with pytest.raises(CheckpointError):
            StreamSummary.from_bytes(blob + b"trailing")
