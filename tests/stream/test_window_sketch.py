"""SlidingWindowSketch: coverage, rotation, exact-tail composition."""

import random

import pytest

from repro.core.mining import ApproximateResult
from repro.errors import InvalidParameterError
from repro.stream.summary import StreamSummary
from repro.stream.window import SlidingWindowSketch


def _txs(seed, n, universe=20):
    rng = random.Random(seed)
    return [
        tuple(set(rng.sample(range(universe), rng.randint(1, 5)))) for _ in range(n)
    ]


class TestCoverage:
    def test_covers_whole_stream_until_window_fills(self):
        w = SlidingWindowSketch(100, buckets=4)
        for t in _txs(0, 60):
            w.push(t)
        assert w.covered() == 60
        assert w.n_seen == 60

    def test_coverage_band_after_rotation(self):
        w = SlidingWindowSketch(100, buckets=4)
        for t in _txs(0, 1000):
            w.push(t)
        # generation-granular eviction: within [window - span, window]
        assert 75 <= w.covered() <= 100
        assert w.n_seen == 1000

    def test_n_transactions_is_the_covered_count(self):
        w = SlidingWindowSketch(40, buckets=4)
        assert w.n_transactions == 0
        w.extend(_txs(8, 95))
        assert w.n_transactions == w.covered() < w.n_seen == 95

    def test_single_bucket_window(self):
        w = SlidingWindowSketch(10, buckets=1)
        for t in _txs(1, 55):
            w.push(t)
        assert 1 <= w.covered() <= 10

    def test_memory_bounded_by_generations(self):
        w = SlidingWindowSketch(100, buckets=4, epsilon=0.05)
        for t in _txs(2, 150):
            w.push(t)
        cap = w.memory_bytes()
        for t in _txs(3, 3000):
            w.push(t)
        assert w.memory_bytes() <= cap * 1.5  # live buckets stay ~buckets+1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SlidingWindowSketch(0)
        with pytest.raises(InvalidParameterError):
            SlidingWindowSketch(10, buckets=0)
        with pytest.raises(InvalidParameterError):
            SlidingWindowSketch(10, exact_tail=11)
        with pytest.raises(InvalidParameterError):
            SlidingWindowSketch(10, exact_tail=-1)


class TestAnswers:
    def test_windowed_answers_labeled(self):
        w = SlidingWindowSketch(50, buckets=2)
        for t in _txs(4, 200):
            w.push(t)
        for answer in (w.frequency((1,)), w.top_k(3), w.as_result(0.2)):
            assert isinstance(answer, ApproximateResult)
            assert answer.approximate and not answer.complete
            assert answer.info["covered"] == w.covered()
            assert answer.info["generations"] >= 1
            assert "sliding window" in answer.disclaimer

    def test_estimates_never_under_covered_truth(self):
        txs = _txs(5, 500)
        w = SlidingWindowSketch(120, buckets=4, epsilon=0.02)
        for t in txs:
            w.push(t)
        covered = txs[-w.covered() :]
        for item in range(20):
            true = sum(1 for t in covered if item in t)
            assert w.estimate((item,)) >= true

    @pytest.mark.parametrize("track_pairs", [True, False])
    def test_enumerated_estimates_equal_point_estimates(self, track_pairs):
        """Candidates are estimated in one batch per generation; each row
        must equal the scalar per-generation sum ``estimate`` returns."""
        w = SlidingWindowSketch(90, buckets=3, capacity=8, track_pairs=track_pairs)
        w.extend(_txs(9, 250))
        rows = list(w.as_result(1)) + list(w.top_k(1000))
        assert len(rows) > 8
        for fi in rows:
            assert fi.support == w.estimate(fi.items)

    def test_bound_sums_over_generations(self):
        w = SlidingWindowSketch(100, buckets=4, epsilon=0.02)
        for t in _txs(6, 300):
            w.push(t)
        per_gen = [g.error_bound(1) for g in w._generations]
        assert w.error_bound(1) == sum(per_gen)

    def test_shared_registry_across_generations(self):
        w = SlidingWindowSketch(20, buckets=4)
        for t in _txs(7, 200):
            w.push(t)
        assert all(g.registry is w.registry for g in w._generations)


class TestOneGenerationIsASummary:
    """A window holding the whole stream in one generation is the summary
    that generation is: same seed (``seed + 2``), same blocks, so every
    answer carries the same itemsets and numbers.  The shared answer
    layer sums over parts; with one part the sum is the summary itself."""

    @staticmethod
    def _pairs(answer):
        return [(fi.items, fi.support) for fi in answer]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_answers_equal(self, seed):
        txs = _txs(seed, 300)
        w = SlidingWindowSketch(len(txs), buckets=1, seed=seed)
        w.extend(txs)
        s = StreamSummary(seed=seed + 2)
        s.extend(txs)
        assert w.covered() == s.n_transactions == len(txs)
        for query in ((1,), (2, 3), (0, 4, 7), (99,)):
            assert w.estimate(query) == s.estimate(query)
            for min_support in (None, 30):
                assert self._pairs(w.frequency(query, min_support)) == self._pairs(
                    s.frequency(query, min_support)
                )
        for k in (1, 5, 50):
            assert self._pairs(w.top_k(k)) == self._pairs(s.top_k(k))
        for min_support in (1, 25, 0.2):
            assert self._pairs(w.as_result(min_support)) == self._pairs(
                s.as_result(min_support)
            )
        assert w.top_k(5).info["candidates"] == s.top_k(5).info["candidates"]


class TestExactTail:
    def test_exact_tail_mines_exactly(self):
        txs = _txs(8, 300)
        w = SlidingWindowSketch(200, buckets=4, exact_tail=30)
        for t in txs:
            w.push(t)
        from repro.core.window import SlidingWindowPLT

        reference = SlidingWindowPLT(30, txs)
        assert w.mine_exact_tail(3) == reference.mine(3)

    def test_exact_tail_disabled_raises(self):
        w = SlidingWindowSketch(50)
        with pytest.raises(InvalidParameterError):
            w.mine_exact_tail(1)
