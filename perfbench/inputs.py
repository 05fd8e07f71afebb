"""Seeded inputs for the benchmark workloads.

Everything the program under test sees comes from here: ``.dat`` files of
transactions and the request sequence of ``serve-mix``.  The generators
live in the benchmark, not in ``repro.data``, so that a change to the
program's own generators cannot change the benchmark's inputs.  They use
only :class:`random.Random`, whose output for a given seed is fixed across
Python versions, so the same seed gives the same bytes.

The seed draws a fresh sample, not a fresh workload: the Quest pattern
table, the dense clusters and the popularity order of ``serve-mix`` items
are fixed, and only the transactions and requests drawn from them depend
on the seed.  A run on another seed then does the same amount of work,
give or take sampling noise, so run-to-run spread measures the program
and the host rather than the inputs.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter

#: Seed of everything that defines a workload's shape.
SHAPE_SEED = 20060801


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's method; fine for the small means used here."""
    limit, k, p = math.exp(-mean), 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def quest(
    n_transactions: int,
    n_items: int,
    *,
    avg_len: float = 10.0,
    avg_pattern_len: float = 4.0,
    n_patterns: int = 500,
    seed: int,
) -> list[list[int]]:
    """IBM Quest market-basket data (Agrawal & Srikant 1994), T10.I4 style.

    Patterns of Poisson length share about half their items with the
    previous pattern, carry exponential weights and a corruption level;
    each transaction of Poisson length is filled with corrupted patterns
    drawn by weight.  The pattern table is fixed; ``seed`` draws the
    transactions.
    """
    rng = random.Random(SHAPE_SEED)
    patterns: list[list[int]] = []
    prev: list[int] = []
    for _ in range(n_patterns):
        size = max(1, _poisson(rng, avg_pattern_len))
        reuse = min(len(prev), size, int(rng.expovariate(2.0) * size))
        items = set(rng.sample(prev, reuse)) if reuse else set()
        while len(items) < size:
            items.add(rng.randrange(n_items))
        prev = sorted(items)
        patterns.append(prev)
    weights = list(itertools.accumulate(rng.expovariate(1.0) for _ in patterns))
    corruption = [min(1.0, max(0.0, rng.gauss(0.5, 0.1))) for _ in patterns]
    rng = random.Random(seed)

    transactions: list[list[int]] = []
    carry: list[int] | None = None
    for _ in range(n_transactions):
        size = max(1, _poisson(rng, avg_len))
        basket: set[int] = set()
        while len(basket) < size:
            if carry is not None:
                chosen, carry = carry, None
            else:
                k = bisect.bisect(weights, rng.random() * weights[-1])
                k = min(k, len(patterns) - 1)
                chosen = [i for i in patterns[k] if rng.random() >= corruption[k]]
            if len(basket) + len(chosen) > size and basket and rng.random() < 0.5:
                carry = chosen
                break
            basket.update(chosen)
        transactions.append(sorted(basket))
    return transactions


def dense(
    n_transactions: int, n_items: int, length: int, *, seed: int, n_clusters: int = 4
) -> list[list[int]]:
    """Dense, correlated, fixed-length transactions (mushroom/chess-like).

    Each transaction draws 80% of its items from a home cluster and the
    rest from the whole universe.
    """
    rng = random.Random(seed)
    clusters = [list(range(c, n_items, n_clusters)) for c in range(n_clusters)]
    transactions = []
    for _ in range(n_transactions):
        home = clusters[rng.randrange(n_clusters)]
        basket = set(rng.sample(home, min(len(home), round(0.8 * length))))
        while len(basket) < length:
            basket.add(rng.randrange(n_items))
        transactions.append(sorted(basket))
    return transactions


def write_dat(transactions, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for t in transactions:
            fh.write(" ".join(map(str, t)) + "\n")


def read_dat(path) -> list[list[int]]:
    with open(path, encoding="ascii") as fh:
        return [[int(tok) for tok in line.split()] for line in fh if line.strip()]


def item_supports(transactions) -> Counter:
    return Counter(i for t in transactions for i in t)


class Zipf:
    """Draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s."""

    def __init__(self, n: int, s: float):
        self._cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(n)))

    def draw(self, rng: random.Random) -> int:
        return min(bisect.bisect(self._cum, rng.random() * self._cum[-1]), len(self._cum) - 1)


def serve_requests(frequent_items, *, seed: int, topk_share: float = 0.2):
    """Endless, seeded request sequence for ``serve-mix``.

    About 80% ``frequency`` of 1-3 items and 20% ``topk``; both draw items
    Zipf-skewed over the frequent items, each in its own shuffled
    popularity order.  The ``topk`` keys span far more items than the
    daemon's 128-entry LRU holds, so the cache both hits and misses.
    The popularity orders are fixed; ``seed`` draws the sequence.
    Every item is frequent, so every answer has an exact support to check.
    """
    def popularity(salt: int) -> list:
        # a fixed per-item priority, so an item keeps its place whichever
        # other items the sample made frequent
        return sorted(frequent_items, key=lambda i: random.Random(SHAPE_SEED + salt * 100_003 + i).random())

    freq_order, topk_order = popularity(1), popularity(2)
    items = freq_order
    rng = random.Random(seed)
    freq_zipf, topk_zipf = Zipf(len(items), 1.1), Zipf(len(items), 0.8)
    while True:
        if rng.random() < topk_share:
            yield {"op": "topk", "item": topk_order[topk_zipf.draw(rng)], "k": 10}
        else:
            size = rng.choice((1, 2, 2, 3))
            chosen = {freq_order[freq_zipf.draw(rng)] for _ in range(size)}
            yield {"op": "frequency", "items": sorted(chosen)}
