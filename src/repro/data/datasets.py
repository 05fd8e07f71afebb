"""Named, reproducible benchmark workloads.

The registry gives every experiment in DESIGN.md a stable dataset handle.
Datasets are generated on first use (seeded, hence bit-identical across
runs) and cached in-process.  ``PAPER_EXAMPLE`` is Table 1 of the paper,
verbatim.

>>> from repro.data.datasets import load
>>> db = load("T10.I4.D1K")
>>> len(db)
1000
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Dict

from repro.data.generators import generate_dense, generate_uniform, generate_zipf
from repro.data.quest import QuestGenerator, QuestParameters
from repro.data.transaction_db import TransactionDatabase
from repro.errors import DatasetError

__all__ = ["PAPER_EXAMPLE", "paper_example", "load", "available", "register"]

#: Table 1 of the paper: six transactions over items A..F.  With absolute
#: min support 2 the frequent items are A, B, C, D (E and F are filtered).
PAPER_EXAMPLE: tuple[tuple[str, ...], ...] = (
    ("A", "B", "C"),
    ("A", "B", "C"),
    ("A", "B", "C", "D"),
    ("A", "B", "D", "E"),
    ("B", "C", "D"),
    ("C", "D", "F"),
)

#: The paper's absolute minimum support for the worked example.
PAPER_EXAMPLE_MIN_SUPPORT = 2


def paper_example() -> TransactionDatabase:
    """Table 1 as a :class:`TransactionDatabase`."""
    return TransactionDatabase(PAPER_EXAMPLE)


_FACTORIES: Dict[str, Callable[[], TransactionDatabase]] = {}
_CACHE: Dict[str, TransactionDatabase] = {}


def register(name: str, factory: Callable[[], TransactionDatabase]) -> None:
    """Register a workload factory under ``name`` (overwrites silently)."""
    _FACTORIES[name] = factory
    _CACHE.pop(name, None)


def available() -> tuple[str, ...]:
    """Names of all registered workloads, sorted."""
    return tuple(sorted(_FACTORIES))


def load(name: str, *, cache: bool = True) -> TransactionDatabase:
    """Materialise the named workload (cached per process by default)."""
    if name not in _FACTORIES:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(available())}"
        )
    if cache and name in _CACHE:
        return _CACHE[name]
    db = _FACTORIES[name]()
    if cache:
        _CACHE[name] = db
    return db


def _quest(n: int, t: float, i: float, n_items: int, seed: int) -> Callable[[], TransactionDatabase]:
    def factory() -> TransactionDatabase:
        params = QuestParameters(
            n_transactions=n,
            avg_transaction_len=t,
            avg_pattern_len=i,
            n_items=n_items,
            n_patterns=max(50, n_items // 2),
            seed=seed,
        )
        return QuestGenerator(params).generate()

    return factory


# ---------------------------------------------------------------------------
# Registry: the workloads the DESIGN.md experiment table refers to.
# Sizes are scaled for pure-Python miners (DESIGN.md §2).
# ---------------------------------------------------------------------------
register("paper-example", paper_example)

# Sparse Quest family (B1, B6, B9)
register("T10.I4.D1K", _quest(1_000, 10, 4, 200, seed=101))
register("T10.I4.D5K", _quest(5_000, 10, 4, 500, seed=101))
register("T10.I4.D10K", _quest(10_000, 10, 4, 500, seed=101))
register("T5.I2.D5K", _quest(5_000, 5, 2, 300, seed=102))
register("T20.I6.D2K", _quest(2_000, 20, 6, 500, seed=103))

# Dense family (B2, B3)
register("DENSE-30", lambda: generate_dense(1_500, 30, 12, seed=201))
register("DENSE-50", lambda: generate_dense(2_000, 50, 15, seed=202))
register("DENSE-75", lambda: generate_dense(2_000, 75, 18, seed=203))
# 5k transactions over a narrow alphabet: big enough to satisfy the
# parallel bench's transaction floor, dense enough that the top-down
# lattice (and thus the workers' result tables) is the dominant cost
# rather than PLT construction.
register("DENSE-16.D5K", lambda: generate_dense(5_000, 16, 7, seed=204))

# Null models (B4, B8)
register("ZIPF-200", lambda: generate_zipf(5_000, 200, 8.0, seed=301))
register("UNIFORM-100", lambda: generate_uniform(5_000, 100, 8, seed=302))
