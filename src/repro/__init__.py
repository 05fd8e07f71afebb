"""repro — a full reproduction of *PLT: Positional Lexicographic Tree: A New
Structure for Mining Frequent Itemsets* (Boukerche & Samarah, ICPP 2006).

Quick start::

    from repro import mine_frequent_itemsets

    transactions = [
        {"bread", "milk"},
        {"bread", "butter", "milk"},
        {"beer", "bread"},
    ]
    result = mine_frequent_itemsets(transactions, min_support=2)
    for itemset in result:
        print(itemset.items, itemset.support)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "PLT": "core.plt",
        "build_plt": "core.plt",
        "RankTable": "core.rank",
        "IncrementalPLT": "core.incremental",
        "FrequentItemset": "core.mining",
        "MiningResult": "core.mining",
        "PartialResult": "core.mining",
        "ApproximateResult": "core.mining",
        "mine_frequent_itemsets": "core.mining",
        "mine_closed_itemsets": "core.mining",
        "mine_maximal_itemsets": "core.mining",
        "mine_conditional": "core.conditional",
        "mine_topdown": "core.topdown",
        "mine_top_k": "core.topk",
        "TransactionDatabase": "data.transaction_db",
        "ReproError": "errors",
        "MiningInterrupted": "errors",
        "BudgetExceeded": "errors",
        "Cancelled": "errors",
        "MiningBudget": "robustness.governor",
        "CancellationToken": "robustness.governor",
        "DegradationPolicy": "robustness.governor",
    },
)

__version__ = "1.0.0"

__all__ = [
    "PLT",
    "FrequentItemset",
    "IncrementalPLT",
    "MiningResult",
    "PartialResult",
    "ApproximateResult",
    "RankTable",
    "TransactionDatabase",
    "ReproError",
    "MiningInterrupted",
    "BudgetExceeded",
    "Cancelled",
    "MiningBudget",
    "CancellationToken",
    "DegradationPolicy",
    "build_plt",
    "mine_conditional",
    "mine_frequent_itemsets",
    "mine_closed_itemsets",
    "mine_maximal_itemsets",
    "mine_topdown",
    "mine_top_k",
    "__version__",
]
