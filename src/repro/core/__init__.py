"""Core PLT implementation: the paper's primary contribution.

* :mod:`repro.core.rank` — the ``Rank`` function (Definition 4.1.1)
* :mod:`repro.core.position` — position-vector algebra (Lemmas 4.1.1–4.1.3)
* :mod:`repro.core.plt` — the PLT structure and Algorithm 1
* :mod:`repro.core.topdown` — Algorithm 2
* :mod:`repro.core.conditional` — Algorithm 3
* :mod:`repro.core.closed` — closed/maximal mining over the PLT
* :mod:`repro.core.incremental` — incremental PLT maintenance
* :mod:`repro.core.lextree` — the explicit lexicographic tree (Figures 1–2)
* :mod:`repro.core.mining` — the user-facing facade
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "PLT": "plt",
        "PLTStats": "plt",
        "build_plt": "plt",
        "RankTable": "rank",
        "IncrementalPLT": "incremental",
        "SlidingWindowPLT": "window",
        "mine_top_k": "topk",
        "mine_constrained": "constraints",
        "verify_antimonotone": "constraints",
        "mine_conditional": "conditional",
        "mine_topdown": "topdown",
        "topdown_subset_frequencies": "topdown",
        "mine_closed": "closed",
        "mine_maximal": "closed",
        "FrequentItemset": "mining",
        "MiningResult": "mining",
        "PartialResult": "mining",
        "ApproximateResult": "mining",
        "mine_frequent_itemsets": "mining",
        "mine_closed_itemsets": "mining",
        "mine_maximal_itemsets": "mining",
    },
)

__all__ = [
    "PLT",
    "PLTStats",
    "build_plt",
    "RankTable",
    "IncrementalPLT",
    "SlidingWindowPLT",
    "mine_top_k",
    "mine_constrained",
    "verify_antimonotone",
    "mine_conditional",
    "mine_topdown",
    "mine_closed",
    "mine_maximal",
    "topdown_subset_frequencies",
    "FrequentItemset",
    "MiningResult",
    "PartialResult",
    "ApproximateResult",
    "mine_frequent_itemsets",
    "mine_closed_itemsets",
    "mine_maximal_itemsets",
]
