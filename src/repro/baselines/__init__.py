"""Baseline frequent-itemset miners implemented from their original papers.

These are the comparison points of the paper's related-work section:
Apriori and AprioriTid (candidate generation), Partition and DIC (scan
reduction), FP-growth (pattern growth on a prefix tree), Eclat/dEclat
(vertical layout), H-Mine (hyper-structure), plus a brute-force oracle
for testing.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "mine_apriori": "apriori",
        "mine_aprioritid": "aprioritid",
        "mine_bruteforce": "bruteforce",
        "support_counts_bruteforce": "bruteforce",
        "mine_dic": "dic",
        "mine_eclat": "eclat",
        "mine_declat": "eclat",
        "mine_fpgrowth": "fpgrowth",
        "fpgrowth_from_tree": "fpgrowth",
        "FPTree": "fptree",
        "FPNode": "fptree",
        "mine_hmine": "hmine",
        "mine_partition": "partition",
        "mine_sampling": "sampling",
        "negative_border": "sampling",
    },
)

__all__ = [
    "mine_apriori",
    "mine_aprioritid",
    "mine_bruteforce",
    "support_counts_bruteforce",
    "mine_dic",
    "mine_eclat",
    "mine_declat",
    "mine_fpgrowth",
    "fpgrowth_from_tree",
    "FPTree",
    "FPNode",
    "mine_hmine",
    "mine_partition",
    "mine_sampling",
    "negative_border",
]
