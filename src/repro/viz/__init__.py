"""ASCII rendering of the paper's figures (trees, matrices, tables)."""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "render_itemsets": "render",
        "render_matrix": "render",
        "render_subset_table": "render",
        "render_tree": "render",
    },
)

__all__ = [
    "render_itemsets",
    "render_matrix",
    "render_subset_table",
    "render_tree",
]
