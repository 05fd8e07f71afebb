"""ASCII renderers for the paper's figures.

These produce the textual equivalents of Figures 1–5 used by the golden
tests and the ``paper_walkthrough`` example: trees as indented outlines,
the PLT's matrix view (Figure 3a) and the top-down result (Figure 4) as
aligned tables.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.lextree import LexNode
from repro.core.plt import PLT
from repro.core.position import PositionVector, decode

__all__ = [
    "render_tree",
    "render_matrix",
    "render_subset_table",
    "render_itemsets",
]


def render_tree(root: LexNode, *, show_pos: bool = True, show_freq: bool = True) -> str:
    """Indented outline of a lexicographic tree.

    Each line shows the item label, its ``pos`` annotation (Figure 2's
    integers) and, for path trees, the vector frequency.
    """
    lines = ["(null)"]

    def visit(node: LexNode, prefix: str, is_last: bool) -> None:
        connector = "`-- " if is_last else "|-- "
        label = str(node.item)
        if show_pos and node.pos is not None:
            label += f" [{node.pos}]"
        if show_freq and node.freq is not None:
            label += f" (x{node.freq})"
        lines.append(prefix + connector + label)
        child_prefix = prefix + ("    " if is_last else "|   ")
        for i, child in enumerate(node.children):
            visit(child, child_prefix, i == len(node.children) - 1)

    for i, child in enumerate(root.children):
        visit(child, "", i == len(root.children) - 1)
    return "\n".join(lines)


def _format_rows(rows: list[tuple[str, ...]], header: tuple[str, ...]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


def render_matrix(plt: PLT, *, decode_items: bool = True) -> str:
    """The PLT's matrix/partition view — Figure 3(a).

    One section per partition ``D_k``, each row a stored vector with its
    sum and frequency (and the decoded itemset when ``decode_items``).
    """
    sections = []
    for length in sorted(plt.partitions):
        rows = []
        for vec in sorted(plt.partitions[length], key=decode):
            freq = plt.partitions[length][vec]
            cells = [
                "[" + ",".join(map(str, vec)) + "]",
                str(sum(vec)),
                str(freq),
            ]
            if decode_items:
                items = plt.rank_table.decode_ranks(decode(vec))
                cells.append("".join(map(str, items)))
            rows.append(tuple(cells))
        header = ("vector", "sum", "freq") + (("itemset",) if decode_items else ())
        sections.append(f"D{length}:\n" + _format_rows(rows, header))
    return "\n\n".join(sections)


def render_subset_table(
    counts: Mapping[int, Mapping[PositionVector, int]],
    plt: PLT,
    *,
    min_support: int | None = None,
) -> str:
    """The after-top-down state — Figure 4.

    ``counts`` is the output of
    :func:`repro.core.topdown.topdown_subset_frequencies`.  Rows below
    ``min_support`` are marked with ``*`` rather than hidden, matching the
    figure (which shows all subset frequencies).
    """
    sections = []
    for length in sorted(counts):
        rows = []
        for vec in sorted(counts[length], key=decode):
            freq = counts[length][vec]
            items = plt.rank_table.decode_ranks(decode(vec))
            mark = ""
            if min_support is not None and freq < min_support:
                mark = "*"
            rows.append(
                (
                    "[" + ",".join(map(str, vec)) + "]",
                    str(freq) + mark,
                    "".join(map(str, items)),
                )
            )
        sections.append(
            f"D{length}:\n" + _format_rows(rows, ("vector", "freq", "itemset"))
        )
    note = "" if min_support is None else f"\n(*) below min_support={min_support}"
    return "\n\n".join(sections) + note


def render_itemsets(result, *, relative: bool = False) -> str:
    """A :class:`~repro.core.mining.MiningResult` as an aligned table.

    Same layout as :func:`_format_rows`, but each row is formatted once:
    the support column is last, so only the itemset column is padded.
    A PLT miner's result is formatted straight from its rank columns
    (:meth:`~repro.core.mining.MiningResult.columns`).
    """
    columns = result.columns()
    if columns is None:
        cells = ["{" + ", ".join(map(str, fi.items)) + "}" for fi in result]
        supports = [fi.support for fi in result]
    else:
        cells, supports = columns.cells(), columns.supports()
    if relative:
        n = result.n_transactions
        sups = [f"{s / n:.3f}" for s in supports]
    else:
        sups = list(map(str, supports))
    width = max(len("itemset"), max(map(len, cells), default=0))
    sup_width = max(len("support"), max(map(len, sups), default=0))
    lines = [f"{'itemset':<{width}}  support", "-" * width + "  " + "-" * sup_width]
    lines += [cell.ljust(width) + "  " + sup for cell, sup in zip(cells, sups)]
    return "\n".join(lines)
