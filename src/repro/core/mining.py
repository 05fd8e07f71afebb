"""High-level mining facade: one entry point over every miner in the repo.

:func:`mine_frequent_itemsets` accepts raw transactions (any iterable of
item collections, or a :class:`~repro.data.transaction_db.TransactionDatabase`),
a support threshold (absolute count or relative fraction), and a method
name; it returns a :class:`MiningResult`, a thin ordered container with the
standard post-processing operations (closed/maximal filtering, lookups,
dict conversion).

The two PLT miners are the paper's contribution; the rest are the
literature baselines implemented in :mod:`repro.baselines`.  All methods
produce *identical* itemset/support sets on the same input — the test
suite enforces this property.  Each runner imports its miner when it
runs, and the governor loads only for a governed call, so importing this
module for its result types (as :mod:`repro.stream` does) loads no
kernel.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro.core.rank import sort_key
from repro.data.transaction_db import (
    TransactionDatabase,
    check_max_len,
    resolve_min_support,
)
from repro.errors import (
    AdmissionRejected,
    InvalidParameterError,
    MiningInterrupted,
    ReproError,
)

if TYPE_CHECKING:
    from repro.core.columns import RankColumns
    from repro.core.plt import PLT
    from repro.robustness.governor import (
        CancellationToken,
        DegradationPolicy,
        MiningBudget,
    )

__all__ = [
    "FrequentItemset",
    "MiningResult",
    "PartialResult",
    "ApproximateResult",
    "mine_frequent_itemsets",
    "mine_closed_itemsets",
    "mine_maximal_itemsets",
    "METHODS",
    "GOVERNED_METHODS",
]

Item = Hashable


@dataclass(frozen=True)
class FrequentItemset:
    """An itemset together with its absolute support count."""

    items: tuple
    support: int

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def as_frozenset(self) -> frozenset:
        return frozenset(self.items)

    def relative_support(self, n_transactions: int) -> float:
        if n_transactions <= 0:
            raise InvalidParameterError("n_transactions must be positive")
        return self.support / n_transactions


def _canonical_order(itemsets: Iterable[FrequentItemset]) -> list[FrequentItemset]:
    """Sort by length, then by the items' ``sort_key`` sequence."""
    # items repeat across many itemsets — memoize their sort keys so
    # canonical ordering stays cheap even for six-figure result sets
    cache: dict = {}

    def canonical(fi: FrequentItemset):
        keys = []
        for item in fi.items:
            key = cache.get(item)
            if key is None:
                key = cache[item] = sort_key(item)
            keys.append(key)
        return (len(keys), keys)

    return sorted(itemsets, key=canonical)


class ItemsetColumns:
    """A PLT miner's itemsets as rank columns, in canonical order.

    ``blocks`` holds one ``(ranks, supports)`` pair per itemset length,
    lengths ascending: ``ranks`` is an int64 ``(n, length)`` matrix of
    ascending rank rows sorted lexicographically, ``supports`` the
    matching int64 column.  ``labels[r]`` is rank ``r``'s label (index 0
    is unused).  Labels are looked up, and :class:`FrequentItemset`
    objects made, only when something asks for them.
    """

    __slots__ = ("labels", "blocks")

    def __init__(self, labels: tuple, blocks: list) -> None:
        self.labels = labels
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(supports) for _, supports in self.blocks)

    def __iter__(self) -> Iterator[FrequentItemset]:
        return iter(self.itemsets())

    def itemsets(self) -> list[FrequentItemset]:
        label = self.labels.__getitem__
        out: list[FrequentItemset] = []
        for ranks, supports in self.blocks:
            rows = map(tuple, map(partial(map, label), ranks.tolist()))
            out += map(FrequentItemset, rows, supports.tolist())
        return out

    def cells(self) -> list[str]:
        """Every itemset as ``{a, b}`` text.  Per length, each rank column
        is one ``take`` from a label-string array, appended to the rows'
        text as a whole."""
        names = [str(label) for label in self.labels[1:]]
        opening = np.array(["", *("{" + name for name in names)], dtype=object)
        joined = np.array(["", *(", " + name for name in names)], dtype=object)
        out: list[str] = []
        for ranks, _ in self.blocks:
            text = opening[ranks[:, 0]]
            for column in ranks.T[1:]:
                text = text + joined[column]
            out += (text + "}").tolist()
        return out

    def supports(self) -> list[int]:
        return [s for _, supports in self.blocks for s in supports.tolist()]


def _decode(found: RankColumns, table) -> "list[FrequentItemset] | ItemsetColumns":
    """A PLT miner's rank columns as itemsets, in :class:`MiningResult`'s
    canonical order — the only place the ``mine`` pipeline goes back from
    ranks to labels.

    The canonical order is (length, items in ``sort_key`` order).  A
    lexicographic table (:meth:`RankTable.from_supports`) hands out ranks
    in ``sort_key`` order, so an ascending rank row already lists its
    labels in order and sorting each length's rank matrix row-wise *is*
    the canonical sort: per length, the kernel's blocks are concatenated
    and sorted once (``merge_rows``) into
    :class:`ItemsetColumns`, and no ``sort_key`` is computed per itemset.
    Other order policies keep the generic sort over the pairs.
    """
    if table.order != "lexicographic":
        return _canonical_order(
            FrequentItemset(tuple(sorted(table.decode_ranks(ranks), key=sort_key)), sup)
            for ranks, sup in found
        )
    from repro.core.flat import merge_rows

    blocks = [merge_rows(ranks, supports) for ranks, supports in found.by_length()]
    return ItemsetColumns((None,) + table.items(), blocks)


class MiningResult(Sequence):
    """Ordered collection of frequent itemsets plus run metadata.

    Itemsets are sorted canonically (by length, then lexicographically) so
    results from different miners compare equal.

    ``complete``/``approximate`` distinguish the governed-result variants:
    a plain :class:`MiningResult` is the full exact answer
    (``complete=True, approximate=False``); see :class:`PartialResult` and
    :class:`ApproximateResult`.
    """

    #: True when every frequent itemset at the threshold is present.
    complete = True
    #: True when supports (or coverage) are estimates, not exact counts.
    approximate = False

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        *,
        n_transactions: int,
        min_support: int,
        method: str,
    ) -> None:
        self._list: list[FrequentItemset] | None = _canonical_order(itemsets)
        self._columns: ItemsetColumns | None = None
        self.n_transactions = n_transactions
        self.min_support = min_support
        self.method = method

    @classmethod
    def _from_canonical(
        cls, itemsets: "list[FrequentItemset] | ItemsetColumns", **meta
    ) -> "MiningResult":
        """Wrap itemsets already in canonical order (what
        :func:`_decode` returns) without sorting them again."""
        result = cls((), **meta)
        if isinstance(itemsets, ItemsetColumns):
            result._list, result._columns = None, itemsets
        else:
            result._list = itemsets
        return result

    @property
    def _itemsets(self) -> list[FrequentItemset]:
        if self._list is None:
            self._list = self._columns.itemsets()
        return self._list

    def columns(self) -> ItemsetColumns | None:
        """The rank columns behind a PLT miner's result (``None`` for
        other results); :func:`~repro.viz.render_itemsets` formats them
        without making :class:`FrequentItemset` objects."""
        return self._columns

    # -- Sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        if self._list is None:
            return len(self._columns)
        return len(self._list)

    def __getitem__(self, idx):
        return self._itemsets[idx]

    def __iter__(self) -> Iterator[FrequentItemset]:
        return iter(self._itemsets)

    def __eq__(self, other: object) -> bool:
        """Equality is *semantic*: same itemsets with same supports."""
        if not isinstance(other, MiningResult):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return (
            f"MiningResult({len(self)} itemsets, method={self.method!r}, "
            f"min_support={self.min_support}, n_transactions={self.n_transactions})"
        )

    # -- views ------------------------------------------------------------
    def as_dict(self) -> dict[frozenset, int]:
        return {fi.as_frozenset(): fi.support for fi in self._itemsets}

    def itemsets_of_size(self, k: int) -> list[FrequentItemset]:
        return [fi for fi in self._itemsets if len(fi) == k]

    def sizes(self) -> dict[int, int]:
        """Histogram: itemset length -> how many frequent itemsets."""
        hist: dict[int, int] = {}
        for fi in self._itemsets:
            hist[len(fi)] = hist.get(len(fi), 0) + 1
        return hist

    def support_of(self, itemset: Iterable[Item]) -> int | None:
        """Support of the given itemset, or None if it is not frequent."""
        return self.as_dict().get(frozenset(itemset))

    def maximal(self) -> "MiningResult":
        """Itemsets with no frequent proper superset."""
        by_size: dict[int, list[FrequentItemset]] = {}
        for fi in self._itemsets:
            by_size.setdefault(len(fi), []).append(fi)
        all_sets = [fi.as_frozenset() for fi in self._itemsets]
        keep = []
        for fi in self._itemsets:
            s = fi.as_frozenset()
            if not any(s < other for other in all_sets):
                keep.append(fi)
        return MiningResult(
            keep,
            n_transactions=self.n_transactions,
            min_support=self.min_support,
            method=self.method + "+maximal",
        )

    def closed(self) -> "MiningResult":
        """Itemsets with no proper superset of the *same* support."""
        table = self.as_dict()
        keep = []
        for fi in self._itemsets:
            s = fi.as_frozenset()
            if not any(
                s < other and sup == fi.support for other, sup in table.items()
            ):
                keep.append(fi)
        return MiningResult(
            keep,
            n_transactions=self.n_transactions,
            min_support=self.min_support,
            method=self.method + "+closed",
        )


class PartialResult(MiningResult):
    """The itemsets mined before a budget trip or cancellation.

    Every itemset present carries its **exact** support — governed miners
    never report estimated counts — but the collection is not the full
    frequent set.  ``stop_reason`` says why mining stopped
    (``"deadline"``, ``"max_itemsets"``, ``"memory"``, ``"cancelled"``);
    ``progress`` holds the miner's completion markers, e.g.
    ``complete_from_rank`` (conditional/out-of-core: every itemset whose
    maximal rank is >= the marker was fully enumerated) or
    ``complete_min_len`` (top-down: counts for subset lengths >= the
    marker are final).

    A governed PLT run's partial holds the miner's rank columns and rank
    table as they were at the trip and decodes them on first read, so
    the time from the trip to the return does not grow with the salvaged
    count; ``len()`` needs no decode.
    """

    complete = False
    #: ``(RankColumns, RankTable)`` not yet decoded, or None.
    _ranks = None

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        *,
        n_transactions: int,
        min_support: int,
        method: str,
        stop_reason: str | None,
        elapsed: float = 0.0,
        progress: dict | None = None,
    ) -> None:
        super().__init__(
            itemsets,
            n_transactions=n_transactions,
            min_support=min_support,
            method=method + "+partial",
        )
        self.stop_reason = stop_reason
        self.elapsed = elapsed
        self.progress = dict(progress or {})

    @classmethod
    def _from_ranks(cls, found: RankColumns, table, **meta) -> "PartialResult":
        """Wrap a trip's rank columns, to be decoded on first read.  With
        no ``table`` (a trip outside the rank-space miners) there is
        nothing to decode and the result is empty."""
        result = cls._from_canonical([], **meta)
        if table is not None:
            result._list, result._ranks = None, (found, table)
        return result

    def _read(self) -> None:
        if self._ranks is not None:
            # cleared last: a concurrent reader decodes again, or finds
            # the decoded itemsets in place, never neither
            decoded = _decode(*self._ranks)
            if isinstance(decoded, ItemsetColumns):
                self._columns = decoded
            else:
                self._list = decoded
            self._ranks = None

    @property
    def _itemsets(self) -> list[FrequentItemset]:
        self._read()
        return super()._itemsets

    def columns(self) -> ItemsetColumns | None:
        self._read()
        return super().columns()

    def __len__(self) -> int:
        ranks = self._ranks
        if ranks is not None:
            return len(ranks[0])
        return super().__len__()

    @property
    def complete_from_rank(self) -> int | None:
        return self.progress.get("complete_from_rank")

    def __repr__(self) -> str:
        return (
            f"PartialResult({len(self)} itemsets, stop_reason={self.stop_reason!r}, "
            f"method={self.method!r}, elapsed={self.elapsed:.3f}s)"
        )


class ApproximateResult(MiningResult):
    """A degraded-mode answer: bounded, flagged, never mistaken for exact.

    Produced when a :class:`~repro.robustness.governor.DegradationPolicy`
    converts a budget trip into an approximate answer.  ``disclaimer`` is
    a human-readable accuracy statement (also printed by the CLI);
    ``info`` records the fallback used and its parameters.
    """

    approximate = True
    complete = False

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        *,
        n_transactions: int,
        min_support: int,
        method: str,
        disclaimer: str,
        info: dict | None = None,
    ) -> None:
        super().__init__(
            itemsets,
            n_transactions=n_transactions,
            min_support=min_support,
            method=method,
        )
        self.disclaimer = disclaimer
        self.info = dict(info or {})

    def __repr__(self) -> str:
        return (
            f"ApproximateResult({len(self)} itemsets, method={self.method!r}, "
            f"disclaimer={self.disclaimer!r})"
        )


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------
def _mine_plt(transactions, abs_support, order, max_len, **kwargs):
    from repro.core.conditional import mine_conditional
    from repro.core.plt import PLT

    governor = kwargs.get("governor")
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    if governor is not None:
        governor.admit(plt, method="conditional")
    return _decoded(mine_conditional, plt, abs_support, max_len=max_len, governor=governor)


def _mine_plt_topdown(transactions, abs_support, order, max_len, **kwargs):
    from repro.core.plt import PLT
    from repro.core.topdown import DEFAULT_WORK_LIMIT, mine_topdown

    governor = kwargs.get("governor")
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    if governor is not None:
        governor.admit(plt, method="topdown")
    return _decoded(
        mine_topdown,
        plt,
        abs_support,
        max_len=max_len,
        work_limit=kwargs.get("work_limit", DEFAULT_WORK_LIMIT),
        governor=governor,
    )


def _decoded(miner, plt: PLT, *args, **kwargs) -> "list[FrequentItemset] | ItemsetColumns":
    """Run a rank-space PLT miner on ``plt`` and decode its columns once.

    A budget trip propagates undecoded: its ``partial`` (the
    :class:`RankColumns` the miner cut) leaves with ``rank_table``
    attached, and the :class:`PartialResult` made from them decodes on
    first read.
    """
    try:
        found = miner(plt, *args, **kwargs)
    except MiningInterrupted as exc:
        exc.rank_table = plt.rank_table
        raise
    return _decode(found, plt.rank_table)


def _mine_bruteforce(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.bruteforce import mine_bruteforce

    return mine_bruteforce(transactions, abs_support, max_len=max_len)


def _mine_apriori(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.apriori import mine_apriori

    return mine_apriori(transactions, abs_support, max_len=max_len)


def _mine_fpgrowth(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.fpgrowth import mine_fpgrowth

    return mine_fpgrowth(transactions, abs_support, max_len=max_len)


def _mine_eclat(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.eclat import mine_eclat

    return mine_eclat(transactions, abs_support, max_len=max_len)


def _mine_declat(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.eclat import mine_declat

    return mine_declat(transactions, abs_support, max_len=max_len)


def _mine_hmine(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.hmine import mine_hmine

    return mine_hmine(transactions, abs_support, max_len=max_len)


def _mine_aprioritid(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.aprioritid import mine_aprioritid

    return mine_aprioritid(transactions, abs_support, max_len=max_len)


def _mine_partition(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.partition import mine_partition

    return mine_partition(
        transactions,
        abs_support,
        max_len=max_len,
        n_partitions=kwargs.get("n_partitions", 4),
    )


def _mine_dic(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.dic import mine_dic

    return mine_dic(
        transactions,
        abs_support,
        max_len=max_len,
        interval=kwargs.get("interval", 100),
    )


def _mine_count_distribution(transactions, abs_support, order, max_len, **kwargs):
    from repro.parallel.count_distribution import mine_count_distribution

    return mine_count_distribution(
        transactions,
        abs_support,
        max_len=max_len,
        n_nodes=kwargs.get("n_nodes", 4),
        use_processes=kwargs.get("use_processes", False),
    )


def _mine_plt_parallel(
    transactions, abs_support, order, max_len, *, governor=None, **options
):
    from repro.core.plt import PLT
    from repro.parallel.executor import mine_parallel

    plt = PLT.from_transactions(transactions, abs_support, order=order)
    if governor is not None:
        governor.admit(plt, method="conditional")
    # n_workers / timeout / retry pass straight through; anything else is
    # a TypeError rather than a silently ignored option
    return _decoded(
        mine_parallel, plt, abs_support, max_len=max_len, governor=governor, **options
    )


def _mine_plt_distributed(transactions, abs_support, order, max_len, **kwargs):
    from repro.parallel.distributed import mine_distributed

    pairs, _stats, _table = mine_distributed(
        transactions,
        abs_support,
        n_nodes=kwargs.get("n_nodes", 4),
        max_len=max_len,
        backend=kwargs.get("backend", "sim"),
        backend_options=kwargs.get("backend_options"),
    )
    return {frozenset(items): sup for items, sup in pairs}


#: Each runner takes ``(transactions, abs_support, order, max_len,
#: **options)``.  The rank-space PLT miners return their itemsets already
#: in canonical order (:func:`_decode`: :class:`ItemsetColumns`, or a
#: list for a non-lexicographic order); the others return
#: ``{frozenset(items): support}``.
METHODS: dict[str, Callable] = {
    "plt": _mine_plt,
    "plt-conditional": _mine_plt,
    "plt-topdown": _mine_plt_topdown,
    "plt-parallel": _mine_plt_parallel,
    "plt-distributed": _mine_plt_distributed,
    "apriori": _mine_apriori,
    "aprioritid": _mine_aprioritid,
    "apriori-cd": _mine_count_distribution,
    "partition": _mine_partition,
    "dic": _mine_dic,
    "fpgrowth": _mine_fpgrowth,
    "eclat": _mine_eclat,
    "declat": _mine_declat,
    "hmine": _mine_hmine,
    "bruteforce": _mine_bruteforce,
}

#: Methods whose hot loops consult a :class:`ResourceGovernor`.  Budget /
#: cancellation kwargs on the facade are rejected for any other method —
#: silently ignoring them would defeat the whole point of a deadline.
GOVERNED_METHODS = frozenset({"plt", "plt-conditional", "plt-topdown", "plt-parallel"})


def _degrade(
    transactions: TransactionDatabase,
    abs_support: int,
    order: str,
    max_len: int | None,
    policy: DegradationPolicy,
    method: str,
    reason: str | None,
) -> ApproximateResult:
    """Produce the bounded approximate answer the policy asked for."""
    import random

    n = len(transactions)
    if policy.fallback == "topk":
        from repro.core.columns import RankColumns
        from repro.core.plt import PLT
        from repro.core.topk import _top_k_columns

        plt = PLT.from_transactions(transactions, abs_support, order=order)
        top = _top_k_columns(plt, policy.k, 1, max_len)
        itemsets = _decode(
            RankColumns((r[s >= abs_support], s[s >= abs_support]) for r, s in top.blocks),
            plt.rank_table,
        )
        disclaimer = (
            f"approximate result: supports are exact but only the "
            f"{policy.k} most frequent itemsets were mined "
            f"(budget stop: {reason})"
        )
        info = {"fallback": "topk", "k": policy.k, "stop_reason": reason}
    elif policy.fallback == "sketch":
        from repro.stream.summary import StreamSummary

        summary = StreamSummary(
            epsilon=policy.epsilon,
            delta=policy.delta,
            capacity=policy.hh_capacity,
            seed=policy.seed,
        )
        summary.extend(transactions)
        sketched = summary.as_result(abs_support, method=method + "+approx-sketch")
        itemsets = list(sketched)
        disclaimer = (
            f"approximate result: supports are one-sided count-min estimates "
            f"(never below the true support, above it by at most "
            f"{summary.error_bound(1)} for items / {summary.error_bound(2)} "
            f"for pairs w.p. >= {1.0 - policy.delta:g}); only monitored 1- "
            f"and 2-itemsets are enumerated (budget stop: {reason})"
        )
        info = dict(sketched.info or {})
        info["stop_reason"] = reason
    else:
        rng = random.Random(policy.seed)
        size = max(1, round(n * policy.sample_fraction))
        if size >= n:
            sample = list(transactions)
            size = n
        else:
            sample = rng.sample(list(transactions), size)
        # scale the threshold to the sample, but never below the full-run
        # floor: a sample mined at support 1 enumerates every subset of
        # every sampled transaction — the opposite of a *bounded* fallback
        scaled_support = max(min(abs_support, 2), round(abs_support * size / n))
        sub = mine_frequent_itemsets(
            sample, scaled_support, method="plt", order=order, max_len=max_len
        )
        scale = n / size
        itemsets = [
            FrequentItemset(fi.items, est)
            for fi in sub
            if (est := round(fi.support * scale)) >= abs_support
        ]
        disclaimer = (
            f"approximate result: supports are estimates scaled up from a "
            f"{size}/{n} transaction sample (seed={policy.seed}, "
            f"budget stop: {reason})"
        )
        info = {
            "fallback": "sampling",
            "sample_size": size,
            "sample_fraction": policy.sample_fraction,
            "seed": policy.seed,
            "stop_reason": reason,
        }
    return ApproximateResult(
        itemsets,
        n_transactions=n,
        min_support=abs_support,
        method=method + "+approx-" + policy.fallback,
        disclaimer=disclaimer,
        info=info,
    )


def mine_frequent_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    method: str = "plt",
    order: str = "lexicographic",
    max_len: int | None = None,
    deadline: float | None = None,
    max_itemsets: int | None = None,
    memory_budget: int | None = None,
    budget: MiningBudget | None = None,
    cancel: CancellationToken | None = None,
    degradation: DegradationPolicy | None = None,
    on_budget: str = "partial",
    **kwargs,
) -> MiningResult:
    """Mine all frequent itemsets from ``transactions``.

    Parameters
    ----------
    transactions:
        Any iterable of item collections, or a :class:`TransactionDatabase`.
    min_support:
        Absolute count (int >= 1) or relative fraction (float in (0, 1]).
    method:
        One of ``plt`` (alias ``plt-conditional``; the paper's Algorithm 3),
        ``plt-topdown`` (Algorithm 2), ``plt-parallel``, or a baseline:
        ``apriori``, ``aprioritid``, ``apriori-cd`` (count distribution),
        ``partition``, ``dic``, ``fpgrowth``, ``eclat``, ``declat``,
        ``hmine``, ``bruteforce``.
    order:
        Item-ordering policy for the PLT's rank table (PLT methods only):
        ``lexicographic`` (paper), ``support_asc``, ``support_desc``.
    max_len:
        Optional cap on itemset length.
    deadline, max_itemsets, memory_budget:
        Shorthand for ``budget=MiningBudget(...)``: wall-clock seconds,
        emitted-itemset cap, estimated-byte cap.  Only the PLT methods
        (:data:`GOVERNED_METHODS`) support governance; other methods
        raise :class:`~repro.errors.ReproError` when any budget kwarg is
        set.
    budget:
        A full :class:`~repro.robustness.governor.MiningBudget` (mutually
        exclusive with the shorthand kwargs).
    cancel:
        A :class:`~repro.robustness.governor.CancellationToken`; flip it
        from another thread to stop mining cooperatively.
    degradation:
        A :class:`~repro.robustness.governor.DegradationPolicy`.  When the
        budget trips (or admission control rejects the run), fall back to
        a bounded approximate miner and return an
        :class:`ApproximateResult` instead of a partial answer.
    on_budget:
        ``"partial"`` (default) converts a budget trip into a
        :class:`PartialResult`; ``"raise"`` propagates the
        :class:`~repro.errors.BudgetExceeded` /
        :class:`~repro.errors.Cancelled` exception instead.
    kwargs:
        Method-specific options (e.g. ``n_workers`` for ``plt-parallel``,
        ``work_limit`` for ``plt-topdown``).

    Examples
    --------
    >>> from repro import mine_frequent_itemsets
    >>> res = mine_frequent_itemsets([("a", "b"), ("a", "b", "c"), ("a",)], 2)
    >>> sorted((tuple(sorted(fi.items)), fi.support) for fi in res)
    [(('a',), 3), (('a', 'b'), 2), (('b',), 2)]
    """
    if method not in METHODS:
        raise ReproError(
            f"unknown mining method {method!r}; available: {', '.join(sorted(METHODS))}"
        )
    check_max_len(max_len)
    if on_budget not in ("partial", "raise"):
        raise InvalidParameterError(
            f"on_budget must be 'partial' or 'raise', got {on_budget!r}"
        )
    shorthand = (deadline, max_itemsets, memory_budget)
    if budget is not None and any(v is not None for v in shorthand):
        raise InvalidParameterError(
            "pass either budget= or the deadline/max_itemsets/memory_budget "
            "shorthand kwargs, not both"
        )
    if budget is None and any(v is not None for v in shorthand):
        from repro.robustness.governor import MiningBudget

        budget = MiningBudget(
            deadline=deadline,
            max_itemsets=max_itemsets,
            memory_budget=memory_budget,
        )
    governor = None
    if budget is not None or cancel is not None:
        if method not in GOVERNED_METHODS:
            raise ReproError(
                f"method {method!r} does not support resource governance; "
                f"governed methods: {', '.join(sorted(GOVERNED_METHODS))}"
            )
        from repro.robustness.governor import ResourceGovernor

        governor = ResourceGovernor(budget, cancel).start()
        kwargs["governor"] = governor
    elif degradation is not None:
        raise InvalidParameterError(
            "a DegradationPolicy needs a budget or cancellation token to "
            "degrade from; pass deadline/max_itemsets/memory_budget/budget/cancel"
        )
    if not isinstance(transactions, TransactionDatabase):
        transactions = TransactionDatabase(transactions)
    abs_support = resolve_min_support(min_support, len(transactions))
    try:
        found = METHODS[method](transactions, abs_support, order, max_len, **kwargs)
    except AdmissionRejected:
        if degradation is None:
            raise
        return _degrade(
            transactions, abs_support, order, max_len, degradation, method,
            "admission",
        )
    except MiningInterrupted as exc:
        if on_budget == "partial" and degradation is not None:
            return _degrade(
                transactions, abs_support, order, max_len, degradation, method,
                exc.reason,
            )
        progress = dict(governor.progress) if governor is not None else {}
        progress.update(exc.progress)
        progress = {k: v for k, v in progress.items() if not k.startswith("_")}
        partial = PartialResult._from_ranks(
            exc.partial,
            getattr(exc, "rank_table", None),
            n_transactions=len(transactions),
            min_support=abs_support,
            method=method,
            stop_reason=exc.reason,
            elapsed=governor.elapsed() if governor is not None else 0.0,
            progress=progress,
        )
        if on_budget == "raise":
            exc.partial_items = partial
            raise
        return partial
    meta = dict(n_transactions=len(transactions), min_support=abs_support, method=method)
    if isinstance(found, (list, ItemsetColumns)):  # PLT miners: canonical order
        return MiningResult._from_canonical(found, **meta)
    return MiningResult(
        (FrequentItemset(tuple(sorted(items, key=sort_key)), sup) for items, sup in found.items()),
        **meta,
    )


def _mine_condensed(transactions, min_support, order, kind):
    from repro.core.closed import mine_closed, mine_maximal
    from repro.core.plt import PLT

    if not isinstance(transactions, TransactionDatabase):
        transactions = TransactionDatabase(transactions)
    abs_support = resolve_min_support(min_support, len(transactions))
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    miner = mine_closed if kind == "closed" else mine_maximal
    return MiningResult._from_canonical(
        _decode(miner(plt, abs_support), plt.rank_table),
        n_transactions=len(transactions),
        min_support=abs_support,
        method=f"plt-{kind}",
    )


def mine_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> MiningResult:
    """Mine only the *closed* frequent itemsets (lossless condensed form).

    Equivalent to ``mine_frequent_itemsets(...).closed()``: Algorithm 3
    mines every frequent itemset as rank arrays, and an array filter
    keeps those with no one-item-larger superset of equal support
    (:func:`~repro.core.closed.mine_closed`), before any label is decoded.
    """
    return _mine_condensed(transactions, min_support, order, "closed")


def mine_maximal_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> MiningResult:
    """Mine only the *maximal* frequent itemsets (the frequent border)."""
    return _mine_condensed(transactions, min_support, order, "maximal")
