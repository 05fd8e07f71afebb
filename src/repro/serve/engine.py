"""The pattern-serving query engine — transport-independent core.

A :class:`ServingIndex` is built (or loaded) **once**; a
:class:`PatternEngine` then answers point queries over it forever.  The
engine is deliberately socket-free: the daemon's connection handler, the
tests and the smoke client all call :meth:`PatternEngine.handle` with a
plain request dict and get a plain response envelope back, so every
serving semantic (budgets, caching, coalescing, error taxonomy) is
testable without a single byte on a wire.  The envelope itself — op
dispatch, the error taxonomy, ``ping``/``health``/``stats`` and the
request-field validators — is :class:`Engine`, which the sketch engine
(:class:`~repro.serve.sketch.SketchEngine`) shares.

Endpoints (``op`` field of the request):

``ping``
    Liveness probe.
``frequency``
    Exact support / subset check of an arbitrary itemset, answered from
    the :class:`~repro.compress.index.ItemIndex` postings without mining.
``topk``
    The ``k`` most frequent itemsets *containing a given item*, mined on
    demand from the item's conditional database
    (:func:`~repro.core.conditional.mine_conditional_rows`) and memoized
    — the daemon never materialises the full frequent set for these.
``rules`` / ``recommend``
    Association rules over the full frequent set (mined lazily, cached
    per support level) — ``recommend`` filters them against a basket and
    applies the CBA first-match step
    (:func:`~repro.apps.classifier.first_matching_rule`).
``stats``
    Counters: per-op totals, cache hits/misses/coalesced, admission
    admitted/rejected/inflight, index shape.

Every response envelope carries ``ok``, ``op``, ``elapsed``, and for
mining ops ``complete``/``stop_reason`` (the
:class:`~repro.core.mining.PartialResult` markers) plus ``source`` —
``"hit"``, ``"miss"``, ``"coalesced"`` for cached ops, ``"index"`` or
``"direct"`` otherwise.  Budget-tripped answers are returned with their
exact partial contents but are never cached.
"""

from __future__ import annotations

import os
import threading
import time
from typing import NoReturn

from repro.apps.classifier import first_matching_rule
from repro.compress.index import ItemIndex
from repro.core.columns import RankColumns
from repro.core.conditional import mine_conditional, mine_conditional_rows, salvage
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.rank import RankTable, sort_key
from repro.data.transaction_db import resolve_min_support
from repro.errors import (
    InvalidParameterError,
    InvalidSupportError,
    MiningInterrupted,
    ReproError,
    ServeError,
    ServeProtocolError,
    UnknownItemError,
)
from repro.robustness.governor import CancellationToken, MiningBudget
from repro.rules.generation import Rule, generate_rules
from repro.serve.admission import (
    AdmissionController,
    budget_from_request,
    budget_signature,
)
from repro.serve.cache import ServingCache

__all__ = ["Engine", "ServingIndex", "PatternEngine", "serialize_rule"]


def _trim_heap() -> None:
    """Hand the C heap's free memory back to the OS (glibc ``malloc_trim``).

    Algorithm 1's NumPy temporaries are freed into the C heap, where the
    daemon's small Python objects (pymalloc arenas) cannot reuse them, so
    without the trim a serving daemon's peak RSS carries its start-up
    temporaries on top of its working set.  A no-op on a C library
    without ``malloc_trim``.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


class ServingIndex:
    """The immutable read path of the daemon: one stored structure.

    Holds the stored rank paths once, as a :class:`~repro.core.flat.FlatPLT`,
    behind an :class:`~repro.compress.index.ItemIndex` (point queries,
    conditional databases), plus the header facts every answer needs
    (build threshold, transaction count) and the label order answers are
    sorted and decoded in: ``labels`` lists the labels by
    :func:`~repro.core.rank.sort_key`, and ``positions[r]`` is rank
    ``r``'s place in it.  The :class:`~repro.core.plt.PLT` a rules query
    mines is a view of the same columns.
    """

    __slots__ = (
        "rank_table", "min_support", "n_transactions", "flat", "postings",
        "labels", "positions", "_plt",
    )

    def __init__(self, rank_table: RankTable, flat: FlatPLT):
        self.rank_table = rank_table
        self.min_support = flat.min_support
        self.n_transactions = flat.n_transactions
        self.flat = flat
        self.postings = ItemIndex(flat)
        items = rank_table.items()
        # sorted() is stable: labels with equal keys keep rank order, as
        # sorting a rank-ordered label tuple by sort_key would
        by_label = sorted(range(len(items)), key=lambda i: sort_key(items[i]))
        self.labels = tuple(items[i] for i in by_label)
        positions = [0] * (len(items) + 1)
        for position, i in enumerate(by_label):
            positions[i + 1] = position
        self.positions = positions
        self._plt = PLT.from_flat(rank_table, flat)

    @classmethod
    def from_transactions(
        cls, transactions, min_support: float | int, *, order: str = "lexicographic"
    ) -> "ServingIndex":
        """Algorithm 1 once, postings forever."""
        plt = PLT.from_transactions(transactions, min_support, order=order)
        index = cls(plt.rank_table, plt.flat)
        _trim_heap()
        return index

    @classmethod
    def from_store(cls, path) -> "ServingIndex":
        """Load a compressed :class:`~repro.compress.store.PLTStore` file.

        The store is streamed bucket-by-bucket into the columns and then
        closed — the daemon holds no file handle afterwards.
        """
        from repro.compress.store import PLTStore

        with PLTStore(path) as store:
            plt = store.to_plt()
        return cls(plt.rank_table, plt.flat)

    def plt(self) -> PLT:
        """The full structure: a view of the index's columns."""
        return self._plt


def serialize_rule(rule: Rule) -> dict:
    """A :class:`~repro.rules.generation.Rule` as a JSON-ready dict."""
    return {
        "antecedent": list(rule.antecedent),
        "consequent": list(rule.consequent),
        "support_count": rule.support_count,
        "support": rule.support,
        "confidence": rule.confidence,
        "lift": rule.lift,
        "leverage": rule.leverage,
        "conviction": rule.conviction,
    }


class Engine:
    """The request envelope both serving engines share.

    :meth:`handle` checks the request shape, counts the op, dispatches
    to ``_op_<op>(request, cancel)`` and turns every refusal into an
    ``{"ok": false, "code": ...}`` envelope; the ``ping``, ``health`` and
    ``stats`` ops and the request-field validators live here too.  A
    subclass lists its :attr:`OPS`, names itself in :attr:`ENGINE` and
    provides :meth:`stats`.
    """

    OPS: tuple[str, ...] = ("ping", "health", "stats")
    #: The ``engine`` field of ``health`` answers.
    ENGINE = "exact"

    def __init__(self) -> None:
        self._started_at = time.monotonic()
        self._lock = threading.Lock()
        self._op_counts: dict[str, int] = {}
        self._errors = 0
        #: Extra facts merged into ``health`` answers — the serve worker
        #: records its snapshot provenance (incarnation, restored, digest)
        #: here so a supervisor can read them over the wire.
        self.health_info: dict = {}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request, *, cancel: CancellationToken | None = None) -> dict:
        """Answer one request dict with a response envelope dict.

        Never raises for malformed or over-budget requests — those become
        ``{"ok": false, "code": ...}`` envelopes, because one bad query
        must cost exactly one bad answer, not a connection or a daemon.
        """
        start = time.monotonic()
        op = request.get("op") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ServeProtocolError(
                    f"request must be a JSON object, got {type(request).__name__}",
                    code="bad_request",
                )
            if op not in self.OPS:
                self._unknown_op(op)
            with self._lock:
                self._op_counts[op] = self._op_counts.get(op, 0) + 1
            envelope = getattr(self, "_op_" + op)(request, cancel)
        except ServeError as exc:
            envelope = self._error(str(exc), exc.code)
        except MiningInterrupted as exc:
            # ops with no meaningful partial form (frequency scans, rules
            # over a not-downward-closed table) surface the trip as an error
            envelope = self._error(str(exc), "budget")
            envelope["stop_reason"] = exc.reason
        except (InvalidSupportError, InvalidParameterError, UnknownItemError) as exc:
            envelope = self._error(str(exc), "bad_request")
        except ReproError as exc:
            envelope = self._error(str(exc), "internal")
        envelope["op"] = op
        envelope["elapsed"] = time.monotonic() - start
        return envelope

    def _unknown_op(self, op) -> NoReturn:
        raise ServeProtocolError(
            f"unknown op {op!r}; expected one of {self.OPS}", code="bad_request"
        )

    def _error(self, message: str, code: str) -> dict:
        with self._lock:
            self._errors += 1
        return {"ok": False, "error": message, "code": code}

    def _counters(self) -> tuple[dict[str, int], int]:
        """Per-op totals and the error count, read consistently."""
        with self._lock:
            return dict(self._op_counts), self._errors

    # ------------------------------------------------------------------
    # request fields
    # ------------------------------------------------------------------
    @staticmethod
    def _field(request, field: str, default, *, count: bool = False, nullable: bool = False):
        """``request[field]``: a positive int if ``count``, else an int or a
        float; ``None`` only if ``nullable``.  A boolean is neither."""
        value = request.get(field, default)
        if value is None and nullable:
            return None
        if (
            isinstance(value, bool)
            or not isinstance(value, int if count else (int, float))
            or (count and value < 1)
        ):
            raise ServeProtocolError(
                f"{field} must be {'a positive integer' if count else 'numeric'}"
                f"{' or null' if nullable else ''}, got {value!r}",
                code="bad_request",
            )
        return value

    @staticmethod
    def _order_key(entry):
        """``(items, support)`` entries heaviest first, then canonical."""
        items, support = entry
        return (-support, len(items), [sort_key(i) for i in items])

    # ------------------------------------------------------------------
    # shared endpoints
    # ------------------------------------------------------------------
    def _op_ping(self, request, cancel) -> dict:
        return {"ok": True, "result": {"pong": True}, "complete": True, "source": "direct"}

    def _op_health(self, request, cancel) -> dict:
        """Liveness + readiness in one deadline-bounded probe.

        ``live`` is implied by any answer at all; ``ready`` means the
        engine's state is loaded and queries will be served (always true
        once the engine exists — the worker only binds the socket
        afterwards).
        """
        result = {
            "live": True,
            "ready": True,
            "engine": self.ENGINE,
            "pid": os.getpid(),
            "uptime": time.monotonic() - self._started_at,
        }
        result.update(self.health_info)
        return {"ok": True, "result": result, "complete": True, "source": "direct"}

    def _op_stats(self, request, cancel) -> dict:
        return {"ok": True, "result": self.stats(), "complete": True, "source": "direct"}

    def stats(self) -> dict:
        raise NotImplementedError


class PatternEngine(Engine):
    """Dispatch + governance + caching over a :class:`ServingIndex`."""

    OPS = ("ping", "health", "frequency", "topk", "rules", "recommend", "stats")

    def __init__(
        self,
        index: ServingIndex,
        *,
        cache_size: int = 128,
        coalesce: bool = True,
        max_inflight: int = 8,
        default_budget: MiningBudget | None = None,
        deadline_cap: float | None = None,
        itemset_cap: int | None = None,
        memory_cap: int | None = None,
    ):
        super().__init__()
        self.index = index
        self.cache = ServingCache(cache_size, coalesce=coalesce)
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            default_budget=default_budget,
            deadline_cap=deadline_cap,
            itemset_cap=itemset_cap,
            memory_cap=memory_cap,
        )

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _min_support(self, request) -> int:
        value = self._field(request, "min_support", None, nullable=True)
        if value is None:
            return self.index.min_support
        s = resolve_min_support(value, self.index.n_transactions)
        if s < self.index.min_support:
            raise ServeProtocolError(
                f"min_support {s} is below the structure's build threshold "
                f"{self.index.min_support}; rebuild the index to serve it",
                code="bad_request",
            )
        return s

    def _decode(self, ranks) -> tuple:
        """Distinct ranks -> canonical (sort_key-ordered) label tuple."""
        labels, positions = self.index.labels, self.index.positions
        return tuple([labels[p] for p in sorted([positions[r] for r in ranks])])

    def _cached(self, store_key, budget, cancel, compute_with_governor):
        """Run ``compute_with_governor`` through cache + admission.

        The store key identifies the *answer*; the flight key additionally
        carries the effective budget signature and the cancellation-token
        identity, so differently-governed identical queries never coalesce
        onto one another (a tiny-budget leader must not donate its partial
        answer, and a cancellable query must not donate its cancellation).
        """
        effective = self.admission.effective_budget(budget)
        flight_key = (
            store_key,
            budget_signature(effective),
            None if cancel is None else id(cancel),
        )

        def compute():
            with self.admission.admit(budget, cancel) as governor:
                return compute_with_governor(governor)

        return self.cache.get_or_compute(store_key, compute, flight_key=flight_key)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _op_frequency(self, request, cancel) -> dict:
        items = request.get("items")
        if not isinstance(items, (list, tuple)) or not items:
            raise ServeProtocolError(
                "frequency requires a non-empty 'items' list", code="bad_request"
            )
        s = self._min_support(request)
        budget = budget_from_request(request.get("budget"))
        table = self.index.rank_table
        try:
            unknown = [i for i in items if i not in table]
        except TypeError:
            raise ServeProtocolError(
                "frequency items must be hashable scalars", code="bad_request"
            ) from None
        if unknown:
            # an item the rank table never admitted is infrequent by
            # construction — the itemset cannot be frequent, and its exact
            # support is not derivable from the structure
            result = {
                "items": sorted(set(items), key=sort_key),
                "known": False,
                "support": None,
                "frequent": False,
                "contained": False,
            }
            return {"ok": True, "result": result, "complete": True, "source": "index"}
        ranks = table.encode_itemset(items)
        with self.admission.admit(budget, cancel) as governor:
            if governor is not None:
                governor.check_now()
            support = self.index.postings.support(ranks, governor=governor)
        result = {
            "items": list(self._decode(ranks)),
            "known": True,
            "support": support,
            "frequent": support >= s,
            "contained": support > 0,
        }
        return {"ok": True, "result": result, "complete": True, "source": "index"}

    # -- conditional / top-k -------------------------------------------
    def _conditional_compute(self, rank: int, min_support: int, governor):
        """Mine every frequent itemset containing ``rank``; exact supports.

        The item's conditional database is gathered straight off the
        postings as arrays: each stored path through the rank, less the
        rank (:meth:`~repro.compress.index.ItemIndex.conditional_paths`).
        Mining it at ``min_support`` around ``(rank,)`` enumerates exactly
        the frequent itemsets containing the item — bit-for-bit what
        filtering a full mine yields, without ever running one.  A budget
        trip keeps :func:`~repro.core.conditional.salvage`'s pairs.

        Returns ``((entries, complete, stop_reason), cacheable)`` where
        entries are decoded, canonically ordered (:meth:`_order_key`, read
        off the index's label positions), and ``cacheable`` is true only
        for complete answers.
        """
        postings = self.index.postings
        pairs = RankColumns()
        complete = True
        stop_reason = None
        try:
            if governor is not None:
                governor.check_now()
            support = postings.rank_support(rank)
            if support >= min_support:
                if governor is not None:
                    governor.note_itemsets()
                pairs.rows.append(((rank,), support))
                mine_conditional_rows(
                    *postings.conditional_paths(rank, governor=governor),
                    rank, min_support, pairs, governor=governor,
                )
        except MiningInterrupted as exc:
            complete = False
            stop_reason = exc.reason
            pairs = salvage(pairs, governor)
        labels, positions = self.index.labels, self.index.positions
        keyed = sorted(
            (-sup, len(ranks), sorted([positions[r] for r in ranks])) for ranks, sup in pairs
        )
        entries = [(tuple([labels[p] for p in at]), -neg) for neg, _, at in keyed]
        return (entries, complete, stop_reason), complete

    def _op_topk(self, request, cancel) -> dict:
        if "item" not in request:
            raise ServeProtocolError("topk requires an 'item' field", code="bad_request")
        item = request["item"]
        k = self._field(request, "k", 10, count=True, nullable=True)
        s = self._min_support(request)
        budget = budget_from_request(request.get("budget"))
        try:
            known = item in self.index.rank_table
        except TypeError:
            raise ServeProtocolError(
                "topk item must be a hashable scalar", code="bad_request"
            ) from None
        if not known:
            result = {"item": item, "k": k, "available": 0, "itemsets": []}
            return {"ok": True, "result": result, "complete": True, "source": "index"}
        rank = self.index.rank_table.rank(item)
        value, source = self._cached(
            ("cond", rank, s),
            budget,
            cancel,
            lambda governor: self._conditional_compute(rank, s, governor),
        )
        entries, complete, stop_reason = value
        top = entries if k is None else entries[:k]
        result = {
            "item": item,
            "k": k,
            "available": len(entries),
            "itemsets": [{"items": list(it), "support": sup} for it, sup in top],
        }
        envelope = {"ok": True, "result": result, "complete": complete, "source": source}
        if stop_reason is not None:
            envelope["stop_reason"] = stop_reason
        return envelope

    # -- rules / recommendations ---------------------------------------
    def _rules_for(self, s: int, min_confidence: float, min_lift, budget, cancel):
        """The ranked rule list at a support/confidence level, cached.

        The underlying full mine runs under the query's governor; a budget
        trip raises :class:`~repro.errors.MiningInterrupted` (a partial
        support table is not downward closed, so rules cannot be generated
        from it — the caller surfaces a ``budget`` error instead of wrong
        confidences).
        """

        def compute(governor):
            if governor is not None:
                governor.check_now()
            table_key = ("table", s)
            table = self.cache.peek(table_key)
            if table is None:
                pairs = mine_conditional(self.index.plt(), s, governor=governor)
                decode = self.index.rank_table.decode_ranks
                decoded = [
                    (tuple(sorted(decode(ranks), key=sort_key)), sup)
                    for ranks, sup in pairs
                ]
                # insertion order must match MiningResult.as_dict() — rule
                # generation breaks sort ties by table iteration order, and
                # the differential contract is bit-for-bit agreement
                decoded.sort(key=lambda kv: (len(kv[0]), [sort_key(i) for i in kv[0]]))
                table = {frozenset(items): sup for items, sup in decoded}
                # memoized via the engine cache so repeated rule queries at
                # other confidence levels skip the mine; a plain store (not
                # get_or_compute) because admission already governs us here
                self.cache.get_or_compute(table_key, lambda: (table, True))
            rules = generate_rules(
                table, self.index.n_transactions, min_confidence, min_lift=min_lift
            )
            return rules, True

        return self._cached(
            ("rules", s, min_confidence, min_lift), budget, cancel, compute
        )

    def _op_rules(self, request, cancel) -> dict:
        s = self._min_support(request)
        min_confidence = self._field(request, "min_confidence", 0.5)
        min_lift = self._field(request, "min_lift", None, nullable=True)
        limit = self._field(request, "limit", 50, count=True, nullable=True)
        budget = budget_from_request(request.get("budget"))
        rules, source = self._rules_for(s, min_confidence, min_lift, budget, cancel)
        shown = rules if limit is None else rules[:limit]
        result = {
            "total": len(rules),
            "rules": [serialize_rule(r) for r in shown],
        }
        return {"ok": True, "result": result, "complete": True, "source": source}

    def _op_recommend(self, request, cancel) -> dict:
        basket_items = request.get("basket")
        if not isinstance(basket_items, (list, tuple)) or not basket_items:
            raise ServeProtocolError(
                "recommend requires a non-empty 'basket' list", code="bad_request"
            )
        try:
            basket = frozenset(basket_items)
        except TypeError:
            raise ServeProtocolError(
                "basket items must be hashable scalars", code="bad_request"
            ) from None
        s = self._min_support(request)
        min_confidence = self._field(request, "min_confidence", 0.5)
        min_lift = self._field(request, "min_lift", None, nullable=True)
        top = self._field(request, "top", 5, count=True)
        budget = budget_from_request(request.get("budget"))
        rules, source = self._rules_for(s, min_confidence, min_lift, budget, cancel)
        # a useful recommendation's antecedent is satisfied by the basket
        # and its consequent adds something new
        candidates = [
            r
            for r in rules
            if frozenset(r.antecedent) <= basket and not (frozenset(r.consequent) & basket)
        ]
        best = first_matching_rule(candidates, basket)
        result = {
            "basket": sorted(basket, key=sort_key),
            "total_matches": len(candidates),
            "recommendations": [serialize_rule(r) for r in candidates[:top]],
            "best": None if best is None else serialize_rule(best),
        }
        return {"ok": True, "result": result, "complete": True, "source": source}

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        ops, errors = self._counters()
        return {
            "uptime": time.monotonic() - self._started_at,
            "queries": sum(ops.values()),
            "errors": errors,
            "ops": ops,
            "cache": self.cache.stats().as_dict(),
            "admission": self.admission.stats(),
            "index": {
                "n_items": len(self.index.rank_table),
                "n_paths": self.index.postings.n_paths(),
                "min_support": self.index.min_support,
                "n_transactions": self.index.n_transactions,
            },
        }
