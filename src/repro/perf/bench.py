"""The tracked benchmark baseline: ``python -m repro bench``.

Runs a pinned workload matrix — sparse and dense synthetic databases at
three support levels each for the conditional miner, plus a dense matrix
for the top-down miner — and times the optimized kernels against the
frozen pre-optimization references in :mod:`repro.perf.legacy` on the
same prebuilt PLT.  Every workload is verified (the two generations must
emit identical ``(itemset, support)`` sets) before it is timed, so a
benchmark number can never come from a wrong answer.

The ``parallel-*`` workloads time the multiprocessing executors (two
workers over one shared-memory FlatPLT, :mod:`repro.parallel.shm`)
against the in-process miner on the same PLT instead; ``speedup`` is
``serial_s / shm_s``.  The parallel result is verified against the
in-process one before timing, and the report also records
``ipc_bytes_sent`` next to the segment's size (``shm_segment_bytes``) so
CI can gate the copy elimination itself, not just the wall clock
(:func:`ipc_gate_problems`).

The ``stream-ingest`` workload times the one-pass sketch frontend
(:mod:`repro.stream`) over a full dataset and records its ingest
throughput and final sketch footprint.  It has no legacy counterpart, so
it carries no ``speedup`` and the ratio gate skips it; instead
:func:`stream_gate_problems` fails the run whenever the sketch outgrows
its pinned byte budget — the bounded-memory promise, enforced in CI.

The JSON written to ``BENCH_PR13.json`` records per-workload wall-clock
for both generations (or both executions), the speedup ratio, and the
optimized engine's phase counters.  The *ratio* is the tracked quantity:
both sides run on the same machine, so it is hardware-independent enough
for CI to regress against (``--compare`` fails when a workload's current
ratio drops more than ``REGRESSION_TOLERANCE`` below the committed
baseline).

``--quick`` runs the one-workload-per-group subset that the ``bench-
smoke`` CI job uses; ``--repeat`` controls the best-of noise filter.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.perf.counters import COUNTERS, collecting
from repro.perf.timer import best_of

__all__ = [
    "Workload",
    "WORKLOADS",
    "DEFAULT_OUTPUT",
    "REGRESSION_TOLERANCE",
    "MIN_GATE_SECONDS",
    "IPC_REDUCTION_FACTOR",
    "PARALLEL_WORKLOAD_WORKERS",
    "STREAM_SKETCH_BUDGET",
    "run_bench",
    "compare_against_baseline",
    "ipc_gate_problems",
    "stream_gate_problems",
    "main",
]

DEFAULT_OUTPUT = "BENCH_PR13.json"

#: A workload "regresses" when its current legacy/optimized ratio falls
#: more than this fraction below the committed baseline ratio.
REGRESSION_TOLERANCE = 0.25

#: Workloads whose timings (either generation, either document) fall
#: below this are excluded from regression gating: at sub-10 ms scale the
#: ratio is dominated by scheduler/cache noise, not kernel behaviour, and
#: a micro-workload flake would fail CI without any real regression.
MIN_GATE_SECONDS = 0.010

#: Parallel dispatch must push less than this fraction of the shared
#: segment's bytes through the pool pipes on every parallel workload —
#: the gate that keeps the executors actually zero-copy as the dispatch
#: protocol evolves (shipping the data itself would cost ~100%).
IPC_REDUCTION_FACTOR = 0.1

#: Pool size for the ``parallel-*`` workloads.  Pinned (not
#: ``default_workers()``) so the cells exercise a real multi-worker
#: dispatch even on small CI boxes.
PARALLEL_WORKLOAD_WORKERS = 2

#: The ``stream-ingest`` workload's sketch must finish under this many
#: bytes regardless of stream length — the bounded-memory gate.
STREAM_SKETCH_BUDGET = 256 * 1024


@dataclass(frozen=True)
class Workload:
    """One pinned (miner, dataset, support) cell of the benchmark matrix."""

    kind: str  # "conditional" | "topdown" | "parallel-cond" | "parallel-topdown"
    dataset: str  # repro.data.datasets name
    min_support: int  # absolute count
    quick: bool  # part of the --quick smoke subset

    @property
    def name(self) -> str:
        return f"{self.kind}/{self.dataset}@{self.min_support}"


#: The pinned matrix.  Supports are absolute counts chosen so the sweep
#: spans shallow to deep lattices on each dataset; the ``quick`` subset
#: keeps one cell per (kind, dataset) group for CI.
WORKLOADS: tuple[Workload, ...] = (
    Workload("conditional", "T10.I4.D5K", 100, True),
    Workload("conditional", "T10.I4.D5K", 50, False),
    Workload("conditional", "T10.I4.D5K", 25, False),
    Workload("conditional", "DENSE-50", 600, False),
    Workload("conditional", "DENSE-50", 500, True),
    Workload("conditional", "DENSE-50", 400, False),
    Workload("topdown", "DENSE-30", 150, True),
    Workload("topdown", "DENSE-30", 75, False),
    Workload("topdown", "DENSE-30", 30, False),
    Workload("parallel-cond", "T10.I4.D5K", 25, True),
    Workload("parallel-cond", "T10.I4.D5K", 50, False),
    Workload("parallel-topdown", "DENSE-16.D5K", 250, True),
    Workload("stream-ingest", "T10.I4.D5K", 0, True),
)


def _miner_pair(kind: str):
    """Return ``(optimized, legacy)`` callables taking ``(plt, ms)``."""
    from repro.core.conditional import mine_conditional
    from repro.core.topdown import mine_topdown
    from repro.perf.legacy import (
        mine_conditional_reference,
        mine_topdown_reference,
    )

    if kind == "conditional":
        return mine_conditional, mine_conditional_reference
    if kind == "topdown":
        return (
            lambda plt, ms: mine_topdown(plt, ms, work_limit=None),
            mine_topdown_reference,
        )
    raise ValueError(f"unknown workload kind {kind!r}")


def run_workload(workload: Workload, repeat: int) -> dict:
    """Verify then time one matrix cell; return its JSON record."""
    from repro.core.plt import PLT
    from repro.data.datasets import load

    optimized, legacy = _miner_pair(workload.kind)
    db = load(workload.dataset)
    ms = workload.min_support
    plt = PLT.from_transactions(db, min_support=ms)

    new_result = optimized(plt, ms)
    old_result = legacy(plt, ms)
    if sorted(new_result) != sorted(old_result):
        raise AssertionError(
            f"{workload.name}: optimized and legacy miners disagree "
            f"({len(new_result)} vs {len(old_result)} itemsets)"
        )

    with collecting():
        optimized(plt, ms)
        counters = COUNTERS.snapshot()

    optimized_s, _ = best_of(optimized, plt, ms, repeat=repeat)
    legacy_s, _ = best_of(legacy, plt, ms, repeat=repeat)
    return {
        "name": workload.name,
        "kind": workload.kind,
        "dataset": workload.dataset,
        "min_support": ms,
        "transactions": len(db),
        "itemsets": len(new_result),
        "legacy_s": legacy_s,
        "optimized_s": optimized_s,
        "speedup": legacy_s / optimized_s if optimized_s else float("inf"),
        "counters": counters,
    }


def run_parallel_workload(workload: Workload, repeat: int) -> dict:
    """Time one parallel cell against the in-process miner.

    The parallel output is verified against the in-process miner first,
    so the byte-identical-results contract is re-proven on each bench
    run, not just in the test suite.
    """
    from repro.core.conditional import mine_conditional
    from repro.core.plt import PLT
    from repro.core.topdown import topdown_subset_frequencies
    from repro.data.datasets import load
    from repro.parallel.executor import mine_parallel, topdown_parallel

    db = load(workload.dataset)
    ms = workload.min_support
    plt = PLT.from_transactions(db, min_support=ms)
    workers = PARALLEL_WORKLOAD_WORKERS

    if workload.kind == "parallel-cond":
        def serial():
            return mine_conditional(plt, ms)

        def parallel():
            return mine_parallel(plt, ms, n_workers=workers)

        canonical = sorted(serial())
        n_itemsets = len(canonical)
        agrees = sorted(parallel()) == canonical
    elif workload.kind == "parallel-topdown":
        def serial():
            return topdown_subset_frequencies(plt)

        def parallel():
            return topdown_parallel(plt, n_workers=workers)

        canonical = serial()
        n_itemsets = sum(len(bucket) for bucket in canonical.values())
        agrees = parallel() == canonical
    else:
        raise ValueError(f"unknown parallel workload kind {workload.kind!r}")
    if not agrees:
        raise AssertionError(
            f"{workload.name}: the parallel executor disagrees with the "
            f"in-process miner"
        )

    with collecting():
        parallel()
        counters = COUNTERS.snapshot()
    serial_s, _ = best_of(serial, repeat=repeat)
    shm_s, _ = best_of(parallel, repeat=repeat)
    return {
        "name": workload.name,
        "kind": workload.kind,
        "dataset": workload.dataset,
        "min_support": ms,
        "transactions": len(db),
        "itemsets": n_itemsets,
        "n_workers": workers,
        "serial_s": serial_s,
        "shm_s": shm_s,
        "speedup": serial_s / shm_s if shm_s else float("inf"),
        "ipc_bytes_sent": counters.get("ipc_bytes_sent", 0),
        "shm_segment_bytes": counters.get("shm_segment_bytes", 0),
    }


def run_stream_workload(workload: Workload, repeat: int) -> dict:
    """Time the one-pass sketch ingest; record throughput and footprint.

    There is no legacy generation to ratio against, so the record carries
    no ``speedup`` (the regression gate skips it); ``sketch_bytes`` vs
    ``sketch_budget`` is what :func:`stream_gate_problems` enforces.
    """
    from repro.data.datasets import load
    from repro.stream import StreamSummary

    db = load(workload.dataset)
    transactions = [tuple(t) for t in db]

    def ingest():
        summary = StreamSummary(epsilon=0.005, delta=0.01, capacity=256, seed=0)
        summary.extend(transactions)
        return summary

    sketch_bytes = ingest().memory_bytes()
    ingest_s, _ = best_of(ingest, repeat=repeat)
    return {
        "name": workload.name,
        "kind": workload.kind,
        "dataset": workload.dataset,
        "min_support": workload.min_support,
        "transactions": len(transactions),
        "ingest_s": ingest_s,
        "throughput_tps": (
            len(transactions) / ingest_s if ingest_s else float("inf")
        ),
        "sketch_bytes": sketch_bytes,
        "sketch_budget": STREAM_SKETCH_BUDGET,
    }


def _geomean(values: list[float]) -> float:
    return math.prod(values) ** (1.0 / len(values)) if values else 0.0


def _describe(record: dict) -> str:
    if record["kind"] == "stream-ingest":
        return (
            f"  {record['name']}: ingest {record['ingest_s'] * 1e3:8.1f} ms"
            f"  {record['throughput_tps']:9.0f} tx/s"
            f"  sketch {record['sketch_bytes']} / {record['sketch_budget']} B"
        )
    if record["kind"].startswith("parallel-"):
        return (
            f"  {record['name']}: serial {record['serial_s'] * 1e3:8.1f} ms"
            f"  shm {record['shm_s'] * 1e3:8.1f} ms"
            f"  speedup {record['speedup']:.2f}x"
            f"  ipc {record['ipc_bytes_sent']} B"
            f" / segment {record['shm_segment_bytes']} B"
        )
    return (
        f"  {record['name']}: legacy {record['legacy_s'] * 1e3:8.1f} ms"
        f"  optimized {record['optimized_s'] * 1e3:8.1f} ms"
        f"  speedup {record['speedup']:.2f}x"
    )


def run_bench(*, quick: bool = False, repeat: int = 3) -> dict:
    """Run the (full or quick) matrix and return the report document."""
    records = []
    for workload in WORKLOADS:
        if quick and not workload.quick:
            continue
        if workload.kind.startswith("parallel-"):
            record = run_parallel_workload(workload, repeat)
        elif workload.kind == "stream-ingest":
            record = run_stream_workload(workload, repeat)
        else:
            record = run_workload(workload, repeat)
        records.append(record)
        print(_describe(record), file=sys.stderr)
    summary = {
        f"{kind}_speedup": round(
            _geomean(
                [r["speedup"] for r in records if r["kind"] == kind]
            ),
            3,
        )
        for kind in ("conditional", "topdown")
        if any(r["kind"] == kind for r in records)
    }
    parallel_speedups = [
        r["speedup"] for r in records if r["kind"].startswith("parallel-")
    ]
    if parallel_speedups:
        summary["parallel_shm_speedup"] = round(_geomean(parallel_speedups), 3)
    return {
        "schema": 3,
        "pr": "PR13",
        "quick": quick,
        "repeat": repeat,
        "python": platform.python_version(),
        "workloads": records,
        "summary": summary,
    }


def compare_against_baseline(
    report: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[str]:
    """Return one message per workload whose ratio regressed.

    Only workloads present in both documents are compared — the ratio is
    machine-independent, absolute times are not, so the check stays valid
    across hardware.  Workloads timed below :data:`MIN_GATE_SECONDS` in
    either document are reported but never gated (their ratios are noise).
    """
    base_by_name = {w["name"]: w for w in baseline.get("workloads", ())}
    problems = []
    for record in report["workloads"]:
        base = base_by_name.get(record["name"])
        if base is None or "speedup" not in record or "speedup" not in base:
            continue
        # documents without timing fields stay gated (ratio-only
        # baselines); any ``*_s`` wall-clock key counts, so the check
        # covers legacy/optimized and serial/shm records alike
        timings = [
            value
            for doc in (record, base)
            for key, value in doc.items()
            if key.endswith("_s")
        ]
        if timings and min(timings) < MIN_GATE_SECONDS:
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if record["speedup"] < floor:
            problems.append(
                f"{record['name']}: speedup {record['speedup']:.2f}x fell "
                f"below {floor:.2f}x (baseline {base['speedup']:.2f}x "
                f"- {tolerance:.0%} tolerance)"
            )
    return problems


def ipc_gate_problems(
    report: dict, factor: float = IPC_REDUCTION_FACTOR
) -> list[str]:
    """One message per parallel workload whose dispatch traffic is not
    under ``factor`` of its shared segment's size.

    Records without a ``shm_segment_bytes`` field (non-parallel cells,
    or documents from before the segment was measured) are not gated.
    """
    problems = []
    for record in report.get("workloads", ()):
        segment = record.get("shm_segment_bytes")
        if segment is None:
            continue
        limit = factor * segment
        if record["ipc_bytes_sent"] >= limit:
            problems.append(
                f"{record['name']}: dispatch sent {record['ipc_bytes_sent']} "
                f"bytes, expected < {limit:.0f} ({factor:.0%} of the "
                f"{segment}-byte shared segment)"
            )
    return problems


def stream_gate_problems(report: dict) -> list[str]:
    """One message per ``stream-ingest`` workload whose final sketch
    exceeds its pinned byte budget.

    Unlike the ratio gate this is absolute and machine-independent: the
    sketch's footprint is a function of (epsilon, delta, capacity) alone,
    so any growth means the bounded-memory contract itself broke.
    """
    problems = []
    for record in report.get("workloads", ()):
        if record.get("kind") != "stream-ingest":
            continue
        budget = record.get("sketch_budget", STREAM_SKETCH_BUDGET)
        if record["sketch_bytes"] > budget:
            problems.append(
                f"{record['name']}: sketch grew to {record['sketch_bytes']} "
                f"bytes, budget is {budget}"
            )
    return problems


def main(
    *,
    quick: bool = False,
    repeat: int | None = None,
    output: str | None = None,
    compare: str | None = None,
) -> int:
    """Driver behind ``python -m repro bench``; returns an exit status."""
    if repeat is None:
        repeat = 2 if quick else 3
    report = run_bench(quick=quick, repeat=repeat)
    for key, value in report["summary"].items():
        print(f"{key}: {value}x", file=sys.stderr)

    ipc_problems = ipc_gate_problems(report)
    for problem in ipc_problems:
        print(f"IPC GATE {problem}", file=sys.stderr)
    if ipc_problems:
        return 1

    stream_problems = stream_gate_problems(report)
    for problem in stream_problems:
        print(f"STREAM GATE {problem}", file=sys.stderr)
    if stream_problems:
        return 1

    if compare is not None:
        baseline = json.loads(Path(compare).read_text())
        problems = compare_against_baseline(report, baseline)
        for problem in problems:
            print(f"REGRESSION {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"no regressions vs {compare} "
            f"(tolerance {REGRESSION_TOLERANCE:.0%})",
            file=sys.stderr,
        )

    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}", file=sys.stderr)
    return 0
