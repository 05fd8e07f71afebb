"""One fresh interpreter doing the program's work for ``mine-*`` and ``stream-ingest``.

``run.py`` generates the inputs, then starts this script with a JSON spec
(``python3 perfbench/worker.py spec.json``) and reads one JSON object from
its standard output.  Running the work in its own process makes set-up
time cover the program's imports, and peak RSS cover the program alone.
Set-up time starts after the spec and inputs are loaded and before the
program is first imported, so interpreter start-up is not in it.

Modes: ``setup`` stops after the set-up, ``run`` adds the timed loop and
``trace`` adds the untraced, traced and layer-by-layer phases.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

from inputs import read_dat as read_lists
from spans import Tracer, median, timed_loop

SKETCH_BUDGET = 256 * 1024


def _digest(path: Path, corrupt: bool) -> bytes:
    data = path.read_bytes()
    if corrupt:
        data += b"planted wrong answer\n"
    return hashlib.sha256(data).digest()


def mine(spec: dict) -> dict:
    """Operation ``i`` mines input ``i % len(inputs)``.

    The first output of each input is kept for ``run.py`` to check against
    its reference; every later output of that input must be byte-identical.
    """
    t0 = time.perf_counter()
    from repro.cli import main as cli_main

    out_dir = Path(spec["out_dir"])
    paths = spec["inputs"]
    argvs = [
        ["mine", "--input", path, "--min-support", str(spec["min_support"]),
         "--method", spec["method"], "--output", str(out_dir / f"out-{j}.txt")]
        for j, path in enumerate(paths)
    ]
    firsts = [out_dir / f"first-{j}.txt" for j in range(len(paths))]
    if cli_main(argvs[0][:-1] + [str(firsts[0])]) != 0:
        raise SystemExit("warm-up mine failed")
    result = {"setup_s": time.perf_counter() - t0, "first_outputs": [str(f) for f in firsts]}
    if spec["mode"] == "setup":
        return result
    references = {0: _digest(firsts[0], False)}
    bad = Counter()
    ops_per_input = Counter()
    calibration: list[float] = []

    def op(i: int, tracer: Tracer | None = None) -> float:
        j = i % len(paths)
        argv = argvs[j]
        ops_per_input[j] += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(argv)
            else:
                from repro.perf.counters import collecting

                with tracer.span("cli.main"), collecting():
                    rc = cli_main(argv)
        except Exception:  # an operation that raises counts as failed
            bad["failed"] += 1
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        if rc != 0:
            bad["failed"] += 1
            return seconds
        digest = _digest(Path(argv[-1]), i == spec["plant"])
        if j not in references:
            shutil.copyfile(argv[-1], firsts[j])
            references[j] = digest
        elif digest != references[j]:
            bad["wrong"] += 1
        return seconds

    if spec["mode"] == "run":
        samples, factors = timed_loop(op, spec["seconds"], spec["min_ops"], spec["max_seconds"], calibration)
        extra = {"samples": samples, "factors": factors}
    else:
        extra = _trace_mine(spec, op, calibration)
    return {**result, **extra, "calibration": calibration, "ops_per_input": ops_per_input, **bad}


def _trace_mine(spec: dict, op, calibration: list[float]) -> dict:
    from repro.core.mining import mine_frequent_itemsets
    from repro.core.plt import PLT
    from repro.data.io import read_dat
    from repro.perf.counters import collecting
    from repro.viz import render_itemsets

    if spec["method"] == "plt-topdown":
        from repro.core.topdown import mine_topdown as kernel

        layer, work_key = "core.topdown", "topdown_work_items"
    else:
        from repro.core.conditional import mine_conditional as kernel

        layer, work_key = "core.conditional", "cond_work_items_merged"
    third = spec["seconds"] / 3
    tracer = Tracer()
    untraced, untraced_factors = timed_loop(op, third, 5, spec["max_seconds"], calibration)
    traced, traced_factors = timed_loop(lambda i: op(i, tracer), third, 5, spec["max_seconds"], calibration)

    s, path = spec["min_support"], spec["inputs"][0]
    plt = PLT.from_transactions(read_dat(path), s)
    with collecting() as counts:
        itemsets = len(kernel(plt, s))
    work = counts[work_key]

    def replay(i: int) -> float:
        with tracer.span("mine.replay") as root:
            with tracer.span("data.io.read_dat"):
                db = read_dat(path)
            with tracer.span("core.mining.mine_frequent_itemsets"):
                result = mine_frequent_itemsets(db, s, method=spec["method"])
            with tracer.span("core.plt.PLT.from_transactions"):
                plt = PLT.from_transactions(db, s)
            with tracer.span(f"{layer}.{kernel.__name__}"):
                kernel(plt, s)
            with tracer.span("viz.render_itemsets"):
                render_itemsets(result)
        return root["end"] - root["start"]

    timed_loop(replay, third, 3, spec["max_seconds"], calibration)

    def ms(name: str) -> float:
        return 1e3 * median(tracer.durations(name))

    kernel_ms = ms(f"{layer}.{kernel.__name__}")
    build_ms = ms("core.plt.PLT.from_transactions")
    layers = {
        "data.io.parse_ms": ms("data.io.read_dat"),
        "core.plt.build_ms": build_ms,
        "core.plt.vectors": plt.n_vectors(),
        f"{layer}.kernel_ms": kernel_ms,
        f"{layer}.work_items": work,
        f"{layer}.itemsets_per_work_item": itemsets / work if work else 0.0,
        "core.mining.decode_ms": ms("core.mining.mine_frequent_itemsets") - build_ms - kernel_ms,
        "viz.render_ms": ms("viz.render_itemsets"),
        "trace.overhead_ms": 1e3 * (median(traced) - median(untraced)),
    }
    return {
        "layers": layers,
        "spans": tracer.spans,
        "samples": untraced + traced,
        "factors": untraced_factors + traced_factors,
    }


class _Exact:
    """Exact supports of every item and of pairs among ``tracked`` items."""

    def __init__(self, tracked):
        self.tracked = set(tracked)
        self.items: Counter = Counter()
        self.pairs: Counter = Counter()

    def add(self, transactions) -> None:
        for t in transactions:
            self.items.update(t)
            kept = sorted(self.tracked.intersection(t))
            self.pairs.update(itertools.combinations(kept, 2))

    def support(self, itemset) -> int | None:
        """``None`` when the itemset's exact support is not tracked."""
        if len(itemset) == 1:
            return self.items[itemset[0]]
        if len(itemset) == 2 and self.tracked.issuperset(itemset):
            return self.pairs[tuple(sorted(itemset))]
        return None


def stream(spec: dict) -> dict:
    transactions = read_lists(spec["input"])
    size = spec["chunk"]
    starts = itertools.cycle(range(0, len(transactions) - size + 1, size))
    chunks = (transactions[i : i + size] for i in starts)
    probes = [tuple(p) for p in spec["probes"]]
    exact = _Exact(spec["tracked"])
    bad = Counter()
    calibration: list[float] = []

    t0 = time.perf_counter()
    from repro.stream.summary import StreamSummary

    summary = StreamSummary(epsilon=spec["epsilon"], delta=spec["delta"], capacity=spec["capacity"])

    def query():
        return summary.top_k(10), [summary.estimate(p) for p in probes]

    def op(i: int, tracer: Tracer | None = None) -> float:
        chunk = next(chunks)
        start = time.perf_counter()
        if tracer is None:
            summary.extend(chunk)
            top, estimates = query()
        else:
            with tracer.span("stream.op"):
                summary.extend(chunk)
                top, estimates = query()
        seconds = time.perf_counter() - start
        exact.add(chunk)
        answers = [(fi.items, fi.support) for fi in top] + list(zip(probes, estimates))
        if i == spec["plant"]:
            answers.append((probes[0], exact.support(probes[0]) - 1))
        under = any(
            (truth := exact.support(items)) is not None and est < truth for items, est in answers
        )
        if under or summary.memory_bytes() > SKETCH_BUDGET:
            bad["wrong"] += 1
        return seconds

    op(-1)
    result = {"setup_s": time.perf_counter() - t0}
    if spec["mode"] == "setup":
        return result
    if spec["mode"] == "run":
        samples, factors = timed_loop(op, spec["seconds"], spec["min_ops"], spec["max_seconds"], calibration)
        return {**result, "samples": samples, "factors": factors, "calibration": calibration, **bad}

    from repro.stream.cms import CountMinSketch, pack_pair
    from repro.stream.spacesaving import SpaceSaving

    third = spec["seconds"] / 3
    tracer = Tracer()
    untraced, untraced_factors = timed_loop(op, third, 5, spec["max_seconds"], calibration)
    traced, traced_factors = timed_loop(lambda i: op(i, tracer), third, 5, spec["max_seconds"], calibration)
    cms = CountMinSketch(spec["epsilon"], spec["delta"])
    items_hh, pairs_hh = SpaceSaving(spec["capacity"]), SpaceSaving(spec["capacity"])
    registry = summary.registry
    per_call: dict[str, list[float]] = {"rank": [], "cms": [], "hh": [], "updates": []}

    def replay(i: int) -> float:
        chunk = next(chunks)
        flat = [item for t in chunk for item in t]
        rank_sets = [sorted({registry.rank_for(x) for x in t}) for t in chunk]
        items = [r for rs in rank_sets for r in rs]
        pairs = [pair for rs in rank_sets for pair in itertools.combinations(rs, 2)]
        cms_keys = items + [pack_pair(a, b) for a, b in pairs]
        with tracer.span("stream.replay") as root:
            with tracer.span("stream.summary.StreamSummary.extend"):
                summary.extend(chunk)
            with tracer.span("stream.summary.RankRegistry.rank_for") as sp:
                for item in flat:
                    registry.rank_for(item)
            per_call["rank"].append((sp["end"] - sp["start"]) / len(flat))
            with tracer.span("stream.cms.CountMinSketch.add") as sp:
                for key in cms_keys:
                    cms.add(key)
            per_call["cms"].append((sp["end"] - sp["start"]) / len(cms_keys))
            with tracer.span("stream.spacesaving.SpaceSaving.add") as sp:
                for key in items:
                    items_hh.add(key)
                for key in pairs:
                    pairs_hh.add(key)
            per_call["hh"].append((sp["end"] - sp["start"]) / len(cms_keys))
            with tracer.span("stream.summary.query"):
                query()
        exact.add(chunk)
        per_call["updates"].append(len(cms_keys) / len(chunk))
        return root["end"] - root["start"]

    timed_loop(replay, third, 3, spec["max_seconds"], calibration)
    layers = {
        "stream.summary.rank_us": 1e6 * median(per_call["rank"]),
        "stream.cms.add_us": 1e6 * median(per_call["cms"]),
        "stream.spacesaving.add_us": 1e6 * median(per_call["hh"]),
        "stream.updates_per_tx": median(per_call["updates"]),
        "stream.query_ms": 1e3 * median(tracer.durations("stream.summary.query")),
        "stream.sketch_bytes": summary.memory_bytes(),
        "trace.overhead_ms": 1e3 * (median(traced) - median(untraced)),
    }
    return {
        **result,
        "layers": layers,
        "spans": tracer.spans,
        "samples": untraced + traced,
        "factors": untraced_factors + traced_factors,
        "calibration": calibration,
        **bad,
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = {"mine": mine, "stream": stream}[spec["kind"]](spec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
