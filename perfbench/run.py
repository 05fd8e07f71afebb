"""End-to-end benchmark of the PLT miner: mine, serve and stream.

Run from the repository root::

    python3 perfbench/run.py --workload mine-sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, the self time per layer and the tracing overhead; either way the
last line of standard output is one JSON object.  Every answer is checked;
a wrong one is counted in ``failed`` and makes the exit code 1.  The
program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.  Workloads, metrics and
the layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import inputs
from spans import CALIBRATION_REFERENCE_S, Tracer, calibration_slice, median, self_times, tail, timed_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Input sizes.  ``tiny`` exists for the self-tests only.
SIZES = {
    "full": {
        "sparse": {"n": 6000, "items": 1000, "support": 15},
        "dense": {"n": 1000, "items": 24, "length": 9, "support": 40},
        "inputs": 8,
        "chunk": 200,
        "setups": 5,
        "min_ops": {"mine": 20, "serve": 1000, "stream": 20},
    },
    "tiny": {
        "sparse": {"n": 600, "items": 100, "support": 10},
        "dense": {"n": 150, "items": 14, "length": 7, "support": 20},
        "inputs": 2,
        "chunk": 40,
        "setups": 2,
        "min_ops": {"mine": 11, "serve": 11, "stream": 11},
    },
}

# metric names and units, in order, as BENCHMARK.json declares them
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class Run:
    """What one workload measured; turned into metrics by :func:`report`."""

    def __init__(self, throughput_unit: str):
        self.throughput_unit = throughput_unit
        self.setups: list[float] = []
        self.setup_factors: list[float] = []  # to reference-host time
        self.samples: list[float] = []
        self.work_per_op = 1
        self.peak_rss_mb = 0.0
        self.failed = 0
        self.wrong = 0
        self.layers: dict[str, float] = {}
        self.spans: list[dict] = []
        self.notes: list[str] = []
        self.topk_sources: list[str] = []
        self.calibration: list[float] = []
        self.factors: list[float] = []  # per sample, to reference-host time


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict, work: Path) -> dict:
    path = work / f"spec-{spec['mode']}.json"
    path.write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def bracketed(measure):
    """``measure()`` between two calibration slices; returns it and its factor."""
    before = calibration_slice()
    value = measure()
    after = calibration_slice()
    return value, CALIBRATION_REFERENCE_S / ((before + after) / 2)


def measure_setups(run: Run, count: int, measure) -> None:
    for _ in range(count):
        seconds, factor = bracketed(measure)
        run.setups.append(seconds)
        run.setup_factors.append(factor)


def import_seconds() -> float:
    """``import repro.cli`` in a fresh interpreter, median of three."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    runs = [
        float(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout)
        for _ in range(3)
    ]
    return median(runs)


# ---------------------------------------------------------------------------
# mine-sparse, mine-dense
# ---------------------------------------------------------------------------
_ROW = re.compile(r"^\{(.*)\}\s+(\d+)$")


def parse_mine_output(path: Path) -> dict[frozenset, int]:
    table = {}
    for line in path.read_text().splitlines():
        match = _ROW.match(line)
        if match:
            items = frozenset(int(x) for x in match.group(1).split(", ") if x)
            table[items] = int(match.group(2))
    return table


def mine_workload(args, size: dict, work: Path) -> Run:
    """Each run mines ``inputs`` datasets in turn, all drawn from ``--seed``.

    One dataset per run would make the run's median follow that sample's
    itemset count, which varies by about 7% between seeds; cycling over
    several samples averages that out.
    """
    from repro import mine_frequent_itemsets

    dense = args.workload == "mine-dense"
    cfg = size["dense" if dense else "sparse"]
    paths, references = [], []
    for j in range(size["inputs"]):
        seed = args.seed * 1000 + j
        if dense:
            transactions = inputs.dense(cfg["n"], cfg["items"], cfg["length"], seed=seed)
        else:
            transactions = inputs.quest(cfg["n"], cfg["items"], seed=seed)
        paths.append(work / f"input-{j}.dat")
        inputs.write_dat(transactions, paths[-1])
        references.append({
            frozenset(fi.items): fi.support
            for fi in mine_frequent_itemsets(transactions, cfg["support"], method="fpgrowth")
        })
    run = Run("tx/s")
    run.work_per_op = cfg["n"]
    counts = sorted(len(r) for r in references)
    run.notes.append(
        f"{len(paths)} datasets of {cfg['n']} transactions over {cfg['items']} item ids, "
        f"min-support {cfg['support']}, {counts[0]}-{counts[-1]} itemsets each"
    )
    spec = {
        "kind": "mine",
        "inputs": [str(p) for p in paths],
        "min_support": cfg["support"],
        "method": "plt-topdown" if dense else "plt",
        "out_dir": str(work),
        "seconds": args.seconds,
        "min_ops": size["min_ops"]["mine"],
        "max_seconds": 3 * args.seconds,
        "plant": args.plant_wrong,
    }
    if args.trace:
        out = run_worker({**spec, "mode": "trace"}, work)
    else:
        measure_setups(run, size["setups"], lambda: run_worker({**spec, "mode": "setup"}, work)["setup_s"])
        out = run_worker({**spec, "mode": "run"}, work)
    run.samples = out["samples"]
    run.factors = out["factors"]
    run.calibration = out["calibration"]
    run.peak_rss_mb = out["peak_rss_mb"]
    run.failed = out.get("failed", 0)
    run.wrong = out.get("wrong", 0)
    run.layers = out.get("layers", {})
    run.spans = out.get("spans", [])
    for j, (first, reference) in enumerate(zip(out["first_outputs"], references)):
        if Path(first).exists() and parse_mine_output(Path(first)) != reference:
            # the operations whose output matched this wrong first answer
            run.wrong += out["ops_per_input"].get(str(j), 0)
    run.wrong = min(run.wrong, len(run.samples) - run.failed)
    return run


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------
class Daemon:
    """``python -m repro serve --db`` in a subprocess, up to its READY line."""

    def __init__(self, data: Path, min_support: int, work: Path):
        self._log = open(work / "serve.stderr", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", str(data),
             "--min-support", str(min_support)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        watchdog = threading.Timer(120, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.ready_s = time.perf_counter() - start
        match = re.search(r"port=(\d+)", line)
        if not line.startswith("READY") or match is None:
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._log.close()


def _normal(value):
    return json.loads(json.dumps(value))


class ServeChecker:
    """Keeps each distinct answer per request; checks them after the loop.

    Each answer must equal a directly driven in-process ``PatternEngine``;
    the first ``PLT_CHECKS`` distinct ``frequency`` keys must also equal
    ``PLT.support_of`` (a full scan, too slow to run on every key).
    """

    PLT_CHECKS = 200

    def __init__(self, plant):
        self.plant = plant
        self.seen: dict[str, list] = {}
        self.requests: dict[str, dict] = {}
        self.failed = 0

    def record(self, i: int, request: dict, envelope: dict) -> None:
        if not envelope.get("ok"):
            self.failed += 1
            return
        result = envelope["result"]
        if i == self.plant:
            result = {**result, "planted": "wrong answer"}
        key = json.dumps(request, sort_keys=True)
        answers = self.seen.setdefault(key, [])
        self.requests.setdefault(key, request)
        for entry in answers:
            if entry[0] == result:
                entry[1] += 1
                break
        else:
            answers.append([result, 1])

    def wrong(self, engine) -> int:
        plt = engine.index.plt()
        plt_checks = 0
        wrong = 0
        for key, answers in self.seen.items():
            request = self.requests[key]
            expected = _normal(engine.handle(request)["result"])
            if request["op"] == "frequency" and plt_checks < self.PLT_CHECKS:
                plt_checks += 1
                if plt.support_of(request["items"]) != expected["support"]:
                    expected = None
            wrong += sum(count for result, count in answers if result != expected)
        return wrong


def serve_workload(args, size: dict, work: Path) -> Run:
    from repro.data.io import read_dat
    from repro.serve import PatternEngine, ServingIndex
    from repro.serve.client import ServeClient
    from repro.serve.protocol import encode_message

    cfg = size["sparse"]
    transactions = inputs.quest(cfg["n"], cfg["items"], seed=args.seed)
    data = work / "input.dat"
    inputs.write_dat(transactions, data)
    s = cfg["support"]
    frequent = [i for i, n in inputs.item_supports(transactions).items() if n >= s]
    engine = PatternEngine(ServingIndex.from_transactions(read_dat(data), s), cache_size=1 << 20)
    run = Run("req/s")
    run.notes.append(
        f"{len(transactions)} transactions, {len(frequent)} frequent items, min-support {s}, "
        "closed loop, one client on one connection"
    )
    checker = ServeChecker(args.plant_wrong)
    requests = inputs.serve_requests(frequent, seed=args.seed)

    def probe() -> float:
        daemon = Daemon(data, s, work)
        daemon.stop()
        return daemon.ready_s

    if not args.trace:
        measure_setups(run, size["setups"], probe)
    daemon = Daemon(data, s, work)
    record: list[tuple[str, float, float, str]] = []  # op, seconds, elapsed, source
    try:
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request({"op": "ping"})

            def op(i: int, tracer: Tracer | None = None) -> float:
                request = next(requests)
                start = time.perf_counter()
                if tracer is None:
                    envelope = client.request(request)
                else:
                    with tracer.span("serve.client.request", op=request["op"]) as sp:
                        envelope = client.request(request)
                seconds = time.perf_counter() - start
                elapsed = envelope.get("elapsed", 0.0)
                if tracer is not None:
                    tracer.derived("serve.engine.handle", elapsed, sp)
                    sp["request_bytes"] = len(encode_message(0, request))
                    sp["response_bytes"] = len(encode_message(0, envelope))
                record.append((request["op"], seconds, elapsed, envelope.get("source", "")))
                checker.record(i, request, envelope)
                return seconds

            min_ops, cap = size["min_ops"]["serve"], 3 * args.seconds
            if args.trace:
                tracer = Tracer()
                third = args.seconds / 3
                untraced, untraced_factors = timed_loop(op, third, min_ops, cap, run.calibration)
                traced, traced_factors = timed_loop(
                    lambda i: op(i, tracer), third, min_ops, cap, run.calibration
                )
                run.samples = untraced + traced
                run.factors = untraced_factors + traced_factors
            else:
                run.samples, run.factors = timed_loop(op, args.seconds, min_ops, cap, run.calibration)
            stats = client.request({"op": "stats"})["result"]
        run.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    run.failed = checker.failed
    run.wrong = checker.wrong(engine)
    run.topk_sources = [source for op_name, _, _, source in record if op_name == "topk"]
    if args.trace:
        run.layers = serve_layers(args, data, frequent, engine, record, tracer, stats, run.calibration)
        run.layers["trace.overhead_ms"] = 1e3 * (median(traced) - median(untraced))
        run.spans = tracer.spans
    return run


def serve_layers(args, data, frequent, engine, record, tracer, stats, calibration) -> dict:
    from repro.core import position
    from repro.core.conditional import mine_conditional_block
    from repro.core.plt import PLT
    from repro.data.io import read_dat
    from repro.perf.counters import collecting

    layers: dict[str, float] = {}
    parse, build = [], []
    for _ in range(3):
        with tracer.span("data.io.read_dat") as sp:
            db = read_dat(data)
        parse.append(sp["end"] - sp["start"])
        with tracer.span("core.plt.PLT.from_transactions") as sp:
            plt = PLT.from_transactions(db, engine.index.min_support)
        build.append(sp["end"] - sp["start"])
    layers["data.io.parse_ms"] = 1e3 * median(parse)
    layers["core.plt.build_ms"] = 1e3 * median(build)
    layers["core.plt.vectors"] = plt.n_vectors()

    requests_spans = [s for s in tracer.spans if s["name"] == "serve.client.request"]
    handled = {s["parent"]: s["end"] - s["start"] for s in tracer.spans if s["name"] == "serve.engine.handle"}
    wire = [s["end"] - s["start"] - handled[s["id"]] for s in requests_spans]
    total = sum(s["end"] - s["start"] for s in requests_spans)
    layers["serve.wire_ms"] = 1e3 * median(wire)
    layers["serve.wire_share"] = sum(wire) / total
    layers["serve.protocol.request_bytes"] = median([s["request_bytes"] for s in requests_spans])
    layers["serve.protocol.response_bytes"] = median([s["response_bytes"] for s in requests_spans])
    for op_name in ("frequency", "topk"):
        layers[f"serve.engine.{op_name}_ms"] = 1e3 * median(
            [elapsed for name, _, elapsed, _ in record if name == op_name]
        )
    cache = stats["cache"]
    layers["serve.cache.hit_ratio"] = cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0
    layers["serve.cache.lookups"] = cache["lookups"]
    layers["serve.cache.evictions"] = cache["evictions"]
    layers["serve.admission.shed"] = stats["admission"]["rejected"]

    # the layers under the engine, called in-process on the same requests
    index = engine.index
    s = index.min_support
    replayed = inputs.serve_requests(frequent, seed=args.seed)
    support_us, block_s, work_items, itemsets = [], [], [], []

    def replay(i: int) -> float:
        request = next(replayed)
        start = time.perf_counter()
        if request["op"] == "frequency":
            ranks = index.rank_table.encode_itemset(request["items"])
            with tracer.span("compress.index.ItemIndex.support") as sp:
                index.postings.support(ranks)
            support_us.append(1e6 * (sp["end"] - sp["start"]))
            return time.perf_counter() - start
        rank = index.rank_table.rank(request["item"])
        with tracer.span("serve.replay.topk"):
            with tracer.span("compress.index.ItemIndex.paths_containing"):
                prefixes: Counter = Counter()
                for path, freq in index.postings.paths_containing(rank):
                    if len(path) > 1:
                        prefixes[position.encode(tuple(r for r in path if r != rank))] += freq
            emitted = []
            with tracer.span("core.conditional.mine_conditional_block") as sp, collecting() as counts:
                mine_conditional_block(prefixes, rank, s, lambda its, sup: emitted.append(its), None)
        block_s.append(sp["end"] - sp["start"])
        work_items.append(counts["cond_work_items_merged"])
        itemsets.append(len(emitted))
        return time.perf_counter() - start

    timed_loop(replay, args.seconds / 3, 11, args.seconds, calibration)
    layers["compress.index.support_us"] = median(support_us)
    layers["core.conditional.kernel_ms"] = 1e3 * median(block_s)
    layers["core.conditional.work_items"] = median(work_items)
    layers["core.conditional.itemsets_per_work_item"] = (
        sum(itemsets) / sum(work_items) if sum(work_items) else 0.0
    )
    return layers


# ---------------------------------------------------------------------------
# stream-ingest
# ---------------------------------------------------------------------------
def stream_workload(args, size: dict, work: Path) -> Run:
    import random

    cfg = size["sparse"]
    transactions = inputs.quest(cfg["n"], cfg["items"], seed=args.seed)
    data = work / "input.dat"
    inputs.write_dat(transactions, data)
    supports = inputs.item_supports(transactions)
    tracked = sorted(sorted(supports, key=lambda i: (-supports[i], i))[:64])
    rng = random.Random(args.seed)
    probes = [[i] for i in rng.sample(tracked, 4)]
    probes += [sorted(rng.sample(tracked, 2)) for _ in range(4)]
    run = Run("tx/s")
    run.work_per_op = size["chunk"]
    run.notes.append(
        f"StreamSummary eps=0.005 delta=0.01 capacity=256, {len(transactions)}-transaction "
        f"Quest stream replayed in chunks of {size['chunk']}, top_k(10) and {len(probes)} estimates per chunk"
    )
    spec = {
        "kind": "stream",
        "input": str(data),
        "chunk": size["chunk"],
        "probes": probes,
        "tracked": tracked,
        "epsilon": 0.005,
        "delta": 0.01,
        "capacity": 256,
        "seconds": args.seconds,
        "min_ops": size["min_ops"]["stream"],
        "max_seconds": 3 * args.seconds,
        "plant": args.plant_wrong,
    }
    if args.trace:
        out = run_worker({**spec, "mode": "trace"}, work)
    else:
        measure_setups(run, size["setups"], lambda: run_worker({**spec, "mode": "setup"}, work)["setup_s"])
        out = run_worker({**spec, "mode": "run"}, work)
    run.samples = out["samples"]
    run.factors = out["factors"]
    run.calibration = out["calibration"]
    run.peak_rss_mb = out["peak_rss_mb"]
    run.wrong = out.get("wrong", 0)
    run.layers = out.get("layers", {})
    run.spans = out.get("spans", [])
    return run


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
TIME_UNITS = ("s", "ms", "us")


def end_to_end(run: Run, scaled: bool) -> dict[str, float]:
    """Reference-host values when ``scaled``, as measured otherwise."""
    sample_factors = run.factors if scaled else [1.0] * len(run.samples)
    setup_factors = run.setup_factors if scaled else [1.0] * len(run.setups)
    samples = [s * f for s, f in zip(run.samples, sample_factors)]
    setups = [s * f for s, f in zip(run.setups, setup_factors)]
    value, _, _ = tail(samples)
    return {
        "setup_s": median(setups),
        "latency_ms": 1e3 * median(samples),
        "tail_ms": 1e3 * value,
        "throughput": run.work_per_op * len(samples) / sum(samples),
        "peak_rss_mb": run.peak_rss_mb,
    }


def report(args, run: Run) -> dict:
    attempted = len(run.samples)
    failed = run.failed + run.wrong
    factor = median(run.factors)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in run.notes:
        print(f"# {note}")
    print(
        f"# host speed: calibration slice median {1e3 * median(run.calibration):.3f} ms over "
        f"{len(run.calibration)} slices against {1e3 * CALIBRATION_REFERENCE_S:.3f} ms on the "
        f"reference host; reported times are measured times x {factor:.4f} (median factor)"
    )
    if args.trace:
        measured = {name: float(run.layers.get(name, 0.0)) for name in PER_LAYER}
        measured["cli.import_s"] = import_seconds()
        metrics = {
            name: value * factor if PER_LAYER[name] in TIME_UNITS else value
            for name, value in measured.items()
        }
        print(f"{'layer (span), as measured':48} {'calls':>7} {'self ms':>11} {'ms/call':>9}")
        for name, (seconds, calls) in sorted(self_times(run.spans).items(), key=lambda kv: -kv[1][0]):
            print(f"{name:48} {calls:7d} {1e3 * seconds:11.2f} {1e3 * seconds / calls:9.4f}")
        print(
            f"tracing overhead: {measured['trace.overhead_ms']:.4f} ms per operation as measured "
            "(traced minus untraced median)"
        )
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": run.spans}))
        print(f"spans written to {out.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        metrics = end_to_end(run, scaled=True)
        measured = end_to_end(run, scaled=False)
        _, percentile, beyond = tail(run.samples)
        units = END_TO_END
        detail = {
            "setup_s": f"median of {len(run.setups)} set-ups",
            "latency_ms": f"median of {attempted} operations",
            "tail_ms": f"p{percentile:.2f}, {beyond} of {attempted} samples beyond it",
            "throughput": run.throughput_unit,
            "peak_rss_mb": "peak RSS of the process doing the work",
        }
        print(f"{'metric':12} {'reported':>14} {'as measured':>14} {'unit':5}")
        for name, value in metrics.items():
            print(f"{name:12} {value:14.4f} {measured[name]:14.4f} {units[name]:5} {detail[name]}")
    print(f"{'error_rate':12} {failed / attempted:14.4f} {'':14} {'':5} {failed} failed or wrong of {attempted} attempted")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


RUNNERS = {
    "mine-sparse": mine_workload,
    "mine-dense": mine_workload,
    "serve-mix": serve_workload,
    "stream-ingest": stream_workload,
}
WORKLOADS = tuple(RUNNERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny: self-tests only")
    parser.add_argument(
        "--plant-wrong", type=int, default=None, metavar="I",
        help="self-tests only: corrupt the answer of timed operation I",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for this process, its workers and the serve daemon, so the
    # calibration slices run on the core the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = RUNNERS[args.workload](args, SIZES[args.size], work)
        result = report(args, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
