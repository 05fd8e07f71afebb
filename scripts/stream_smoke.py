#!/usr/bin/env python
"""CI smoke test for the streaming sketch tier.

Five scripted stages, every wait hard-bounded:

1. **Bounded ingest** — pipe a generated zipf feed into
   ``python -m repro stream`` over stdin with periodic snapshots, then
   check the child's peak RSS stayed under a hard cap and the final
   sketch under its byte budget.
2. **Snapshot/restore** — restart from the snapshot with an empty feed
   and require a byte-identical state digest.
3. **Windowed session** — the same feed through ``--window --buckets
   --exact-tail --min-support --snapshot``; the exact-tail itemsets must
   equal ``repro mine`` over the last ``--exact-tail`` transactions, and
   a ``--restore`` must reproduce the digest and the exact tail.
4. **Sketch daemon differential** — start ``serve --sketch`` and a plain
   ``serve`` on the same fixture and require, per high-support item,
   ``exact <= estimate <= exact + error_bound`` plus labeled envelopes.
5. **Clean SIGTERM shutdown** of both daemons.

Usage: PYTHONPATH=src python scripts/stream_smoke.py
"""

from __future__ import annotations

import json
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTUP_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 10.0
STEP_TIMEOUT = 60.0

#: Peak RSS allowed for one ingest child (bytes).  The sketch itself is
#: ~130 KiB; the cap is dominated by the interpreter baseline, with
#: headroom for allocator noise — but far below what buffering the whole
#: feed would need.
RSS_CAP = 200 * 1024 * 1024

#: The final sketch must fit the same budget the bench gate enforces.
SKETCH_BUDGET = 256 * 1024

N_TRANSACTIONS = 20_000

#: Windowed session shape: window, generations, exact tail, support.
WINDOW, BUCKETS, EXACT_TAIL, TAIL_SUPPORT = 6_000, 3, 500, 50


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_stream(args: list[str], feed: bytes) -> dict:
    """Run one ``repro stream`` child; return its final JSON report."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "stream", "--json", *args],
        input=feed,
        capture_output=True,
        timeout=STEP_TIMEOUT,
    )
    if proc.returncode != 0:
        fail(f"stream exited rc={proc.returncode}: {proc.stderr.decode()!r}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is kilobytes on Linux; the high-water mark only moves if
    # this child out-peaked every earlier one
    peak = max(before, after) * 1024
    if peak > RSS_CAP:
        fail(f"ingest child peaked at {peak} B RSS, cap is {RSS_CAP}")
    try:
        return json.loads(proc.stdout.decode())
    except json.JSONDecodeError:
        fail(f"stream emitted non-JSON: {proc.stdout[:200]!r}")


def mine_exact(path: Path, min_support: int) -> set:
    """``repro mine`` of a file, as a set of ``(items, support)``."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "mine", "--input", str(path),
         "--min-support", str(min_support)],
        capture_output=True,
        text=True,
        timeout=STEP_TIMEOUT,
    )
    if proc.returncode != 0:
        fail(f"mine exited rc={proc.returncode}: {proc.stderr!r}")
    found = set()
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            items, _, support = line.rpartition("}")
            found.add((frozenset(items[1:].split(", ")), int(support)))
    return found


def tail_itemsets(report: dict) -> set:
    return {
        (frozenset(str(i) for i in e["items"]), e["support"])
        for e in report["exact_tail"]
    }


def wait_ready(proc) -> dict:
    info: dict = {}
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            fail(f"daemon exited before READY (rc={proc.poll()})")
        print(line, end="")
        if line.startswith("READY "):
            for field in line.split()[1:]:
                key, _, value = field.partition("=")
                info[key] = value
            return info
    fail(f"no READY line within {STARTUP_TIMEOUT}s")


def spawn_serve(extra: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def shutdown(proc, label: str) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(SHUTDOWN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{label} ignored SIGTERM for {SHUTDOWN_TIMEOUT}s")
    if rc != 0:
        fail(f"{label} exited rc={rc} on SIGTERM")


def main() -> None:
    from repro.data.generators import generate_zipf
    from repro.serve.client import ServeClient

    tmp = Path(tempfile.mkdtemp(prefix="stream_smoke_"))
    snapdir = tmp / "snap"
    db = [sorted(t) for t in generate_zipf(N_TRANSACTIONS, 60, 5.0, seed=11)]
    feed = "".join(" ".join(str(i) for i in t) + "\n" for t in db).encode()
    dat = tmp / "fixture.dat"
    dat.write_bytes(feed)

    # -- stage 1: bounded one-pass ingest over stdin ----------------------
    first = run_stream(
        ["--snapshot", str(snapdir), "--report-every", "5000"], feed
    )
    if first["ingested"] != N_TRANSACTIONS:
        fail(f"ingested {first['ingested']} of {N_TRANSACTIONS}")
    if first["memory_bytes"] > SKETCH_BUDGET:
        fail(f"sketch {first['memory_bytes']} B over budget {SKETCH_BUDGET}")
    if first["snapshots"] < 2:  # cadence snapshots + the final one
        fail(f"expected periodic snapshots, got {first['snapshots']}")
    print(
        f"ingest OK ({first['ingested']} tx, {first['memory_bytes']} sketch "
        f"bytes, {first['snapshots']} snapshots)"
    )

    # -- stage 2: restore must be byte-identical --------------------------
    second = run_stream(["--restore", str(snapdir)], b"")
    if second["ingested"] != 0:
        fail(f"restore run ingested {second['ingested']} transactions")
    if second["digest"] != first["digest"]:
        fail(f"digest drifted: {first['digest']} -> {second['digest']}")
    print(f"snapshot/restore OK (digest {first['digest'][:12]}...)")

    # -- stage 3: windowed session with an exact tail ---------------------
    window_snap = tmp / "window-snap"
    windowed = run_stream(
        ["--window", str(WINDOW), "--buckets", str(BUCKETS),
         "--exact-tail", str(EXACT_TAIL), "--min-support", str(TAIL_SUPPORT),
         "--snapshot", str(window_snap)],
        feed,
    )
    if not windowed["windowed"] or windowed["n_seen"] != N_TRANSACTIONS:
        fail(f"windowed run did not cover the feed: {windowed}")
    tail_dat = tmp / "tail.dat"
    tail_dat.write_bytes(b"".join(feed.splitlines(keepends=True)[-EXACT_TAIL:]))
    expected = mine_exact(tail_dat, TAIL_SUPPORT)
    if not expected or tail_itemsets(windowed) != expected:
        fail(
            f"exact tail ({len(windowed['exact_tail'])} itemsets) differs from "
            f"repro mine over the last {EXACT_TAIL} transactions ({len(expected)})"
        )
    resumed = run_stream(
        ["--restore", str(window_snap), "--min-support", str(TAIL_SUPPORT)], b""
    )
    if resumed["digest"] != windowed["digest"]:
        fail(f"window digest drifted: {windowed['digest']} -> {resumed['digest']}")
    if tail_itemsets(resumed) != expected:
        fail("restored window reports a different exact tail")
    print(
        f"windowed session OK ({windowed['n_transactions']} covered, "
        f"{len(expected)} exact-tail itemsets, digest {windowed['digest'][:12]}...)"
    )

    # -- stage 4: sketch daemon vs exact daemon ---------------------------
    sketch_proc = spawn_serve(["--db", str(dat), "--sketch", "--min-support", "2"])
    exact_proc = None
    try:
        sketch_info = wait_ready(sketch_proc)
        if sketch_info.get("engine") != "sketch":
            fail(f"sketch READY line lacks engine=sketch: {sketch_info}")
        exact_proc = spawn_serve(["--db", str(dat), "--min-support", "2"])
        exact_info = wait_ready(exact_proc)

        with ServeClient(port=int(sketch_info["port"])) as sketch_client, \
                ServeClient(port=int(exact_info["port"])) as exact_client:
            threshold = N_TRANSACTIONS // 10
            checked = 0
            for item in range(10):  # zipf head: the high-support items
                env = sketch_client.sketch_frequency(
                    [item], min_support=threshold
                )
                if not env["ok"]:
                    fail(f"sketch_frequency errored: {env}")
                if not env.get("approximate") or env.get("source") != "sketch":
                    fail(f"sketch envelope not labeled: {env}")
                exact_env = exact_client.frequency([item])
                if not exact_env["ok"]:
                    fail(f"exact frequency errored: {exact_env}")
                true = exact_env["result"]["support"]
                est = env["result"]["estimate"]
                if not true <= est <= true + env["error_bound"]:
                    fail(
                        f"item {item}: estimate {est} outside "
                        f"[{true}, {true} + {env['error_bound']}]"
                    )
                checked += 1
            # the sketch daemon must refuse exact ops with a pointer
            env = sketch_client.request({"op": "topk", "item": 0})
            if env["ok"] or "exact engine" not in env["error"]:
                fail(f"exact op not rejected by sketch daemon: {env}")
        print(f"sketch-vs-exact differential OK ({checked} items)")

        # -- stage 5: clean shutdown --------------------------------------
        shutdown(exact_proc, "exact daemon")
        exact_proc = None
        shutdown(sketch_proc, "sketch daemon")
        print("shutdown OK")
        print("stream smoke: all checks passed")
    finally:
        for proc in (sketch_proc, exact_proc):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    main()
