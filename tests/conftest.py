"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.plt import PLT
from repro.data.datasets import PAPER_EXAMPLE, PAPER_EXAMPLE_MIN_SUPPORT, paper_example
from repro.data.transaction_db import TransactionDatabase

#: Every full miner the facade exposes (serial ones; parallel tested apart).
ALL_METHODS = (
    "plt",
    "plt-topdown",
    "apriori",
    "aprioritid",
    "apriori-cd",
    "partition",
    "dic",
    "fpgrowth",
    "eclat",
    "declat",
    "hmine",
)


@pytest.fixture
def paper_db() -> TransactionDatabase:
    """Table 1 of the paper."""
    return paper_example()


@pytest.fixture
def paper_min_support() -> int:
    return PAPER_EXAMPLE_MIN_SUPPORT


@pytest.fixture
def paper_plt(paper_db, paper_min_support) -> PLT:
    """The PLT of the worked example (Figure 3)."""
    return PLT.from_transactions(paper_db, paper_min_support)


def random_database(
    seed: int,
    *,
    max_items: int = 10,
    max_transactions: int = 40,
    min_transactions: int = 1,
) -> list[frozenset]:
    """Deterministic random database for cross-checks."""
    rng = random.Random(seed)
    n_items = rng.randint(2, max_items)
    n_tx = rng.randint(min_transactions, max_transactions)
    return [
        frozenset(rng.sample(range(n_items), rng.randint(1, n_items)))
        for _ in range(n_tx)
    ]


@pytest.fixture
def small_random_db() -> list[frozenset]:
    return random_database(12345)


# ---------------------------------------------------------------------------
# serving-daemon process fixture
# ---------------------------------------------------------------------------
_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Hard ceilings: a daemon that cannot announce READY / exit within these
#: is a bug, and the fixture fails the test instead of hanging the suite.
SERVE_STARTUP_TIMEOUT = 30.0
SERVE_SHUTDOWN_TIMEOUT = 10.0


def _shm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("plt_shm_")}


def daemon_segments(segments, pids) -> list:
    """The ``plt_shm_<pid>_...`` segments created by one of ``pids``.

    Segment names carry their creator's pid (``core/flat.py``'s
    ``_segment_name``), so a segment another process on the host makes
    meanwhile is not blamed on a daemon.
    """
    pids = {str(pid) for pid in pids}
    return sorted(f for f in segments if f.split("_")[2] in pids)


def _close_output(handle) -> None:
    """Close an exited daemon's stdout pipe once its reader has drained it
    (a pipe left open is an unclosed-file ``ResourceWarning``)."""
    handle.reader.join(SERVE_SHUTDOWN_TIMEOUT)
    if not handle.reader.is_alive():
        handle.proc.stdout.close()


@pytest.fixture
def serve_daemon(tmp_path):
    """Factory launching real ``python -m repro serve`` daemons.

    Yields ``launch(db, min_support, ...) -> handle`` where the handle has
    ``.port``, ``.proc``, ``.info`` (the parsed READY line) and
    ``.output()``.  Startup blocks (with a hard timeout) until the daemon
    prints its READY line; teardown SIGTERMs every launched daemon and
    *asserts* that each exits within the shutdown timeout (no leaked
    processes) and that no ``/dev/shm`` segment a daemon created survived.
    """
    launched: list[SimpleNamespace] = []
    shm_before = _shm_segments()

    def launch(
        db=None,
        min_support=2,
        *,
        store=None,
        extra_args=(),
        startup_timeout=SERVE_STARTUP_TIMEOUT,
    ):
        if (db is None) == (store is None):
            raise ValueError("launch() needs exactly one of db= or store=")
        if store is not None:
            cmd = [sys.executable, "-m", "repro", "serve", "--store", str(store)]
        else:
            from repro.data.io import write_dat

            dat = tmp_path / f"serve_{len(launched)}.dat"
            write_dat(db, dat)
            cmd = [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--db",
                str(dat),
                "--min-support",
                str(min_support),
            ]
        cmd += list(extra_args)
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines: list[str] = []
        info: dict = {}
        seen_ready = threading.Event()

        def pump():
            for line in proc.stdout:
                lines.append(line)
                if line.startswith("READY "):
                    for field in line.split()[1:]:
                        key, _, value = field.partition("=")
                        info[key] = value
                    seen_ready.set()
            seen_ready.set()  # EOF: unblock the waiter; failure shows below

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        handle = SimpleNamespace(
            proc=proc,
            reader=reader,
            info=info,
            port=None,
            output=lambda: "".join(lines),
        )
        launched.append(handle)
        deadline = time.monotonic() + startup_timeout
        while time.monotonic() < deadline:
            if seen_ready.wait(0.2) and ("port" in info or proc.poll() is not None):
                break
        if "port" not in info:
            proc.kill()
            proc.wait()
            _close_output(handle)
            raise AssertionError(
                f"daemon failed to announce READY within {startup_timeout}s; "
                f"output:\n{''.join(lines)}"
            )
        handle.port = int(info["port"])
        return handle

    yield launch

    leaked = []
    for handle in launched:
        proc = handle.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(SERVE_SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                leaked.append(handle)
        _close_output(handle)
    assert not leaked, (
        f"{len(leaked)} daemon(s) ignored SIGTERM for {SERVE_SHUTDOWN_TIMEOUT}s "
        f"and had to be killed; output of first:\n{leaked[0].output()}"
    )
    shm_leaked = daemon_segments(
        _shm_segments() - shm_before, [handle.proc.pid for handle in launched]
    )
    assert not shm_leaked, f"daemon leaked /dev/shm segments: {shm_leaked}"
