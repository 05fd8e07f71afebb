"""Crash-only supervision for the serving daemon.

A :class:`Supervisor` owns one worker process — ``python -m repro serve
...`` — and keeps it answering:

* **one stable address**: the supervisor reserves a port once and hands
  it to every worker incarnation (``--port N``), so clients never chase
  a moving target across restarts;
* **liveness and readiness probes**: a monitor thread polls the
  worker's ``health`` op with a fresh, deadline-bounded connection each
  time.  A dead process is caught by ``poll()``; a *wedged* one — alive
  but answering nothing — is caught when :attr:`probe_misses`
  consecutive probes blow their deadline, and is SIGKILLed;
* **warm restarts**: each incarnation is launched with the same
  snapshot directory, so it rehydrates its :class:`ServingIndex` or
  sketch from the two-generation
  :class:`~repro.robustness.checkpoint.CheckpointStore`
  (:mod:`repro.serve.snapshot`) instead of rebuilding from the dataset.
  The worker's READY line reports ``incarnation``/``restored``/
  ``digest``; the chaos suite pins that a restart with a surviving
  generation never rebuilds cold;
* **a crash-loop circuit breaker**: restarts back off under a seeded
  :class:`~repro.robustness.retry.RetryPolicy`; after
  :attr:`max_restarts` consecutive restarts *without one healthy
  probe*, the breaker trips (:class:`~repro.errors.ServeRestartBudgetError`)
  instead of burning CPU relaunching a worker that dies on arrival.
  One healthy probe resets the count — crashes spread out over a long
  serving life never trip it.

The supervisor is also the chaos conductor: given a
:class:`~repro.serve.faults.ServeFaultPlan` it exports the plan to each
worker through ``REPRO_SERVE_FAULTS`` (arming the worker-side
kill/hang/torn-snapshot schedule) and applies the plan's
``corrupt_generations`` faults itself — flipping a byte in the newest
on-disk snapshot generation before a scheduled restart, forcing the
rehydration path through the CRC fallback.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.errors import CheckpointError, ServeError, ServeRestartBudgetError
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.retry import RetryPolicy
from repro.serve.client import ServeClient
from repro.serve.faults import FAULTS_ENV, ServeFaultPlan
from repro.serve.snapshot import SNAPSHOT_KEY, SNAPSHOT_NODE

__all__ = ["Supervisor", "Incarnation", "reserve_port", "worker_command"]

#: Default restart backoff: fast first retry, bounded, deterministic.
DEFAULT_RESTART_RETRY = RetryPolicy(
    max_retries=10, base_delay=0.1, multiplier=1.6, max_delay=2.0, jitter=0.2
)

#: Lines of worker output retained per incarnation (diagnostics).
_MAX_LINES = 200


def reserve_port(host: str = "127.0.0.1") -> int:
    """Pick a currently-free TCP port on ``host`` and release it.

    Every worker incarnation rebinds it with ``SO_REUSEADDR``; clients
    get one stable address for the whole supervised lifetime.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class Incarnation:
    """One worker process in the supervised lineage."""

    def __init__(self, number: int, proc: subprocess.Popen, pump):
        self.number = number
        self.proc = proc
        self.pid = proc.pid
        self.pump = threading.Thread(  # runs pump(self) over proc.stdout
            target=pump, args=(self,), name=f"plt-serve-pump-{number}", daemon=True
        )
        self.ready_event = threading.Event()
        self.ready_fields: dict[str, str] = {}
        self.lines: list[str] = []
        self.healthy = False  # at least one successful probe answered
        self.exit_code: int | None = None
        self.outcome: str | None = None  # crashed | hung | stopped | never_ready

    @property
    def restored(self) -> bool:
        return self.ready_fields.get("restored") == "1"

    @property
    def digest(self) -> str | None:
        d = self.ready_fields.get("digest")
        return None if d in (None, "-") else d

    def summary(self) -> dict:
        return {
            "incarnation": self.number,
            "pid": self.pid,
            "ready": self.ready_event.is_set(),
            "restored": self.restored,
            "digest": self.digest,
            "healthy": self.healthy,
            "exit_code": self.exit_code,
            "outcome": self.outcome,
        }


class Supervisor:
    """Run, probe, and restart one serving worker; usable as a context manager.

    ``worker_cmd`` is the full worker command line *without* ``--port``
    and ``--incarnation`` — the supervisor appends both.  It must point
    at a worker that prints the READY startup line (``python -m repro
    serve ...`` does).
    """

    def __init__(
        self,
        worker_cmd: list[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_dir: str | None = None,
        probe_interval: float = 0.5,
        probe_deadline: float = 2.0,
        probe_misses: int = 2,
        startup_deadline: float = 30.0,
        retry: RetryPolicy = DEFAULT_RESTART_RETRY,
        max_restarts: int = 5,
        fault_plan: ServeFaultPlan | None = None,
        echo: bool = False,
    ):
        if probe_interval <= 0 or probe_deadline <= 0 or startup_deadline <= 0:
            raise ServeError("probe/startup intervals must be positive")
        if probe_misses < 1:
            raise ServeError("probe_misses must be >= 1")
        if max_restarts < 0:
            raise ServeError("max_restarts must be >= 0")
        self.worker_cmd = list(worker_cmd)
        self.host = host
        self.port = port or reserve_port(host)
        self.snapshot_dir = snapshot_dir
        self.probe_interval = probe_interval
        self.probe_deadline = probe_deadline
        self.probe_misses = probe_misses
        self.startup_deadline = startup_deadline
        self.retry = retry
        self.max_restarts = max_restarts
        self.fault_plan = fault_plan
        self.echo = echo

        self.incarnations: list[Incarnation] = []
        self.restarts = 0
        self.probe_successes = 0
        self.probe_failures = 0
        self.hang_kills = 0
        self.generations_corrupted = 0
        self.tripped = False
        self.events: list[str] = []

        self._stopping = threading.Event()
        self._first_ready = threading.Event()
        self._monitor: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        """Launch the first incarnation; returns once it is READY.

        Raises :class:`~repro.errors.ServeRestartBudgetError` if the
        breaker trips before any incarnation ever becomes ready.
        """
        self._monitor = threading.Thread(
            target=self._run, name="plt-serve-supervisor", daemon=True
        )
        self._monitor.start()
        self._first_ready.wait()
        if self.tripped and not any(i.ready_event.is_set() for i in self.incarnations):
            raise ServeRestartBudgetError(
                f"worker never became ready within {self.max_restarts} restarts: "
                f"{self.last_lines()}"
            )
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Drain: SIGTERM the worker, escalate to SIGKILL, join the monitor."""
        self._stopping.set()
        inc = self.current()
        if inc is not None and inc.proc.poll() is None:
            try:
                inc.proc.terminate()
            except OSError:
                pass
            try:
                inc.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                inc.proc.kill()
            self._reap(inc)
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def current(self) -> Incarnation | None:
        with self._lock:
            return self.incarnations[-1] if self.incarnations else None

    def ensure_healthy(self) -> None:
        """Raise :class:`ServeRestartBudgetError` once the breaker tripped."""
        if self.tripped:
            raise ServeRestartBudgetError(
                f"crash-loop circuit breaker tripped after {self.restarts} restarts "
                f"({self.max_restarts} consecutive without a healthy probe)"
            )

    def signal_snapshot(self) -> bool:
        """Forward SIGHUP to the worker: write a snapshot generation now."""
        inc = self.current()
        if inc is None or inc.proc.poll() is not None:
            return False
        try:
            os.kill(inc.pid, signal.SIGHUP)
        except OSError:
            return False
        return True

    def last_lines(self, n: int = 5) -> str:
        inc = self.current()
        if inc is None:
            return "<no worker output>"
        return " | ".join(inc.lines[-n:]) or "<no worker output>"

    def stats(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "incarnations": [i.summary() for i in self.incarnations],
            "restarts": self.restarts,
            "probe_successes": self.probe_successes,
            "probe_failures": self.probe_failures,
            "hang_kills": self.hang_kills,
            "generations_corrupted": self.generations_corrupted,
            "tripped": self.tripped,
            "events": list(self.events),
        }

    def _event(self, message: str) -> None:
        self.events.append(message)
        if self.echo:
            print(f"[supervisor] {message}", flush=True)

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        consecutive = 0
        try:
            while not self._stopping.is_set():
                restart_no = len(self.incarnations)  # 0 on first launch
                if restart_no > 0:
                    self.restarts += 1
                    self._corrupt_generation_if_scheduled(self.restarts)
                inc = self._launch()
                if self._await_ready(inc):
                    self._first_ready.set()
                    outcome = self._watch(inc)
                    if outcome == "stopped":
                        inc.outcome = "stopped"
                        return
                    inc.outcome = outcome
                    if inc.healthy:
                        consecutive = 0
                else:
                    inc.outcome = "never_ready"
                consecutive += 1
                self._event(
                    f"incarnation {inc.number} {inc.outcome} "
                    f"(exit={inc.exit_code}, consecutive={consecutive})"
                )
                if consecutive > self.max_restarts:
                    self.tripped = True
                    self._event(
                        f"circuit breaker tripped: {consecutive} consecutive "
                        f"restarts without a healthy probe"
                    )
                    return
                delay = self.retry.delay(consecutive, key="restart")
                if self._stopping.wait(delay):
                    return
        finally:
            self._first_ready.set()  # never leave start() blocked

    def _launch(self) -> Incarnation:
        number = len(self.incarnations) + 1
        argv = self.worker_cmd + [
            "--port",
            str(self.port),
            "--incarnation",
            str(number),
        ]
        env = dict(os.environ)
        if self.fault_plan is not None:
            env[FAULTS_ENV] = self.fault_plan.to_json()
        else:
            env.pop(FAULTS_ENV, None)
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        inc = Incarnation(number, proc, self._pump)
        with self._lock:
            self.incarnations.append(inc)
        inc.pump.start()
        self._event(f"incarnation {number} launched (pid {proc.pid})")
        return inc

    def _pump(self, inc: Incarnation) -> None:
        """Drain one incarnation's stdout, closed at EOF; parse its READY line."""
        with inc.proc.stdout:
            for line in inc.proc.stdout:
                line = line.rstrip("\n")
                if len(inc.lines) < _MAX_LINES:
                    inc.lines.append(line)
                if self.echo:
                    print(f"[worker {inc.number}] {line}", flush=True)
                if line.startswith("READY "):
                    fields = {}
                    for token in line.split()[1:]:
                        key, _, value = token.partition("=")
                        fields[key] = value
                    inc.ready_fields = fields
                    inc.ready_event.set()

    def _reap(self, inc: Incarnation) -> None:
        """Collect an exited or killed incarnation and its pump."""
        inc.exit_code = inc.proc.wait()
        inc.pump.join(1.0)  # a child of the worker may hold the pipe open

    def _await_ready(self, inc: Incarnation) -> bool:
        """Wait for READY; a worker that exits or stalls instead fails."""
        deadline = time.monotonic() + self.startup_deadline
        while time.monotonic() < deadline and not self._stopping.is_set():
            if inc.ready_event.wait(0.05):
                return True
            if inc.proc.poll() is not None:
                self._reap(inc)
                return False
        if inc.proc.poll() is None and not inc.ready_event.is_set():
            # startup wedged (not crashed): put it down and restart
            inc.proc.kill()
            self._reap(inc)
        return inc.ready_event.is_set()

    def _watch(self, inc: Incarnation) -> str:
        """Probe one ready incarnation until it stops, crashes, or wedges."""
        misses = 0
        while True:
            if self._stopping.wait(self.probe_interval):
                return "stopped"
            if inc.proc.poll() is not None:
                self._reap(inc)
                return "crashed"
            if self._probe():
                inc.healthy = True
                misses = 0
            else:
                misses += 1
                if misses >= self.probe_misses:
                    # live but wedged: deadline-bounded probes all failed
                    self.hang_kills += 1
                    self._event(
                        f"incarnation {inc.number} failed {misses} probes "
                        f"(deadline {self.probe_deadline}s) — killing"
                    )
                    inc.proc.kill()
                    self._reap(inc)
                    return "hung"

    def _probe(self) -> bool:
        """One health round-trip on a fresh, deadline-bounded connection.

        A fresh connection per probe is deliberate: a hung worker wedges
        its handler threads, and a reused probe connection would block
        on the previous unanswered ping instead of timing out cleanly.
        """
        try:
            client = ServeClient(self.host, self.port, timeout=self.probe_deadline)
        except OSError:
            self.probe_failures += 1
            return False
        try:
            result = client.health()
            ok = bool(result.get("live")) and bool(result.get("ready"))
        except ServeError:
            ok = False
        finally:
            client.close()
        if ok:
            self.probe_successes += 1
        else:
            self.probe_failures += 1
        return ok

    def _corrupt_generation_if_scheduled(self, restart: int) -> None:
        if (
            self.fault_plan is None
            or self.snapshot_dir is None
            or not self.fault_plan.corrupts_restart(restart)
        ):
            return
        store = CheckpointStore(self.snapshot_dir)
        try:
            store.inject_corruption(SNAPSHOT_NODE, SNAPSHOT_KEY, generation=0)
        except (CheckpointError, IndexError):
            return  # nothing snapshotted yet: the fault has nothing to damage
        self.generations_corrupted += 1
        self._event(f"corrupted newest snapshot generation before restart {restart}")


def worker_command(serve_args: list[str]) -> list[str]:
    """The supervised worker command: this interpreter, ``-m repro serve``."""
    return [sys.executable, "-m", "repro", "serve", *serve_args]
