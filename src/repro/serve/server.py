"""The pattern-serving daemon: a threaded TCP front on a PatternEngine.

One :class:`PatternServer` owns one listening socket and one
:class:`~repro.serve.engine.PatternEngine`.  The accept loop runs with a
short socket timeout so :meth:`stop` is observed within
:data:`ACCEPT_TICK` seconds; each accepted connection gets its own
handler thread that reads framed requests
(:mod:`repro.serve.protocol`), dispatches them to the engine, and
writes framed response envelopes back.

Fault containment is the design rule: *one bad connection costs exactly
that connection.*  A damaged frame (:class:`~repro.errors.CodecError`),
a hostile length prefix, or an abrupt disconnect mid-message is answered
with a best-effort error envelope and a close of that socket — the
accept loop, every other connection, and the engine's caches are
untouched.  Handler threads are daemonic *and* joined on shutdown with a
bound, so a wedged client cannot hold the process open.

Shutdown is a **drain**, not a door slam: once :meth:`stop` begins, a
request that still arrives on an open connection is answered with a
``shutting_down`` error envelope (so a retrying client knows to go
elsewhere) instead of an abrupt close.  Connections whose handler is
still alive when the stop deadline expires are force-closed and counted
— :meth:`stats` reports them under ``abandoned`` rather than silently
leaking the threads.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import CodecError, ServeProtocolError
from repro.serve.engine import PatternEngine
from repro.serve.protocol import read_message, write_message

__all__ = ["PatternServer", "ACCEPT_TICK"]

#: Accept-loop poll interval: the longest :meth:`PatternServer.stop` can
#: go unobserved.  Also the per-connection idle read timeout multiplier.
ACCEPT_TICK = 0.2

#: Per-connection blocking-read timeout.  A client that opens a socket
#: and sends nothing is shed after this long; mid-message stalls too.
CONN_TIMEOUT = 30.0


class PatternServer:
    """Serve a :class:`~repro.serve.engine.PatternEngine` over TCP.

    ``host``/``port`` as usual (``port=0`` picks a free port — read it
    back from :attr:`port` after :meth:`start`).  The server is
    restart-free: one instance serves until :meth:`stop`.
    """

    def __init__(self, engine: PatternEngine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[tuple[threading.Thread, socket.socket]] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._connections = 0
        self._conn_errors = 0
        self._drain_rejections = 0
        self._abandoned = 0

    # ------------------------------------------------------------------
    def start(self) -> "PatternServer":
        """Bind, listen, and spawn the accept loop; returns self."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(64)
        sock.settimeout(ACCEPT_TICK)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="plt-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> int:
        """Drain and stop: join handler threads, force-close stragglers.

        Sets the drain flag (new requests on live connections are
        answered with ``shutting_down``), waits for the accept loop to
        see it (at most :data:`ACCEPT_TICK`) and closes the listener, so
        the port is free to rebind when this returns.  It then joins
        every handler thread against one shared ``timeout`` deadline.
        Handlers still alive at the deadline — clients sitting silently
        on an open socket — have their sockets shut down (unblocking the
        read) and are counted as *abandoned* in :meth:`stats`.  Returns
        the number abandoned by this call.
        """
        self._stop.set()
        deadline = time.monotonic() + max(timeout, 0.0)
        if self._accept_thread is not None:
            # not bounded by ``timeout``: a listener closed while the loop
            # still polls it stays bound until that poll returns
            self._accept_thread.join()
            self._accept_thread = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        with self._lock:
            handlers = list(self._handlers)
        abandoned = 0
        for thread, conn in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                abandoned += 1
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
        with self._lock:
            self._abandoned += abandoned
        return abandoned

    def __enter__(self) -> "PatternServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us during shutdown
            with self._lock:
                self._connections += 1
                # reap finished handler threads so the list stays bounded
                self._handlers = [h for h in self._handlers if h[0].is_alive()]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"plt-serve-conn-{self._connections}",
                    daemon=True,
                )
                self._handlers.append((thread, conn))
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(CONN_TIMEOUT)
        try:
            while True:
                try:
                    message = read_message(conn)
                except (ServeProtocolError, CodecError) as exc:
                    # the stream is no longer self-delimiting after a bad
                    # frame — answer once, then drop the connection
                    self._note_conn_error()
                    self._try_send_error(conn, exc)
                    return
                if message is None:
                    return  # clean EOF
                seq, request = message
                if self._stop.is_set():
                    # draining: reject loudly instead of closing abruptly,
                    # so a retrying client fails over rather than hangs
                    self._note_drain_rejection()
                    op = request.get("op") if isinstance(request, dict) else None
                    self._try_send(
                        conn,
                        seq,
                        {
                            "ok": False,
                            "error": "server is shutting down",
                            "code": "shutting_down",
                            "op": op,
                        },
                    )
                    return
                envelope = self.engine.handle(request)
                try:
                    write_message(conn, seq, envelope)
                except (OSError, ServeProtocolError):
                    self._note_conn_error()
                    return  # peer gone or response unframeable; drop
        except OSError:
            self._note_conn_error()
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _try_send(self, conn: socket.socket, seq: int, envelope: dict) -> None:
        try:
            write_message(conn, seq, envelope)
        except (OSError, ServeProtocolError):
            pass

    def _try_send_error(self, conn: socket.socket, exc: Exception) -> None:
        code = getattr(exc, "code", "protocol")
        self._try_send(conn, 0, {"ok": False, "error": str(exc), "code": code, "op": None})

    def _note_conn_error(self) -> None:
        with self._lock:
            self._conn_errors += 1

    def _note_drain_rejection(self) -> None:
        with self._lock:
            self._drain_rejections += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "connections": self._connections,
                "connection_errors": self._conn_errors,
                "active_threads": sum(t.is_alive() for t, _ in self._handlers),
                "drain_rejections": self._drain_rejections,
                "abandoned": self._abandoned,
            }
