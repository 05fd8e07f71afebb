"""Pattern serving: a long-lived daemon answering itemset queries.

Build (or load) a compressed PLT once, then answer frequency checks,
per-item conditional top-k mining, and rule/recommendation lookups over
a framed JSON socket protocol — each query under its own resource
budget, with memoization and in-flight coalescing.

Layers, bottom up:

* :mod:`repro.serve.cache` — bounded LRU + singleflight coalescing;
* :mod:`repro.serve.admission` — per-query governors, budget clamping,
  bounded concurrency;
* :mod:`repro.serve.engine` — the transport-free query engine
  (:class:`ServingIndex` + :class:`PatternEngine`);
* :mod:`repro.serve.protocol` — length-prefixed CRC'd JSON framing;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the TCP
  daemon and its blocking client;
* :mod:`repro.serve.snapshot` — two-generation warm-restart snapshots
  of the serving state (index or sketch) with digests;
* :mod:`repro.serve.supervisor` — the crash-only parent process:
  health probes, hang detection, backed-off warm restarts behind a
  crash-loop circuit breaker;
* :mod:`repro.serve.resilient` — the failover client (reconnect,
  idempotent retry, per-request deadlines);
* :mod:`repro.serve.faults` / :mod:`repro.serve.chaos` — the seeded
  serve-tier fault plan and the differential chaos harness around it.

Start one from the command line with ``python -m repro serve`` (add
``--supervise`` for the crash-recoverable runtime), and exercise the
whole loop with ``python -m repro chaos --serve``.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "AdmissionController": "admission",
        "budget_from_request": "admission",
        "budget_signature": "admission",
        "CacheStats": "cache",
        "ServingCache": "cache",
        "ServeClient": "client",
        "PatternEngine": "engine",
        "ServingIndex": "engine",
        "serialize_rule": "engine",
        "MAX_FRAME": "protocol",
        "encode_message": "protocol",
        "decode_message": "protocol",
        "PatternServer": "server",
        "SketchEngine": "sketch",
        "ServeFaultPlan": "faults",
        "WorkerFaultInjector": "faults",
        "ResilientClient": "resilient",
        "Supervisor": "supervisor",
        "reserve_port": "supervisor",
        "worker_command": "supervisor",
        "load_snapshot": "snapshot",
        "save_snapshot": "snapshot",
    },
)

__all__ = [
    "AdmissionController",
    "budget_from_request",
    "budget_signature",
    "CacheStats",
    "ServingCache",
    "ServeClient",
    "PatternEngine",
    "ServingIndex",
    "serialize_rule",
    "MAX_FRAME",
    "encode_message",
    "decode_message",
    "PatternServer",
    "SketchEngine",
    "ServeFaultPlan",
    "WorkerFaultInjector",
    "ResilientClient",
    "Supervisor",
    "reserve_port",
    "worker_command",
    "load_snapshot",
    "save_snapshot",
]
