"""Kernel work counters: what each mining phase did, read by perfbench's
per-layer metrics and by the IPC accounting of the parallel executors.

Dependency-free, so ``repro.core`` can import :mod:`repro.perf.counters`
without cycles.
"""

from repro.perf.counters import COUNTERS, PhaseCounters, collecting

__all__ = ["COUNTERS", "PhaseCounters", "collecting"]
