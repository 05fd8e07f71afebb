"""In-memory spans and the order statistics the benchmark reports.

A span is one call into a layer, recorded by the benchmark around its own
call: name, start, end, parent span and trace (the root span of the
operation it belongs to).  Spans stay in a list until the run ends and
are then written out as JSON.  A layer's self time is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float, attrs: dict) -> dict:
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "trace": self.spans[parent]["trace"] if parent is not None else len(self.spans),
            "start": start,
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, **attrs):
        record = self._open(name, time.perf_counter(), attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def derived(self, name: str, duration: float, parent: dict, **attrs) -> dict:
        """A child of ``parent`` whose duration was reported, not observed.

        The serve daemon reports how long its engine took (``elapsed``)
        but not when it started; the span is centred in its parent, so
        only its duration carries information.
        """
        self._stack.append(parent["id"])
        try:
            mid = (parent["start"] + parent["end"]) / 2
            record = self._open(name, mid - duration / 2, {"derived": True, **attrs})
        finally:
            self._stack.pop()
        record["end"] = record["start"] + duration
        return record

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Total self time in seconds and call count per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        entry = totals[s["name"]]
        entry[0] += s["end"] - s["start"] - child_time[s["id"]]
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Capped at p99: with tens of thousands of samples the extreme order
    statistics measure the host's scheduling hiccups, not the program.
    Returns ``(value, percentile, samples_beyond)``; needs 11 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    beyond = max(10, math.floor(n / 100))
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


#: Seconds one calibration slice takes on the reference host (an idle
#: 2.0 GHz Xeon vCPU); reported times are scaled to that speed.
CALIBRATION_REFERENCE_S = 0.0085
CALIBRATION_EVERY_S = 0.08


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of dict-heavy pure-Python work.

    The program is pure Python over dicts and tuples too, and on a shared
    host both slow down together: over minutes the host's speed drifts by
    up to 70%, while the ratio of a mining operation to this slice stays
    within about 5%.  Scaling by it makes two sets of runs comparable.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        key = i % 5003
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def timed_loop(
    op, seconds: float, min_ops: int, max_seconds: float, calibration: list[float]
) -> tuple[list[float], list[float]]:
    """Call ``op(i)`` until ``seconds`` have passed and ``min_ops`` ran.

    ``op`` times its own operation and returns the seconds it took, so
    that answer checks stay outside the measured interval.  ``max_seconds``
    bounds the run even on a host too slow to reach ``min_ops``.

    A calibration slice runs first, last, and between operations every
    ``CALIBRATION_EVERY_S``; each slice is appended to ``calibration``.
    Returns the measured seconds and, for each, the factor that scales it
    to the reference host, from the mean of the slices on either side.
    """
    samples: list[float] = []
    factors: list[float] = []
    previous = calibration_slice()
    calibration.append(previous)
    start = last = time.perf_counter()

    def close_interval() -> float:
        current = calibration_slice()
        calibration.append(current)
        factor = CALIBRATION_REFERENCE_S / ((previous + current) / 2)
        factors.extend([factor] * (len(samples) - len(factors)))
        return current

    while True:
        now = time.perf_counter()
        elapsed = now - start
        if elapsed >= max_seconds or (elapsed >= seconds and len(samples) >= min_ops):
            close_interval()
            return samples, factors
        if now - last >= CALIBRATION_EVERY_S:
            previous = close_interval()
            last = time.perf_counter()
        samples.append(op(len(samples)))
