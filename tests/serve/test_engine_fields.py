"""Request-field validation shared by both serving engines.

A field of the wrong type must cost one ``bad_request`` envelope, never
an exception out of ``handle`` (over the wire that kills the handler
thread and the client's connection).  Booleans are not numbers here:
``true`` is not a count and not a confidence.
"""

import pytest

from repro.serve.engine import PatternEngine, ServingIndex
from repro.serve.sketch import SketchEngine
from repro.stream.summary import StreamSummary
from repro.stream.window import SlidingWindowSketch

DB = [(1, 2, 3), (1, 2), (2, 3), (1, 3), (1, 2, 3), (4,)] * 5


@pytest.fixture(scope="module")
def exact():
    return PatternEngine(ServingIndex.from_transactions(DB, 2))


@pytest.fixture(scope="module", params=["summary", "window"])
def sketch(request):
    if request.param == "summary":
        summary = StreamSummary(seed=3)
    else:
        summary = SlidingWindowSketch(20, buckets=2, seed=3)
    summary.extend(DB)
    return SketchEngine(summary)


EXACT_CASES = [
    ({"op": "topk", "item": 1}, "k", value)
    for value in (0, -1, 1.5, "3", True, [3])
] + [
    ({"op": "rules"}, "limit", value) for value in (0, 2.0, "10", False, {})
] + [
    ({"op": "recommend", "basket": [1]}, "top", value) for value in (0, "5", True, None)
] + [
    (request, "min_confidence", value)
    for request in ({"op": "rules"}, {"op": "recommend", "basket": [1]})
    for value in ("x", [1], True, None, {"v": 1})
] + [
    (request, "min_lift", value)
    for request in ({"op": "rules"}, {"op": "recommend", "basket": [1]})
    for value in ("x", [1], False)
] + [
    ({"op": "frequency", "items": [1]}, "min_support", value) for value in ("x", True, [2])
]

SKETCH_CASES = [
    ({"op": "sketch_topk"}, "k", value) for value in (0, -1, 1.5, "3", True, None)
] + [
    ({"op": "sketch_frequent"}, "min_support", value) for value in ("x", True, [2])
] + [
    ({"op": "sketch_frequency", "items": [1]}, "min_support", value)
    for value in ("x", True, [2])
]


def _ids(cases):
    return [f"{req['op']}-{field}-{value!r}" for req, field, value in cases]


@pytest.mark.parametrize(("request_", "field", "value"), EXACT_CASES, ids=_ids(EXACT_CASES))
def test_exact_engine_rejects_bad_field(exact, request_, field, value):
    env = exact.handle({**request_, field: value})
    assert env["ok"] is False
    assert env["code"] == "bad_request"
    assert field in env["error"]


@pytest.mark.parametrize(("request_", "field", "value"), SKETCH_CASES, ids=_ids(SKETCH_CASES))
def test_sketch_engine_rejects_bad_field(sketch, request_, field, value):
    env = sketch.handle({**request_, field: value})
    assert env["ok"] is False
    assert env["code"] == "bad_request"
    assert field in env["error"]


@pytest.mark.parametrize(
    "request_",
    [
        {"op": "topk", "item": 1, "k": None},
        {"op": "rules", "limit": None, "min_lift": None, "min_confidence": 1},
        {"op": "rules", "min_lift": 1, "min_confidence": 0.25},
        {"op": "recommend", "basket": [1], "top": 2, "min_confidence": 0.5},
        {"op": "frequency", "items": [1], "min_support": 0.1},
    ],
)
def test_exact_engine_accepts_valid_fields(exact, request_):
    assert exact.handle(request_)["ok"] is True


def test_sketch_engine_accepts_valid_fields(sketch):
    assert sketch.handle({"op": "sketch_topk", "k": 2})["ok"] is True
    assert sketch.handle({"op": "sketch_frequent", "min_support": 0.2})["ok"] is True
    env = sketch.handle({"op": "sketch_frequency", "items": [1], "min_support": 3})
    assert env["ok"] is True


def test_both_engines_share_the_envelope(exact, sketch):
    for engine, name in ((exact, "exact"), (sketch, "sketch")):
        health = engine.handle({"op": "health"})
        assert health["ok"] and health["result"]["engine"] == name
        assert engine.handle({"op": "ping"})["result"] == {"pong": True}
        env = engine.handle({"op": "nope"})
        assert env["code"] == "bad_request" and "unknown op" in env["error"]
        assert engine.handle("not a dict")["code"] == "bad_request"
        assert engine.handle({"op": "stats"})["result"]["errors"] >= 2
