"""Unit tests for the tracked benchmark harness (repro.perf.bench)."""

import json

import pytest

from repro.perf.bench import (
    IPC_REDUCTION_FACTOR,
    REGRESSION_TOLERANCE,
    WORKLOADS,
    Workload,
    compare_against_baseline,
    ipc_gate_problems,
    main,
    run_parallel_workload,
    run_workload,
)


class TestWorkloadMatrix:
    def test_names_unique(self):
        names = [w.name for w in WORKLOADS]
        assert len(names) == len(set(names))

    def test_quick_subset_covers_every_group(self):
        groups = {(w.kind, w.dataset) for w in WORKLOADS}
        quick_groups = {(w.kind, w.dataset) for w in WORKLOADS if w.quick}
        assert quick_groups == groups

    def test_all_kinds_present(self):
        kinds = {w.kind for w in WORKLOADS}
        assert kinds == {
            "conditional",
            "topdown",
            "parallel-cond",
            "parallel-topdown",
            "stream-ingest",
        }

    def test_parallel_workloads_have_enough_transactions(self):
        # the parallel-vs-in-process claim is only meaningful at scale
        from repro.data.datasets import load

        for w in WORKLOADS:
            if w.kind.startswith("parallel-"):
                assert len(load(w.dataset)) >= 5_000

    def test_name_format(self):
        w = Workload("conditional", "T10.I4.D5K", 100, True)
        assert w.name == "conditional/T10.I4.D5K@100"

    def test_unknown_kind_rejected(self):
        bad = Workload("sideways", "T10.I4.D5K", 100, False)
        with pytest.raises(ValueError):
            run_workload(bad, repeat=1)
        bad_parallel = Workload("parallel-sideways", "T10.I4.D5K", 100, False)
        with pytest.raises(ValueError):
            run_parallel_workload(bad_parallel, 1)


class TestRunWorkload:
    # one real (tiny) cell end to end: verification, counters, timing
    def test_record_shape(self):
        w = Workload("conditional", "paper-example", 2, False)
        record = run_workload(w, repeat=1)
        assert record["name"] == "conditional/paper-example@2"
        assert record["itemsets"] > 0
        assert record["legacy_s"] >= 0.0
        assert record["optimized_s"] >= 0.0
        assert record["speedup"] > 0.0
        assert isinstance(record["counters"], dict)


class TestRunParallelWorkload:
    def test_record_shape(self):
        w = Workload("parallel-cond", "paper-example", 2, False)
        record = run_parallel_workload(w, 1)
        assert record["itemsets"] > 0
        assert record["serial_s"] >= 0.0 and record["shm_s"] >= 0.0
        assert record["speedup"] > 0.0
        assert 0 < record["ipc_bytes_sent"]
        assert 0 < record["shm_segment_bytes"]


class TestIpcGate:
    @staticmethod
    def _doc(segment_bytes, sent_bytes):
        return {
            "workloads": [{
                "name": "parallel-cond/X@1",
                "ipc_bytes_sent": sent_bytes,
                "shm_segment_bytes": segment_bytes,
            }]
        }

    def test_passes_under_factor(self):
        assert ipc_gate_problems(self._doc(100_000, 900)) == []

    def test_fails_at_factor(self):
        doc = self._doc(100_000, int(100_000 * IPC_REDUCTION_FACTOR))
        problems = ipc_gate_problems(doc)
        assert len(problems) == 1 and "parallel-cond/X@1" in problems[0]

    def test_single_transport_records_not_gated(self):
        # records without a measured segment (here a two-transport-era
        # record, and a kernel cell) have nothing to gate against
        doc = {
            "workloads": [
                {"name": "parallel-cond/X@1", "ipc_bytes_sent": {"shm": 5}},
                {"name": "conditional/Y@1"},
            ]
        }
        assert ipc_gate_problems(doc) == []


class TestCompare:
    @staticmethod
    def _doc(speedups):
        return {
            "workloads": [
                {"name": name, "speedup": s} for name, s in speedups.items()
            ]
        }

    def test_no_regression_within_tolerance(self):
        base = self._doc({"conditional/X@1": 2.0})
        now = self._doc({"conditional/X@1": 2.0 * (1 - REGRESSION_TOLERANCE) + 0.01})
        assert compare_against_baseline(now, base) == []

    def test_regression_detected(self):
        base = self._doc({"conditional/X@1": 2.0})
        now = self._doc({"conditional/X@1": 1.0})
        problems = compare_against_baseline(now, base)
        assert len(problems) == 1
        assert "conditional/X@1" in problems[0]

    def test_unknown_workload_ignored(self):
        base = self._doc({"conditional/X@1": 2.0})
        now = self._doc({"conditional/Y@1": 0.1})
        assert compare_against_baseline(now, base) == []

    def test_custom_tolerance(self):
        base = self._doc({"topdown/X@1": 2.0})
        now = self._doc({"topdown/X@1": 1.9})
        assert compare_against_baseline(now, base, tolerance=0.01) != []
        assert compare_against_baseline(now, base, tolerance=0.10) == []

    def test_micro_workloads_are_not_gated(self):
        # sub-MIN_GATE_SECONDS timings are scheduler noise: a huge ratio
        # swing on a microsecond workload must not fail the gate
        def doc(speedup, seconds):
            return {
                "workloads": [{
                    "name": "conditional/tiny@2", "speedup": speedup,
                    "legacy_s": seconds, "optimized_s": seconds,
                }]
            }

        base, now = doc(2.0, 0.0005), doc(0.2, 0.0005)
        assert compare_against_baseline(now, base) == []
        # the same swing on real timings is still a regression
        base, now = doc(2.0, 0.5), doc(0.2, 0.5)
        assert compare_against_baseline(now, base) != []

    def test_parallel_records_gate_on_transport_timings(self):
        # the micro-workload exclusion reads *any* `*_s` key, so the
        # serial/shm records participate with no special-casing
        def doc(speedup, seconds):
            return {
                "workloads": [{
                    "name": "parallel-cond/X@25", "speedup": speedup,
                    "serial_s": seconds, "shm_s": seconds,
                }]
            }

        base, now = doc(2.0, 0.0005), doc(0.2, 0.0005)
        assert compare_against_baseline(now, base) == []
        base, now = doc(2.0, 0.5), doc(0.2, 0.5)
        assert compare_against_baseline(now, base) != []


class TestMain:
    def test_writes_report_and_compares(self, tmp_path, monkeypatch):
        # shrink the matrix to the tiny paper example so the test is fast
        tiny = (Workload("conditional", "paper-example", 2, True),)
        monkeypatch.setattr("repro.perf.bench.WORKLOADS", tiny)

        out = tmp_path / "bench.json"
        assert main(quick=True, repeat=1, output=str(out)) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["conditional_speedup"] > 0
        assert [w["name"] for w in report["workloads"]] == ["conditional/paper-example@2"]

        # comparing a run against its own baseline can never regress
        assert main(quick=True, repeat=1, output=None, compare=str(out)) == 0


class TestStreamWorkload:
    def test_record_shape_and_budget(self):
        from repro.perf.bench import STREAM_SKETCH_BUDGET, run_stream_workload

        w = Workload("stream-ingest", "paper-example", 0, True)
        record = run_stream_workload(w, repeat=1)
        assert record["kind"] == "stream-ingest"
        assert record["ingest_s"] > 0
        assert record["throughput_tps"] > 0
        assert 0 < record["sketch_bytes"] <= STREAM_SKETCH_BUDGET
        assert record["sketch_budget"] == STREAM_SKETCH_BUDGET
        # no legacy generation: the ratio gate must skip this record
        assert "speedup" not in record

    def test_stream_gate(self):
        from repro.perf.bench import stream_gate_problems

        ok = {
            "workloads": [
                {"name": "stream-ingest/X@0", "kind": "stream-ingest",
                 "sketch_bytes": 100, "sketch_budget": 200},
                {"name": "conditional/Y@1", "kind": "conditional"},
            ]
        }
        assert stream_gate_problems(ok) == []
        ok["workloads"][0]["sketch_bytes"] = 201
        problems = stream_gate_problems(ok)
        assert len(problems) == 1 and "stream-ingest/X@0" in problems[0]
