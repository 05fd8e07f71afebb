"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench/tests``.

Every workload runs at the ``tiny`` size for about a second.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, tail  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.splitlines()


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.9", "--trace", trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # a traced run has two timed phases of at least 5 operations each
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (10 if trace == "1" else 11)
    expected = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(line.startswith("error_rate") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_planted_wrong_answer_is_counted(workload):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.9", "--plant-wrong", "2")
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    rate = next(line for line in lines if line.startswith("error_rate")).split()[1]
    assert float(rate) == pytest.approx(result["failed"] / result["attempted"], abs=1e-4)


def test_fixed_seed_reproduces_inputs():
    assert inputs.quest(300, 50, seed=5) == inputs.quest(300, 50, seed=5)
    assert inputs.quest(300, 50, seed=5) != inputs.quest(300, 50, seed=6)
    assert inputs.dense(100, 12, 6, seed=5) == inputs.dense(100, 12, 6, seed=5)
    a, b = inputs.serve_requests(range(40), seed=5), inputs.serve_requests(range(40), seed=5)
    assert [next(a) for _ in range(500)] == [next(b) for _ in range(500)]


def test_fixed_seed_reproduces_serve_hit_miss_sequence(tmp_path):
    args = argparse.Namespace(workload="serve-mix", seed=4, seconds=0.7, trace=0, plant_wrong=None)
    tiny = {**run.SIZES["tiny"], "setups": 1}
    first = run.serve_workload(args, tiny, tmp_path).topk_sources
    second = run.serve_workload(args, tiny, tmp_path).topk_sources
    n = min(len(first), len(second))
    assert n >= 20
    assert first[:n] == second[:n]
    assert {"hit", "miss"} <= set(first)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "mine-sparse", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code not in (0, 1)
    assert not any(line.startswith("{") for line in lines)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0, 10)
    assert tail(list(range(1, 10_001)))[1:] == (99.0, 100)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    times = self_times(tracer.spans)
    assert inner["parent"] == outer["id"] and inner["trace"] == outer["id"]
    whole = outer["end"] - outer["start"]
    assert times["outer"][0] == pytest.approx(whole - (inner["end"] - inner["start"]))
