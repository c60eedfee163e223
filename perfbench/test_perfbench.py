"""Tests of the benchmark itself: metric names, smoke runs, failure mode.

Run with `python3 -m pytest -q perfbench` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.build())
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.build()))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    # Every end-to-end metric is printed by name in the summary too.
    for name in expected:
        assert f" {name} " in proc.stdout


def test_fails_without_sources():
    # A copy holding only BENCHMARK.json and this directory, kept inside
    # the checkout's ignored work area.
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "desk-grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [{"start": 0.0, "end": 10.0, "parent": None},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1},
             {"start": 5.0, "end": 6.0, "parent": 0}]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_upper_percentile_keeps_ten_samples_above():
    assert run.upper_percentile(list(range(10))) is None
    up = run.upper_percentile([float(x) for x in range(20)])
    assert up["value"] == 9.0
    assert sum(1 for x in range(20) if x > up["value"]) == 10
