"""tools/own_peak.py, the wall time and own peak RSS of one CLI command."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_own_peak_runs_a_tiny_generate_and_reports_its_peak(tmp_path):
    argv = ["generate", "--out", "study", "-N", "30", "-M", "40", "-K", "2", "--min-train", "1",
            "--seed", "3"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "own_peak.py"), *argv],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    *command_output, last = proc.stdout.splitlines()
    record = json.loads(last)
    assert record["argv"] == argv and record["rc"] == 0
    assert 0 < record["wall_s"] < 60
    # at least the interpreter and numpy, and far below a machine's memory
    assert 10 < record["own_peak_mb"] < 1000
    assert command_output[0].startswith("users ")
    assert all((tmp_path / f"study.{name}").exists()
               for name in ("train.csv", "test.csv", "truth.model"))


def test_own_peak_passes_a_failing_command_s_exit_code_on(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "own_peak.py"),
                           "generate", "--out", "study", "-N", "0"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == json.loads(proc.stdout.splitlines()[-1])["rc"] != 0
    assert proc.stderr.startswith("error: ")


def test_own_peak_runs_a_tiny_workload_one_line_per_command(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "own_peak.py"),
                           "--workload", "wide-learn", "--size", "tiny", "--seed", "2"],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["argv"][0] for r in records] == ["generate", "train", "predict"]
    assert records[0]["argv"][-2:] == ["--seed", "2"]
    assert all(r["rc"] == 0 and 10 < r["own_peak_mb"] < 1000 for r in records)
    # the steps ran on the generated study's dims, in a directory of their own
    assert records[1]["argv"][records[1]["argv"].index("--dims") + 1].endswith(",400,5")
    assert list(tmp_path.iterdir()) == [] and proc.stderr == ""
