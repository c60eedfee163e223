"""The one launcher and study loop of tools/, in tools/own_peak.py, with its
launcher stubbed, and the pins that keep them its own."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load_digest_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _holders(pattern):
    return [p.name for p in sorted(TOOLS.glob("*.py"))
            if re.search(pattern, p.read_text(encoding="utf-8"))]


def test_the_study_loop_fills_dims_from_generate_and_leaves_failures_to_its_caller(
        tmp_path, monkeypatch, capsys):
    digest = _load_digest_tool()
    peak = sys.modules["own_peak"]  # the shared module output_digest imports
    calls, rcs = [], {}

    def launch(argv, src, cwd, stdout=None, stderr=None):
        calls.append(list(argv))
        Path(stdout).write_text("users 7\n" if argv[0] == "generate" else "done\n")
        if stderr is not None:
            Path(stderr).write_text("")
        return {"argv": list(argv), "rc": rcs.get(argv[0], 0), "wall_s": 0.0,
                "own_peak_mb": 1.0}

    def spawn(*args, **kwargs):
        raise AssertionError("the stubbed loop started a process")

    monkeypatch.setattr(peak, "launch", launch)
    monkeypatch.setattr(subprocess, "Popen", spawn)
    for workload in peak.load_workloads().build(tiny=True).values():
        calls.clear()
        yielded = [argv for argv, _, _ in peak.study(workload, 3, ROOT / "src", tmp_path)]
        assert yielded == calls == [workload.generate_argv(3), *(
            [f"7,{workload.items},5" if a == "{dims}" else a for a in step.argv]
            for step in workload.steps)]
        assert all("--dims" in argv for argv in calls[1:])

    wide = peak.load_workloads().build(tiny=True)["wide-learn"]
    rcs["generate"] = 2
    assert [r["rc"] for _, _, r in peak.study(wide, 0, ROOT / "src", tmp_path)] == [2]
    assert [r["rc"] for r in digest.digest_workload(wide, ROOT / "src", 0)] == [2]

    # own_peak stops at the first failing step with its code; the digest
    # records that step and goes on to the next and to estimate-mu
    rcs.update(generate=0, train=3, predict=4)
    capsys.readouterr()
    assert peak.run_workload("wide-learn", True, 0, ROOT / "src") == 3
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["argv"][0], r["rc"]) for r in printed] == [("generate", 0), ("train", 3)]
    records = digest.digest_workload(wide, ROOT / "src", 0)
    assert [(r["argv"][0], r["rc"]) for r in records] == [
        ("generate", 0), ("train", 3), ("predict", 4), ("estimate-mu", 0)]
    assert records[-1]["argv"][records[-1]["argv"].index("--dims") + 1] == f"7,{wide.items},5"
    assert {r["stdout"] for r in records[1:]} == {digest.hashlib.sha256(b"done\n").hexdigest()}


def test_the_launcher_and_the_study_loop_have_one_home_under_tools():
    # own_peak spawns and reaps every missmix command, fills the steps' dims,
    # sets the package path and reads the versions; output_digest and ab are
    # front ends over it
    for pattern in (r'"missmix\.cli"', r"os\.wait4\(", r'\.replace\("\{dims\}"',
                    r"metadata\.version\(", r"PYTHONPATH="):
        assert _holders(pattern) == ["own_peak.py"], pattern
    source = (TOOLS / "own_peak.py").read_text(encoding="utf-8")
    assert len(re.findall(r'"missmix\.cli"', source)) == 1
    assert len(re.findall(r"os\.wait4\(", source)) == 1
    # no second launcher, no working-directory switch, and no study file held
    # whole in the launcher's memory
    assert _holders(r"posix_spawn|os\.chdir\(|read_bytes\(") == []
