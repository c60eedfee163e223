"""tools/output_digest.py, the byte-identity check of the CLI study loop."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REGENERATE = "python3 tools/output_digest.py --golden"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny():
    """The tool and this tree's digests of the tiny golden loops, made once."""
    tool = _load_tool()
    return tool, tool.golden_digest(ROOT / "src")


def test_output_digest_hashes_every_output_of_a_workload(tiny):
    tool, digest = tiny
    workload = tool.load_workloads().build(tiny=True)["wide-learn"]
    records = digest["workloads"]["wide-learn"]
    assert [r["argv"][0] for r in records] == [
        "generate", *(step.kind for step in workload.steps), "estimate-mu"]
    assert [tuple(r["files"]) for r in records] == [
        tool.STUDY_FILES, *(step.outputs for step in workload.steps), ("mu.txt",)]
    # each model file also has the digest of what load_model reads from it
    assert [tuple(r["content"]) for r in records] == [
        tuple(name for name in files if name.endswith(".model"))
        for files in (r["files"] for r in records)]
    assert any(r["content"] for r in records)
    for record in records:
        assert record["rc"] == 0, record["argv"]
        for digest in (record["stdout"], record["stderr"], *record["files"].values(),
                       *record["content"].values()):
            assert re.fullmatch("[0-9a-f]{64}", digest or ""), record["argv"]


def test_tiny_study_loop_writes_the_golden_bytes(tiny):
    # every output byte of the tiny loop of every workload is pinned;
    # a change that alters one regenerates the file and says why
    tool, digest = tiny
    golden = json.loads(tool.GOLDEN.read_text(encoding="utf-8"))
    assert golden["versions"] == digest["versions"], (
        f"{tool.GOLDEN.name} was made on {golden['versions']}, this run is on"
        f" {digest['versions']}; check the outputs, then regenerate it with `{REGENERATE}`")
    changed = [(name, r["argv"][0]) for name, records in digest["workloads"].items()
               for r, want in zip(records, golden["workloads"].get(name, [])) if r != want]
    assert digest == golden, (f"outputs differ from {tool.GOLDEN.name} at {changed}; if the"
                              f" change is meant, regenerate it with `{REGENERATE}`")
