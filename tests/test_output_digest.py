"""tools/output_digest.py, the byte-identity check of the CLI study loop."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_hashes_every_output_of_a_workload():
    tool = _load_tool()
    workloads = tool.load_workloads()
    workload = workloads.build(tiny=True)["wide-learn"]
    records = tool.digest_workload(workload, workloads.N_VALUES, ROOT / "src", seed=0)
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
