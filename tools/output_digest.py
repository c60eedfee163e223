#!/usr/bin/env python3
"""Digest every output of the benchmark's CLI study loop, to compare two trees.

    python3 tools/output_digest.py --src /path/to/old/src --seed 7 > old.json
    python3 tools/output_digest.py --src src --seed 7 > new.json
    diff old.json new.json

For each workload of perfbench/workloads.py it runs, with the missmix
package under --src and in a fresh directory, the workload's `generate`,
then each of its steps once, then one `estimate-mu` on the generated
study. It prints one JSON object that gives, for each command, its
arguments, its exit code and the sha256 of its standard output, its
standard error and each file it writes. Two trees with equal digests
write the same bytes on this loop.

Each model file also gets a `content` digest: the sha256 of what the
--src tree's own `load_model` reads from it (every array's dtype, shape
and bytes, and every other field), so two trees whose model formats differ
still show whether they store the same values.

    python3 tools/output_digest.py --golden

rewrites tests/golden/output_digest_tiny.json: the digests of the tiny
loops of every workload at seed 0 with the Python, numpy and scipy
versions that made them, which tests/test_output_digest.py compares each
run against. A change that alters an output regenerates it in the same
commit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUDY_FILES = ("study.train.csv", "study.test.csv", "study.truth.model")
GOLDEN = ROOT / "tests" / "golden" / "output_digest_tiny.json"
GOLDEN_WORKLOADS = ("desk-grid", "million-fit", "wide-learn")
# Probed cells per user: `generate`'s default --per-user-test, which no
# workload overrides.
PER_USER_TEST = 10
# Prints the content digest of each model file in argv[1:], one a line,
# walking the dataclass load_model returns field by field.
CONTENT_SCRIPT = """
import dataclasses, hashlib, sys
import numpy as np
from missmix.modelio import load_model

def walk(digest, name, value):
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            walk(digest, name + "." + field.name, getattr(value, field.name))
    elif isinstance(value, np.ndarray):
        digest.update(f"{name} {value.dtype.str} {value.shape}\\n".encode())
        digest.update(value.tobytes())
    else:
        digest.update(f"{name} {value!r}\\n".encode())

for path in sys.argv[1:]:
    digest = hashlib.sha256()
    walk(digest, "model", load_model(path))
    print(digest.hexdigest())
"""


def load_workloads():
    """perfbench/workloads.py as a module, loaded without writing bytecode
    under perfbench/."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(src: Path) -> dict:
    """The environment that runs the missmix package under ``src``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_command(argv, cwd: Path, src: Path, outputs) -> tuple[dict, str]:
    """Run ``missmix argv`` in ``cwd`` on the package under ``src``: its digest
    record (an output it did not write hashes to None) and its standard output.
    Each model file it wrote is kept as ``cwd``/<n>.snapshot, and its
    ``content`` entry waits for `add_contents`."""
    proc = subprocess.run([sys.executable, "-m", "missmix.cli", *argv],
                          cwd=cwd, env=_env(src), capture_output=True)
    files = {name: _sha256((cwd / name).read_bytes()) if (cwd / name).exists()
             else None for name in outputs}
    content = {}
    for name in outputs:
        if name.endswith(".model"):
            content[name] = None
            if files[name]:
                content[name] = len(list(cwd.glob("*.snapshot")))
                shutil.copyfile(cwd / name, cwd / f"{content[name]}.snapshot")
    return ({"argv": list(argv), "rc": proc.returncode,
             "stdout": _sha256(proc.stdout), "stderr": _sha256(proc.stderr),
             "files": files, "content": content}, proc.stdout.decode("utf-8", "replace"))


def add_contents(records, cwd: Path, src: Path) -> list[dict]:
    """``records`` with the content digest of each model snapshot in place of
    its number, all read by one process of the package under ``src``."""
    contents = [r["content"] for r in records]
    snapshots = [f"{n}.snapshot" for c in contents for n in c.values() if n is not None]
    if snapshots:
        digests = subprocess.run(
            [sys.executable, "-c", CONTENT_SCRIPT, *snapshots], cwd=cwd, env=_env(src),
            check=True, capture_output=True, text=True).stdout.split()
        for content in contents:
            content.update((name, n if n is None else digests[n])
                           for name, n in content.items())
    return records


def digest_workload(workload, n_values: int, src: Path, seed: int) -> list[dict]:
    """Digest records of ``workload``'s generate, steps and estimate-mu."""
    with tempfile.TemporaryDirectory(prefix="missmix-digest-") as tmp:
        cwd = Path(tmp)
        record, stdout = run_command(workload.generate_argv(seed), cwd, src,
                                     STUDY_FILES)
        records = [record]
        if record["rc"] != 0:
            return add_contents(records, cwd, src)
        users = dict(line.split(" ", 1) for line in stdout.splitlines())["users"]
        dims = f"{users},{workload.items},{n_values}"
        for step in workload.steps:
            argv = [a.replace("{dims}", dims) for a in step.argv]
            records.append(run_command(argv, cwd, src, step.outputs)[0])
        records.append(run_command(
            ["estimate-mu", "study.train.csv", "study.test.csv", "--exposure",
             str(workload.items - PER_USER_TEST), "--dims", dims, "--out", "mu.txt"],
            cwd, src, ("mu.txt",))[0])
        return add_contents(records, cwd, src)


def versions() -> dict:
    """The Python, numpy and scipy versions the digested commands run on."""
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def golden_digest(src: Path) -> dict:
    """The GOLDEN file's content for the package under ``src``: the tiny
    GOLDEN_WORKLOADS at seed 0, run side by side, and the versions."""
    workloads = load_workloads()
    tiny = workloads.build(tiny=True)
    with ThreadPoolExecutor(len(GOLDEN_WORKLOADS)) as pool:
        records = pool.map(lambda name: digest_workload(
            tiny[name], workloads.N_VALUES, src, seed=0), GOLDEN_WORKLOADS)
        return {"seed": 0, "size": "tiny", "versions": versions(),
                "workloads": dict(zip(GOLDEN_WORKLOADS, records))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the missmix package")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["tiny", "full"], default="full")
    parser.add_argument("--golden", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(ROOT)} from --src and exit")
    args = parser.parse_args(argv)
    if args.golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden_digest(args.src.resolve()), indent=1) + "\n",
                          encoding="utf-8")
        return 0
    workloads = load_workloads()
    src = args.src.resolve()
    digest = {"seed": args.seed, "size": args.size, "workloads": {
        name: digest_workload(wl, workloads.N_VALUES, src, args.seed)
        for name, wl in workloads.build(tiny=args.size == "tiny").items()}}
    print(json.dumps(digest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
