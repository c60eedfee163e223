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
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUDY_FILES = ("study.train.csv", "study.test.csv", "study.truth.model")
# Probed cells per user: `generate`'s default --per-user-test, which no
# workload overrides.
PER_USER_TEST = 10


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


def run_command(argv, cwd: Path, src: Path, outputs) -> tuple[dict, str]:
    """Run ``missmix argv`` in ``cwd`` on the package under ``src``: its digest
    record (an output it did not write hashes to None) and its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "missmix.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    files = {name: _sha256((cwd / name).read_bytes()) if (cwd / name).exists()
             else None for name in outputs}
    return ({"argv": list(argv), "rc": proc.returncode,
             "stdout": _sha256(proc.stdout), "stderr": _sha256(proc.stderr),
             "files": files}, proc.stdout.decode("utf-8", "replace"))


def digest_workload(workload, n_values: int, src: Path, seed: int) -> list[dict]:
    """Digest records of ``workload``'s generate, steps and estimate-mu."""
    with tempfile.TemporaryDirectory(prefix="missmix-digest-") as tmp:
        cwd = Path(tmp)
        record, stdout = run_command(workload.generate_argv(seed), cwd, src,
                                     STUDY_FILES)
        records = [record]
        if record["rc"] != 0:
            return records
        users = dict(line.split(" ", 1) for line in stdout.splitlines())["users"]
        dims = f"{users},{workload.items},{n_values}"
        for step in workload.steps:
            argv = [a.replace("{dims}", dims) for a in step.argv]
            records.append(run_command(argv, cwd, src, step.outputs)[0])
        records.append(run_command(
            ["estimate-mu", "study.train.csv", "study.test.csv", "--exposure",
             str(workload.items - PER_USER_TEST), "--dims", dims, "--out", "mu.txt"],
            cwd, src, ("mu.txt",))[0])
        return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the missmix package")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["tiny", "full"], default="full")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    src = args.src.resolve()
    digest = {"seed": args.seed, "size": args.size, "workloads": {
        name: digest_workload(wl, workloads.N_VALUES, src, args.seed)
        for name, wl in workloads.build(tiny=args.size == "tiny").items()}}
    print(json.dumps(digest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
